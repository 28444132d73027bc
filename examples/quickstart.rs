//! Quickstart: delegate work to PIOMan on real threads.
//!
//! A "communication library" (here: a fake one) hands its chores to the
//! task manager: a one-shot request submission, a repetitive polling task,
//! and a batch with NUMA affinity. One progression worker per core plays the
//! role of the thread scheduler's idle keypoint and runs everything in the
//! background.
//!
//! Run with: `cargo run --release --example quickstart`

use piom_suite::cpuset::CpuSet;
use piom_suite::pioman::{Progression, ProgressionConfig, TaskClass, TaskManager, TaskStatus};
use piom_suite::topology::presets;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

fn main() {
    // A 16-core, 4-NUMA-node machine (the paper's `kwak`). On a laptop you
    // would use `presets::host()`; virtual cores still work — they are
    // queue lanes, not OS CPUs.
    let topo = Arc::new(presets::kwak());
    println!(
        "machine: {} ({} cores, {} task queues)",
        topo.name(),
        topo.n_cores(),
        topo.n_nodes()
    );

    let mgr = TaskManager::new(topo);
    let prog = Progression::start(mgr.clone(), ProgressionConfig::all_cores(&mgr));

    // 1. A one-shot task restricted to NUMA node #1 (cores 4-7).
    let h = mgr
        .task(|ctx| {
            println!("one-shot ran on core {}", ctx.core);
            TaskStatus::Done
        })
        .cpuset(CpuSet::range(4..8))
        .spawn();
    h.wait().unwrap();

    // 2. A repetitive polling task: "completed once the corresponding
    //    network polling succeeds" (paper §IV-B).
    let polls = Arc::new(AtomicU32::new(0));
    let p = polls.clone();
    let h = mgr
        .task(move |_| {
            if p.fetch_add(1, Ordering::Relaxed) + 1 == 20 {
                TaskStatus::Done
            } else {
                TaskStatus::Again
            }
        })
        .cpuset(CpuSet::single(2))
        .repeat()
        .spawn();
    h.wait().unwrap();
    println!(
        "polling task completed after {} polls",
        polls.load(Ordering::Relaxed)
    );

    // 3. A burst of tasks across the whole machine.
    let done = Arc::new(AtomicU32::new(0));
    let handles: Vec<_> = (0..64)
        .map(|i| {
            let d = done.clone();
            mgr.task(move |_| {
                d.fetch_add(1, Ordering::Relaxed);
                TaskStatus::Done
            })
            .cpuset(CpuSet::single(i % 16))
            .spawn()
        })
        .collect();
    for h in handles {
        h.wait().unwrap();
    }
    println!("burst: {} tasks completed", done.load(Ordering::Relaxed));

    // 4. QoS tiers + dependencies: a bulk transfer, an urgent completion
    //    signal that runs only after it, and a background sweep that
    //    yields to both.
    let transfer = mgr
        .task(|ctx| {
            println!("bulk transfer ran on core {}", ctx.core);
            TaskStatus::Done
        })
        .cpuset(CpuSet::range(0..4))
        .class(TaskClass::Bulk)
        .spawn();
    let signal = mgr
        .task(|ctx| {
            println!("urgent completion signal ran on core {}", ctx.core);
            TaskStatus::Done
        })
        .cpuset(CpuSet::range(0..4))
        .class(TaskClass::Urgent)
        .after(&transfer)
        .spawn();
    let sweep = mgr
        .task(|_| TaskStatus::Done)
        .class(TaskClass::Background)
        .spawn();
    for h in [transfer, signal, sweep] {
        h.wait().unwrap();
    }
    // Where did everything run?
    let stats = mgr.stats();
    println!("waitlist releases: {}", stats.total_waitlist_released());
    println!("executions per core: {:?}", stats.executed_by_core);
    println!("idle keypoints that found nothing: {}", prog.idle_loops());
    drop(prog);
}
