//! Integration: the real-thread PIOMan runtime acting as the progress
//! engine of a fake communication library, end to end across crates
//! (cpuset + topology + pioman).

use piom_suite::cpuset::CpuSet;
use piom_suite::pioman::{Progression, ProgressionConfig, TaskManager, TaskStatus};
use piom_suite::topology::presets;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A fake NIC: "polling" succeeds once its completion counter is raised by
/// a (simulated) remote event.
struct FakeNic {
    completions: AtomicU32,
    polls: AtomicU32,
}

#[test]
fn polling_tasks_detect_fake_network_events() {
    let topo = Arc::new(presets::kwak());
    let mgr = TaskManager::new(topo);
    let _prog = Progression::start(mgr.clone(), ProgressionConfig::all_cores(&mgr));

    let nic = Arc::new(FakeNic {
        completions: AtomicU32::new(0),
        polls: AtomicU32::new(0),
    });

    // The communication library submits a repetitive polling task with
    // cache affinity (cores sharing NUMA node #0).
    let n = nic.clone();
    let h = mgr
        .task(move |_| {
            n.polls.fetch_add(1, Ordering::Relaxed);
            if n.completions.load(Ordering::Acquire) > 0 {
                TaskStatus::Done
            } else {
                TaskStatus::Again
            }
        })
        .cpuset(CpuSet::range(0..4))
        .repeat()
        .spawn();

    // The "network event" arrives later, from another thread.
    let n = nic.clone();
    let injector = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        n.completions.fetch_add(1, Ordering::Release);
    });

    h.wait().expect("polling task completes after the event");
    injector.join().unwrap();
    assert!(nic.polls.load(Ordering::Relaxed) >= 1);
}

#[test]
fn request_submission_offload_chain() {
    // §IV-B: submitting a request that does not complete immediately makes
    // the submission task spawn a polling task; both complete in background.
    let topo = Arc::new(presets::borderline());
    let mgr = TaskManager::new(topo);
    let _prog = Progression::start(mgr.clone(), ProgressionConfig::all_cores(&mgr));

    let phase = Arc::new(AtomicUsize::new(0));
    let p = phase.clone();
    let submit_task = mgr
        .task(move |ctx| {
            // The "request" needs polling: delegate a repeat task.
            let p2 = p.clone();
            let mut polls_left = 5;
            ctx.manager
                .task(move |_| {
                    polls_left -= 1;
                    if polls_left == 0 {
                        p2.store(2, Ordering::Release);
                        TaskStatus::Done
                    } else {
                        TaskStatus::Again
                    }
                })
                .cpuset(CpuSet::first_n(8))
                .repeat()
                .spawn();
            // The chained task may already have completed (phase 2) on
            // another core by the time we get here; never move phase back.
            p.fetch_max(1, Ordering::AcqRel);
            TaskStatus::Done
        })
        .cpuset(CpuSet::first_n(8))
        .spawn();
    submit_task.wait().unwrap();

    // Wait for the chained polling task to finish too.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while phase.load(Ordering::Acquire) != 2 {
        assert!(std::time::Instant::now() < deadline, "chained task stuck");
        std::thread::yield_now();
    }
    assert_eq!(mgr.pending_tasks(), 0);
}

#[test]
fn many_concurrent_flows_all_complete() {
    let topo = Arc::new(presets::kwak());
    let mgr = TaskManager::new(topo.clone());
    let _prog = Progression::start(mgr.clone(), ProgressionConfig::all_cores(&mgr));
    let counter = Arc::new(AtomicU32::new(0));
    let handles: Vec<_> = (0..200)
        .map(|i| {
            let c = counter.clone();
            let mut reps = i % 4;
            let spec = mgr
                .task(move |_| {
                    if reps == 0 {
                        c.fetch_add(1, Ordering::Relaxed);
                        TaskStatus::Done
                    } else {
                        reps -= 1;
                        TaskStatus::Again
                    }
                })
                .cpuset(CpuSet::single(i % 16));
            (if i % 4 == 0 { spec } else { spec.repeat() }).spawn()
        })
        .collect();
    for h in handles {
        h.wait().unwrap();
    }
    assert_eq!(counter.load(Ordering::Relaxed), 200);
    let stats = mgr.stats();
    assert_eq!(stats.total_submitted(), 200);
}
