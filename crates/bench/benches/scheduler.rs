//! Real-thread microbenchmarks of the PIOMan core library.
//!
//! These measure the actual Rust implementation on the host (they are not
//! the paper's Tables — those need 8/16-core NUMA machines and are
//! regenerated in simulation by `piom-harness table1 table2`). What they
//! pin down instead:
//!
//! * the submit→schedule→complete round-trip per queue level (the real
//!   analogue of one Table I row, single-threaded on the host);
//! * Algorithm 2's unlocked-empty fast path vs a forced lock acquisition;
//! * the cpuset/topology operations on the submit hot path;
//! * batched dequeue: draining a backlog per-task vs per-pass
//!   (`TaskManager::schedule_batch`);
//! * steal-vs-spin under skewed load: tasks homed on one core, siblings
//!   either steal the backlog or only the home core drains it;
//! * contended submit/schedule from real threads, global queue vs
//!   per-core queues;
//! * a NewMadeleine pingpong progressed by the engine (simulated cluster,
//!   same path `piom-harness bench` records in `BENCH_pioman.json`).

use bench::scenarios;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use madmpi::{mtlat, MpiImpl};
use piom_cpuset::CpuSet;
use piom_topology::presets;
use pioman::{ManagerConfig, TaskManager, TaskStatus};
use std::hint::black_box;
use std::sync::Arc;

fn bench_submit_schedule_levels(c: &mut Criterion) {
    let mut g = c.benchmark_group("submit_schedule_roundtrip");
    let topo = Arc::new(presets::kwak());
    for (label, cpuset, core) in [
        ("per_core_local", CpuSet::single(0), 0usize),
        ("per_core_remote", CpuSet::single(12), 12),
        ("per_numa", CpuSet::range(4..8), 5),
        ("global", CpuSet::first_n(16), 9),
    ] {
        let mgr = TaskManager::new(topo.clone());
        g.bench_function(label, |b| {
            b.iter(|| {
                let h = mgr
                    .task(|_| TaskStatus::Done)
                    .cpuset(black_box(cpuset))
                    .spawn();
                mgr.schedule(core);
                assert!(h.is_complete());
            })
        });
    }
    g.finish();
}

fn bench_empty_scan(c: &mut Criterion) {
    // Algorithm 2's point: scanning a hierarchy of empty queues costs no
    // lock acquisitions at all. This is the keypoint-hook fast path.
    let mut g = c.benchmark_group("empty_scan");
    let topo = Arc::new(presets::kwak());
    let mgr = TaskManager::new(topo.clone());
    g.bench_function("schedule_all_empty", |b| {
        b.iter(|| black_box(mgr.schedule(black_box(7))))
    });
    let stats = mgr.stats();
    assert_eq!(
        stats
            .queues
            .iter()
            .map(|q| q.lock_acquisitions)
            .sum::<u64>(),
        0,
        "empty scan must not lock (Algorithm 2)"
    );
    g.finish();
}

fn bench_repeat_polling_task(c: &mut Criterion) {
    let mut g = c.benchmark_group("repeat_task");
    let topo = Arc::new(presets::kwak());
    let mgr = TaskManager::new(topo.clone());
    g.bench_function("poll_until_done_10", |b| {
        b.iter_batched(
            || {
                let mut left = 10u32;
                mgr.task(move |_| {
                    left -= 1;
                    if left == 0 {
                        TaskStatus::Done
                    } else {
                        TaskStatus::Again
                    }
                })
                .cpuset(CpuSet::single(0))
                .repeat()
                .spawn()
            },
            |h| {
                while !h.is_complete() {
                    mgr.schedule(0);
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_cpuset_topology_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("submit_path_queries");
    let topo = presets::kwak();
    let set = CpuSet::range(4..8);
    g.bench_function("smallest_covering", |b| {
        b.iter(|| black_box(topo.smallest_covering(black_box(&set))))
    });
    g.bench_function("cpuset_union_count", |b| {
        let a = CpuSet::range(0..8);
        let z = CpuSet::range(4..12);
        b.iter(|| black_box((black_box(a) | black_box(z)).count()))
    });
    g.bench_function("cores_by_distance", |b| {
        b.iter(|| black_box(topo.cores_by_distance(black_box(5), &topo.all_cores())))
    });
    g.finish();
}

fn bench_batched_dequeue(c: &mut Criterion) {
    // The tentpole win: a backlog of n tasks costs one lock acquisition to
    // drain instead of n. `drain_1` is the degenerate case (equal to the
    // per-task path); the gap to `drain_64` is the batching payoff.
    let mut g = c.benchmark_group("batched_dequeue");
    let topo = Arc::new(presets::kwak());
    for n in [1usize, 8, 64] {
        let mgr = TaskManager::new(topo.clone());
        g.bench_function(&format!("drain_{n}"), |b| {
            b.iter_batched(
                || {
                    for _ in 0..n {
                        mgr.task(|_| TaskStatus::Done)
                            .cpuset(CpuSet::single(0))
                            .spawn();
                    }
                },
                |()| {
                    assert_eq!(mgr.schedule_batch(0, n), n);
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_steal_vs_spin(c: &mut Criterion) {
    // Skewed load (scenarios::submit_skewed): 64 tasks homed on core 0's
    // queue, cpuset {0..4}. With stealing, cores 1-3 drain the backlog even
    // though core 0 never schedules (the starved-core scenario). Without
    // stealing, only core 0 can make progress and the sibling keypoints are
    // wasted spins.
    let mut g = c.benchmark_group("steal_vs_spin");
    let topo = Arc::new(presets::kwak());
    let steal_on = TaskManager::new(topo.clone());
    g.bench_function("steal_on_starved_home", |b| {
        b.iter_batched(
            || scenarios::submit_skewed(&steal_on),
            |handles| {
                // Core 0 is "busy computing": only its siblings schedule.
                scenarios::drain_until_complete(&steal_on, 1..4, &handles);
            },
            BatchSize::SmallInput,
        )
    });
    let steal_off = TaskManager::with_config(
        topo.clone(),
        ManagerConfig {
            steal: false,
            ..ManagerConfig::default()
        },
    );
    g.bench_function("spin_home_drains_alone", |b| {
        b.iter_batched(
            || scenarios::submit_skewed(&steal_off),
            |handles| {
                // Siblings spin uselessly; the home core does all the work.
                scenarios::drain_until_complete(&steal_off, 0..4, &handles);
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_contended_queues(c: &mut Criterion) {
    // Real-thread contention (scenarios::contended_round): 4 threads each
    // submit+drain a burst. With a shared all-cores cpuset every operation
    // hits the Global Queue's lock; with per-core cpusets each thread stays
    // on its own queue (the paper's whole argument for the hierarchy,
    // measured on the host).
    let mut g = c.benchmark_group("contended");
    g.sample_size(20);
    let topo = Arc::new(presets::kwak());
    for (label, per_core) in [("global_queue", false), ("per_core_queues", true)] {
        let mgr = TaskManager::new(topo.clone());
        g.bench_function(label, |b| {
            b.iter(|| black_box(scenarios::contended_round(&mgr, per_core)))
        });
    }
    g.finish();
}

fn bench_park_wake(c: &mut Criterion) {
    // Steal-aware parking (PR 4): the wake latency of a parked worker and
    // the cost of the pre-park steal probe itself. `park_wake_latency`
    // times submit→complete against a worker parked with a long timeout
    // (only the wake path can finish early); the probe benches show the
    // O(victims)-loads decision is cheap enough to run on every park.
    let mut g = c.benchmark_group("park_wake");
    g.sample_size(50);
    let topo = Arc::new(presets::kwak());
    let mgr = TaskManager::new(topo.clone());
    let _prog = pioman::Progression::start(
        mgr.clone(),
        pioman::ProgressionConfig {
            park_timeout: scenarios::PARK_WAKE_TIMEOUT,
            timer_period: None,
            ..pioman::ProgressionConfig::for_cores(vec![1])
        },
    );
    g.bench_function("park_wake_latency", |b| {
        b.iter_batched(
            || scenarios::wait_until_parked(&mgr, 1),
            |()| {
                let h = mgr
                    .task(|_| TaskStatus::Done)
                    .cpuset(CpuSet::single(1))
                    .spawn();
                assert_eq!(h.wait(), Ok(()));
            },
            BatchSize::SmallInput,
        )
    });
    drop(_prog);

    let idle = TaskManager::new(topo.clone());
    g.bench_function("park_probe_all_empty", |b| {
        b.iter(|| black_box(idle.park_probe(0)))
    });
    let loaded = TaskManager::new(topo.clone());
    for _ in 0..scenarios::SKEWED_LOAD {
        loaded
            .task(|_| TaskStatus::Done)
            .cpuset(CpuSet::from_iter([0, 12]))
            .on_core(12)
            .spawn();
    }
    g.bench_function("park_probe_distant_backlog", |b| {
        b.iter(|| assert!(black_box(loaded.park_probe(0))))
    });
    g.finish();
}

fn bench_phase_shift(c: &mut Criterion) {
    // The contention-window phase shift: a quiet history, a contended
    // burst, then post-shift adaptive ramp drains. `piom-harness bench`
    // records the same shape (and asserts the re-adaptation claims) into
    // BENCH_pioman.json.
    let mut g = c.benchmark_group("phase_shift");
    g.sample_size(20);
    let mgr = TaskManager::new(Arc::new(presets::kwak()));
    scenarios::phase_quiet_history(&mgr, 0);
    g.bench_function("windowed", |b| {
        // The burst runs in per-iteration setup (the vendored shim calls
        // setup before every routine), so each measured drain genuinely
        // follows a fresh contention phase change instead of the first
        // iteration decaying the window for the rest.
        b.iter_batched(
            || {
                scenarios::phase_burst(&mgr);
                scenarios::submit_ramp(&mgr, 0);
            },
            |_| {
                assert_eq!(
                    scenarios::adaptive_drain(&mgr, 0),
                    scenarios::ADAPTIVE_RAMP_LOAD
                )
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_newmad_pingpong(c: &mut Criterion) {
    // The simulated 4-byte pingpong progressed by PIOMan keypoints (one
    // Fig. 4 point). Measures regeneration cost on the host; the simulated
    // latency itself is deterministic.
    let mut g = c.benchmark_group("newmad_pingpong");
    g.sample_size(20);
    g.bench_function("mtlat_1_thread", |b| {
        b.iter(|| black_box(mtlat::run_mtlat(MpiImpl::MadMpi, 1, 20, 42)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_submit_schedule_levels,
    bench_empty_scan,
    bench_repeat_polling_task,
    bench_cpuset_topology_ops,
    bench_batched_dequeue,
    bench_steal_vs_spin,
    bench_contended_queues,
    bench_park_wake,
    bench_phase_shift,
    bench_newmad_pingpong
);
criterion_main!(benches);
