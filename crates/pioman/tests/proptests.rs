//! Property tests: no task is ever lost, duplicated, or run on a forbidden
//! core, across random topologies and cpusets.

use piom_cpuset::CpuSet;
use piom_topology::{presets, Topology, TopologyBuilder};
use pioman::{TaskClass, TaskManager, TaskStatus, CLASS_COUNT};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug, Clone)]
struct Shape {
    numa: usize,
    chips: usize,
    cores: usize,
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    (1usize..=3, 1usize..=2, 1usize..=4).prop_map(|(numa, chips, cores)| Shape {
        numa,
        chips,
        cores,
    })
}

/// One random one-shot task: a base core and offsets from it (its
/// cpuset, wrapped onto the machine), which of those cores is its pinned
/// home (none when the index is past the set) and its class index.
type Placement = (usize, Vec<usize>, usize, usize);

fn arb_placement() -> impl Strategy<Value = Placement> {
    (
        any::<usize>(),
        proptest::collection::vec(0usize..24, 1..4),
        0usize..5,
        0usize..CLASS_COUNT,
    )
}

/// Spawns `tasks` on `mgr` as placed, running nothing.
fn place(mgr: &TaskManager, tasks: &[Placement]) {
    let n = mgr.topology().n_cores();
    for (base, offsets, home, class) in tasks {
        let cores: Vec<usize> = offsets.iter().map(|o| (base % n + o) % n).collect();
        let spec = mgr
            .task(|_| TaskStatus::Done)
            .cpuset(CpuSet::from_iter(cores.iter().copied()))
            .class(TaskClass::ALL[*class]);
        match cores.get(*home) {
            Some(&core) => spec.on_core(core),
            None => spec,
        }
        .spawn();
    }
}

/// For every core whose own path is empty, the park probe over `tasks`
/// hits iff a second manager holding the same placement runs a task at
/// that core's next keypoint — which can then only be a steal.
fn assert_probe_predicts_the_steal(topo: Topology, tasks: &[Placement]) {
    let topo = Arc::new(topo);
    let n = topo.n_cores();
    let [probed, runner] = [0, 1].map(|_| {
        let mgr = TaskManager::new(topo.clone());
        place(&mgr, tasks);
        mgr
    });
    for core in 0..n {
        if probed.has_work_for(core) {
            continue;
        }
        let ran = runner.schedule(core);
        prop_assert_eq!(probed.park_probe(core), ran, "core {}", core);
        if ran {
            // Back to the same placement without a 256-core rebuild: a
            // keypoint that ran nothing left it as it was; one that ran
            // drains the rest and places again. The steal path reads
            // queue contents, and overflow spans, which decay in full.
            while runner.pending_tasks() > 0 {
                (0..n).for_each(|c| {
                    runner.schedule(c);
                });
            }
            place(&runner, tasks);
        }
    }
}

proptest! {
    // Two 256-core managers per case: about 0.2 s each in a debug build.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The park probe is the steal scan's gates without the lock: with no
    /// keypoint run yet every span is exact, so it must agree with the
    /// steal it predicts — on the 4-socket 16-core host and across the
    /// 256-core dual-socket preset.
    #[test]
    fn park_probe_agrees_with_the_steal_it_predicts(
        tasks in proptest::collection::vec(arb_placement(), 1..32),
    ) {
        assert_probe_predicts_the_steal(presets::kwak(), &tasks);
        assert_probe_predicts_the_steal(presets::dual_socket_256(), &tasks);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Submit a batch of tasks with random cpusets; drive every core until
    /// quiescent; every task must complete exactly once, on an allowed core.
    #[test]
    fn no_task_lost_or_misplaced(
        shape in arb_shape(),
        seeds in proptest::collection::vec(any::<u64>(), 1..40),
    ) {
        let topo = Arc::new(
            TopologyBuilder::new("prop")
                .numa_nodes(shape.numa)
                .chips_per_numa(shape.chips)
                .cores_per_cache(shape.cores)
                .build(),
        );
        let n = topo.n_cores();
        let mgr = TaskManager::new(topo.clone());

        let run_counts: Vec<Arc<AtomicU64>> =
            (0..seeds.len()).map(|_| Arc::new(AtomicU64::new(0))).collect();
        let mut handles = Vec::new();
        let mut cpusets = Vec::new();

        for (i, &seed) in seeds.iter().enumerate() {
            // Random nonempty cpuset from the seed.
            let mut set = CpuSet::new();
            let mut s = seed;
            for cpu in 0..n {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if s & 1 == 1 { set.insert(cpu); }
            }
            if set.is_empty() { set.insert(seed as usize % n); }
            cpusets.push(set);

            let count = run_counts[i].clone();
            let set_copy = set;
            let h = mgr.task(move |ctx| {
                    count.fetch_add(1, Ordering::SeqCst);
                    assert!(set_copy.contains(ctx.core), "ran on forbidden core");
                    TaskStatus::Done
                }).cpuset(set).spawn();
            handles.push(h);
        }

        // Drive all cores round-robin until quiescent.
        let mut spins = 0;
        while mgr.pending_tasks() > 0 {
            for core in 0..n {
                mgr.schedule(core);
            }
            spins += 1;
            prop_assert!(spins < 10_000, "scheduler failed to quiesce");
        }

        for (i, h) in handles.iter().enumerate() {
            prop_assert!(h.is_complete(), "task {i} never completed");
            prop_assert_eq!(run_counts[i].load(Ordering::SeqCst), 1, "task {} ran != once", i);
        }
        let stats = mgr.stats();
        prop_assert_eq!(stats.total_submitted() as usize, seeds.len());
        prop_assert_eq!(stats.total_executed() as usize, seeds.len());
    }

    /// Repeat tasks run exactly `k` times (k-1 Again + 1 Done), regardless
    /// of which allowed cores pick them up.
    #[test]
    fn repeat_tasks_run_exact_count(
        shape in arb_shape(),
        k in 1u64..20,
    ) {
        let topo = Arc::new(
            TopologyBuilder::new("prop")
                .numa_nodes(shape.numa)
                .chips_per_numa(shape.chips)
                .cores_per_cache(shape.cores)
                .build(),
        );
        let n = topo.n_cores();
        let mgr = TaskManager::new(topo);
        let runs = Arc::new(AtomicU64::new(0));
        let r = runs.clone();
        let h = mgr.task(move |_| {
                if r.fetch_add(1, Ordering::SeqCst) + 1 == k {
                    TaskStatus::Done
                } else {
                    TaskStatus::Again
                }
            }).cpuset(CpuSet::first_n(n)).repeat().spawn();
        let mut spins = 0;
        while !h.is_complete() {
            for core in 0..n {
                mgr.schedule(core);
            }
            spins += 1;
            prop_assert!(spins < 10_000);
        }
        prop_assert_eq!(runs.load(Ordering::SeqCst), k);
    }

    /// Concurrent submission + multi-threaded progression: all tasks finish.
    /// (Kept small: the test host has a single CPU.)
    #[test]
    fn concurrent_progression_completes_everything(
        n_tasks in 1usize..60,
    ) {
        let topo = Arc::new(TopologyBuilder::new("p").cores_per_cache(4).build());
        let mgr = TaskManager::new(topo);
        let prog = pioman::Progression::start(
            mgr.clone(),
            pioman::ProgressionConfig::all_cores(&mgr),
        );
        let handles: Vec<_> = (0..n_tasks)
            .map(|i| {
                mgr.task(|_| TaskStatus::Done).cpuset(CpuSet::single(i % 4)).spawn()
            })
            .collect();
        for h in handles {
            prop_assert_eq!(h.wait(), Ok(()));
        }
        drop(prog);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Stealing must not reorder the tasks it leaves behind (checked
    /// through the public API).
    ///
    /// Tasks are homed on core 1 with per-task eligibility for the thief
    /// (core 0) drawn from the seed; a random number of steal probes run
    /// first, then the home core drains everything. Every execution logs
    /// `(core, submission index)`; the home core's subsequence — exactly
    /// the non-stolen tasks — must appear in submission order.
    /// Deterministic: single-threaded, keypoints driven by hand.
    #[test]
    fn steal_half_preserves_victim_fifo(
        n_tasks in 1usize..48,
        eligibility in any::<u64>(),
        n_probes in 0usize..6,
    ) {
        let topo = Arc::new(TopologyBuilder::new("p").cores_per_cache(4).build());
        let mgr = TaskManager::new(topo);
        let log = Arc::new(std::sync::Mutex::new(Vec::<(usize, usize)>::new()));
        let mut bits = eligibility;
        let handles: Vec<_> = (0..n_tasks)
            .map(|i| {
                // At least the home core; the thief from the seed bit.
                let steal_ok = bits & 1 == 1;
                bits = bits.rotate_right(1) ^ 0x9e3779b97f4a7c15;
                let cpuset = if steal_ok {
                    CpuSet::from_iter([0, 1])
                } else {
                    CpuSet::single(1)
                };
                let log = log.clone();
                mgr.task(move |ctx| {
                        log.lock().unwrap().push((ctx.core, i));
                        TaskStatus::Done
                    }).cpuset(cpuset).on_core(1).spawn()
            })
            .collect();

        for _ in 0..n_probes {
            // A steal probe from the idle thief (budget-capped so several
            // probes interleave with the later drain).
            mgr.schedule_batch(0, 3);
        }
        let mut spins = 0;
        while handles.iter().any(|h| !h.is_complete()) {
            mgr.schedule(1);
            spins += 1;
            prop_assert!(spins < 10_000, "home core failed to drain");
        }

        let log = log.lock().unwrap();
        prop_assert_eq!(log.len(), n_tasks, "every task ran exactly once");
        let survivors: Vec<usize> = log
            .iter()
            .filter(|&&(core, _)| core == 1)
            .map(|&(_, i)| i)
            .collect();
        prop_assert!(
            survivors.windows(2).all(|w| w[0] < w[1]),
            "home core saw non-stolen tasks out of submission order: {:?}",
            survivors
        );
        // And the stolen ones were the *oldest eligible* at each probe —
        // at minimum, stolen tasks must all have admitted the thief.
        for &(core, i) in log.iter() {
            if core == 0 {
                prop_assert!(
                    mgr.stats().stolen_by_core[0] > 0,
                    "task {} ran on the thief without a recorded steal", i
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Real-thread interleavings of push (submission), pop (home-core
    /// drains), and steal (sibling drains): no task lost, none
    /// duplicated. Producer threads home every task on core 0 with a
    /// multi-core cpuset; consumer threads hammer keypoints on *all*
    /// cores concurrently, so local batched pops race steal-half probes
    /// on the same queue throughout. The vendored proptest RNG is seeded
    /// from the test name (deterministic), and iterations are bounded by
    /// the case count above.
    #[test]
    fn push_pop_steal_interleaving_loses_and_duplicates_nothing(
        n_producers in 1usize..4,
        tasks_per_producer in 1usize..30,
        n_consumers in 1usize..4,
    ) {
        let topo = Arc::new(TopologyBuilder::new("p").cores_per_cache(4).build());
        let mgr = TaskManager::new(topo);
        let total = n_producers * tasks_per_producer;
        let runs = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicU64::new(0));

        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for _ in 0..n_producers {
                let mgr = mgr.clone();
                let runs = runs.clone();
                handles.push(s.spawn(move || {
                    (0..tasks_per_producer)
                        .map(|_| {
                            let runs = runs.clone();
                            mgr.task(move |_| {
                                    runs.fetch_add(1, Ordering::SeqCst);
                                    TaskStatus::Done
                                }).cpuset(CpuSet::first_n(4)).on_core(0).spawn()
                        })
                        .collect::<Vec<_>>()
                }));
            }
            for consumer in 0..n_consumers {
                let mgr = mgr.clone();
                let done = done.clone();
                s.spawn(move || {
                    // Each consumer sweeps every core, so home-core pops
                    // and cross-core steals interleave freely.
                    while done.load(Ordering::SeqCst) == 0 {
                        let mut ran = 0;
                        for core in 0..4 {
                            ran += mgr.schedule_batch(core, 1 + consumer);
                        }
                        if ran == 0 {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let mut all = Vec::new();
            for h in handles {
                all.extend(h.join().unwrap());
            }
            for h in &all {
                h.wait().unwrap();
            }
            done.store(1, Ordering::SeqCst);
            assert!(all.iter().all(|h| h.is_complete()));
        });

        prop_assert_eq!(runs.load(Ordering::SeqCst) as usize, total, "each task ran exactly once");
        let stats = mgr.stats();
        prop_assert_eq!(stats.total_executed() as usize, total);
        prop_assert_eq!(mgr.pending_tasks(), 0);
    }
}

/// `cargo miri test -p pioman hist` matches the histogram properties by
/// name; shrink the case count and stream length so the interpreted run
/// stays in CI budget while still crossing the linear/log bucket boundary.
const HIST_CASES: u32 = if cfg!(miri) { 2 } else { 32 };
const HIST_MAX_STREAM: usize = if cfg!(miri) { 24 } else { 256 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(HIST_CASES))]

    /// The histogram's sharding contract: for any stream of
    /// `(slot, value)` records, folding the
    /// shards yields byte-for-byte the snapshot a single-shard histogram
    /// produces from the same stream — sharding changes cache-line
    /// traffic, never the distribution.
    #[test]
    fn hist_shard_fold_matches_single_shard(
        shards in 1usize..=8,
        stream in proptest::collection::vec((0usize..16, 0u64..2_000_000), 1..HIST_MAX_STREAM),
    ) {
        use pioman::hist::Histogram;
        let sharded = Histogram::new(shards);
        let single = Histogram::new(1);
        for &(slot, v) in &stream {
            sharded.record_at(slot, v);
            single.record_at(0, v);
        }
        prop_assert_eq!(sharded.snapshot(), single.snapshot());
    }

    /// The histogram's accuracy contract, against the exact reservoir in
    /// `piom_des::stats` as sequential oracle: every quantile is within
    /// the documented half-bucket relative error (1/2^(SUB_BITS+1), +1
    /// for integer rounding), count/mean/max are exact.
    #[test]
    fn hist_quantiles_match_exact_reservoir(
        samples in proptest::collection::vec(0u64..10_000_000, 1..(2 * HIST_MAX_STREAM)),
    ) {
        use pioman::hist::{Histogram, Percentiles, SUB_BITS};
        let h = Histogram::new(4);
        let mut oracle = Percentiles::new();
        for (i, &v) in samples.iter().enumerate() {
            h.record_at(i % 4, v);
            oracle.push(v as f64);
        }
        let snap = h.snapshot();
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = oracle.quantile(q).expect("nonempty");
            let approx = snap.quantile(q).expect("nonempty") as f64;
            let bound = exact / (1u64 << (SUB_BITS + 1)) as f64 + 1.0;
            prop_assert!(
                (approx - exact).abs() <= bound,
                "q={} exact={} approx={} bound={}", q, exact, approx, bound
            );
        }
        let exact = oracle.summary();
        prop_assert_eq!(snap.count(), exact.count);
        prop_assert!((snap.mean() - exact.mean).abs() <= 1e-6 * (1.0 + exact.mean));
        prop_assert_eq!(snap.summary().max, exact.max, "max is tracked exactly");
    }
}
