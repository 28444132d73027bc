//! Property tests: no task is ever lost, duplicated, or run on a forbidden
//! core, across random topologies and cpusets.

use piom_cpuset::CpuSet;
use piom_topology::TopologyBuilder;
use pioman::{TaskManager, TaskStatus};
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
