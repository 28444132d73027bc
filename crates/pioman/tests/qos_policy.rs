//! The QoS-tier scheduling contract, pinned from outside the crate:
//!
//! * a **sequential oracle** — an independent reimplementation of the
//!   documented lane policy (docs/SCHEDULER.md, "QoS tiers") — must agree
//!   with the scheduler on the exact service order of any single-threaded
//!   push/pop interleaving (property-tested);
//! * the anti-starvation bound is **exact** when driven sequentially: a
//!   waiting `Background` task is served on the pop after
//!   [`BACKGROUND_BYPASS_LIMIT`] higher-class bypasses, not before, not
//!   after;
//! * dependency releases fire **exactly once** per dependent, however the
//!   predecessor completions race across real threads.

use parking_lot::Mutex;
use piom_cpuset::CpuSet;
use piom_topology::TopologyBuilder;
use pioman::{
    ManagerConfig, TaskClass, TaskManager, TaskStatus, BACKGROUND_BYPASS_LIMIT, CLASS_COUNT,
};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A single-core machine: every submission lands in core 0's queue, so the
/// observed execution order *is* the queue's pop order.
fn single_core_mgr() -> Arc<TaskManager> {
    TaskManager::new(Arc::new(
        TopologyBuilder::new("one")
            .numa_nodes(1)
            .chips_per_numa(1)
            .cores_per_cache(1)
            .build(),
    ))
}

/// Independent sequential model of the lane policy. Deliberately written
/// from the *documented* contract, not from the scheduler's code: one FIFO
/// per class; classes are served in strict priority order except that
/// after `BACKGROUND_BYPASS_LIMIT` pops that bypassed waiting Background
/// work, the next pop serves Background.
#[derive(Default)]
struct Oracle {
    classes: [VecDeque<usize>; CLASS_COUNT],
    credit: u32,
}

impl Oracle {
    fn push(&mut self, id: usize, class: TaskClass) {
        self.classes[class.index()].push_back(id);
    }

    fn len(&self) -> usize {
        self.classes.iter().map(VecDeque::len).sum()
    }

    /// The spill pop (`TaskQueue::spill_lowest`): lowest class first,
    /// oldest first within it, and no bypass-credit movement — a spill
    /// relocates work, it serves nothing.
    fn pop_lowest(&mut self) -> Option<usize> {
        self.classes.iter_mut().rev().find_map(VecDeque::pop_front)
    }

    fn pop(&mut self) -> Option<usize> {
        let background = TaskClass::Background.index();
        let background_waiting = !self.classes[background].is_empty();
        let mut order: Vec<usize> = (0..CLASS_COUNT).collect();
        if background_waiting && self.credit >= BACKGROUND_BYPASS_LIMIT {
            order.rotate_right(1); // Background first, then strict order.
        }
        for class in order {
            if let Some(id) = self.classes[class].pop_front() {
                if class == background {
                    self.credit = 0;
                } else if background_waiting {
                    self.credit += 1;
                }
                return Some(id);
            }
        }
        None
    }
}

/// Decodes a selector into an op: 0–3 push that class, 4–5 pop.
fn decode_op(selector: usize) -> Option<TaskClass> {
    TaskClass::ALL.get(selector).copied()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The scheduler serves any sequential push/pop interleaving in
    /// exactly the oracle's order.
    #[test]
    fn pop_policy_matches_the_sequential_oracle(
        raw_ops in proptest::collection::vec(0usize..6, 1..80),
    ) {
        let mgr = single_core_mgr();
        let ran = Arc::new(Mutex::new(Vec::new()));
        let mut oracle = Oracle::default();
        let mut expected = Vec::new();
        let mut next_id = 0usize;
        for &selector in &raw_ops {
            match decode_op(selector) {
                Some(class) => {
                    let id = next_id;
                    next_id += 1;
                    oracle.push(id, class);
                    let r = ran.clone();
                    mgr.task(move |_| {
                        r.lock().push(id);
                        TaskStatus::Done
                    })
                    .cpuset(CpuSet::single(0))
                    .class(class)
                    .spawn();
                }
                None => {
                    if let Some(id) = oracle.pop() {
                        expected.push(id);
                        prop_assert_eq!(mgr.schedule_batch(0, 1), 1, "oracle has work, so must the queue");
                    } else {
                        prop_assert_eq!(mgr.schedule_batch(0, 1), 0, "oracle is empty, so must be the queue");
                    }
                }
            }
        }
        // Drain what is left; the tails must agree too.
        while let Some(id) = oracle.pop() {
            expected.push(id);
            prop_assert_eq!(mgr.schedule_batch(0, 1), 1);
        }
        prop_assert_eq!(mgr.schedule_batch(0, 1), 0);
        prop_assert_eq!(&*ran.lock(), &expected, "diverged from the oracle");
    }

    /// The oracle property *across the spill boundary* (PR 10): on a
    /// two-socket machine whose overflow tier is live, any push/pop
    /// interleaving that drives the home queue over `spill_threshold`
    /// must still serve in the composed model's order — the home queue's
    /// QoS pop first, then the socket overflow's QoS pop over whatever
    /// the spills relocated (lowest class first, oldest first within it).
    /// Stealing is off, so the claim rung is the only path back.
    #[test]
    fn spill_and_claim_path_matches_the_sequential_oracle(
        raw_ops in proptest::collection::vec(0usize..6, 1..120),
        threshold in 2usize..10,
    ) {
        let topo = Arc::new(
            TopologyBuilder::new("two-socket")
                .numa_nodes(2)
                .chips_per_numa(1)
                .cores_per_cache(1)
                .build(),
        );
        let mgr = TaskManager::with_config(
            topo,
            ManagerConfig {
                steal: false,
                spill_threshold: threshold,
            },
        );
        let ran = Arc::new(Mutex::new(Vec::new()));
        let mut home = Oracle::default();
        let mut ovf = Oracle::default();
        let mut meta: Vec<TaskClass> = Vec::new();
        let mut expected = Vec::new();
        let (mut spilled_model, mut claimed_model) = (0u64, 0u64);
        let mut drive = |home: &mut Oracle, ovf: &mut Oracle, expected: &mut Vec<usize>| {
            let from_home = home.pop();
            let id = from_home.or_else(|| ovf.pop());
            if let Some(id) = id {
                expected.push(id);
                if from_home.is_none() {
                    claimed_model += 1;
                }
            }
            id.is_some()
        };
        for &selector in &raw_ops {
            match decode_op(selector) {
                Some(class) => {
                    let id = meta.len();
                    meta.push(class);
                    home.push(id, class);
                    let r = ran.clone();
                    mgr.task(move |_| {
                        r.lock().push(id);
                        TaskStatus::Done
                    })
                    .cpuset(CpuSet::single(0))
                    .class(class)
                    .spawn();
                    // Model the dispatch-time escalation: at or over the
                    // threshold, half the post-push depth spills, lowest
                    // class first, preserving class.
                    let depth = home.len();
                    if depth >= threshold {
                        for _ in 0..depth / 2 {
                            let moved = home.pop_lowest().expect("depth accounted");
                            ovf.push(moved, meta[moved]);
                            spilled_model += 1;
                        }
                    }
                }
                None => {
                    if drive(&mut home, &mut ovf, &mut expected) {
                        prop_assert_eq!(mgr.schedule_batch(0, 1), 1, "oracle has work, so must the queue");
                    } else {
                        prop_assert_eq!(mgr.schedule_batch(0, 1), 0, "oracle is empty, so must be the queue");
                    }
                }
            }
        }
        while drive(&mut home, &mut ovf, &mut expected) {
            prop_assert_eq!(mgr.schedule_batch(0, 1), 1);
        }
        prop_assert_eq!(mgr.schedule_batch(0, 1), 0);
        prop_assert_eq!(&*ran.lock(), &expected, "diverged across the spill boundary");
        let stats = mgr.stats();
        prop_assert_eq!(stats.total_spilled(), spilled_model, "spill count drifted");
        prop_assert_eq!(stats.total_claimed(), claimed_model, "claim count drifted");
    }
}

#[test]
fn background_bypass_bound_is_exact_when_driven_sequentially() {
    // 1 Background + (LIMIT + 8) Interactive tasks, popped one at a time:
    // the Background task must run as pop number LIMIT + 1 (0-indexed
    // position LIMIT) — after exactly LIMIT bypasses, before any further
    // Interactive work. This pins the starvation bound stated in
    // docs/SCHEDULER.md; a drift in either direction fails.
    let limit = BACKGROUND_BYPASS_LIMIT as usize;
    let mgr = single_core_mgr();
    let ran: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
    let r = ran.clone();
    mgr.task(move |_| {
        r.lock().push("background");
        TaskStatus::Done
    })
    .cpuset(CpuSet::single(0))
    .class(TaskClass::Background)
    .spawn();
    for _ in 0..limit + 8 {
        let r = ran.clone();
        mgr.task(move |_| {
            r.lock().push("interactive");
            TaskStatus::Done
        })
        .cpuset(CpuSet::single(0))
        .spawn();
    }
    while mgr.schedule_batch(0, 1) == 1 {}
    let order = ran.lock();
    let position = order
        .iter()
        .position(|&name| name == "background")
        .expect("background ran");
    assert_eq!(
        position, limit,
        "background served after exactly {limit} bypasses"
    );
}

#[test]
fn racing_predecessor_completions_release_exactly_once() {
    // Two predecessors complete concurrently on two real threads; their
    // shared dependent must be dispatched exactly once. 200 rounds of the
    // race.
    for round in 0..200 {
        let topo = Arc::new(
            TopologyBuilder::new("two")
                .numa_nodes(1)
                .chips_per_numa(1)
                .cores_per_cache(2)
                .build(),
        );
        let mgr = TaskManager::with_config(
            topo,
            ManagerConfig {
                steal: false, // keep each predecessor on its own core
                ..ManagerConfig::default()
            },
        );
        let runs = Arc::new(AtomicUsize::new(0));
        let a = mgr
            .task(|_| TaskStatus::Done)
            .cpuset(CpuSet::single(0))
            .spawn();
        let b = mgr
            .task(|_| TaskStatus::Done)
            .cpuset(CpuSet::single(1))
            .spawn();
        let n = runs.clone();
        let dependent = mgr
            .task(move |_| {
                n.fetch_add(1, Ordering::SeqCst);
                TaskStatus::Done
            })
            .cpuset(CpuSet::from_iter([0, 1]))
            .after(&a)
            .after(&b)
            .spawn();
        std::thread::scope(|s| {
            for core in [0usize, 1] {
                let mgr = &mgr;
                let dependent = &dependent;
                s.spawn(move || {
                    while !dependent.is_complete() {
                        if !mgr.schedule(core) {
                            std::hint::spin_loop();
                        }
                    }
                });
            }
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1, "round {round}: ran once");
        let stats = mgr.stats();
        assert_eq!(
            stats.total_waitlist_released(),
            1,
            "round {round}: released once"
        );
        assert_eq!(stats.waitlist_released_by_class, [0, 1, 0, 0]);
    }
}

#[test]
fn chained_pipeline_preserves_order_and_counts_releases() {
    // a -> b -> c -> d across classes: each stage waits for the previous,
    // so the execution order is the chain order even though the classes
    // alone would reorder them.
    let mgr = single_core_mgr();
    let ran: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
    let push = |name: &'static str| {
        let r = ran.clone();
        move |_: &pioman::TaskContext<'_>| {
            r.lock().push(name);
            TaskStatus::Done
        }
    };
    let a = mgr
        .task(push("bulk"))
        .cpuset(CpuSet::single(0))
        .class(TaskClass::Bulk)
        .spawn();
    let b = mgr
        .task(push("urgent"))
        .cpuset(CpuSet::single(0))
        .class(TaskClass::Urgent)
        .after(&a)
        .spawn();
    let c = mgr
        .task(push("background"))
        .cpuset(CpuSet::single(0))
        .class(TaskClass::Background)
        .after(&b)
        .spawn();
    let d = mgr
        .task(push("interactive"))
        .cpuset(CpuSet::single(0))
        .after(&c)
        .spawn();
    while mgr.schedule_batch(0, 1) == 1 {}
    assert!(d.is_complete());
    assert_eq!(
        *ran.lock(),
        vec!["bulk", "urgent", "background", "interactive"]
    );
    assert_eq!(
        mgr.stats().waitlist_released_by_class,
        [1, 1, 0, 1],
        "each dependent stage counted in its own class"
    );
}
