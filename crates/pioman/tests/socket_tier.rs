//! Deterministic coverage of the per-socket overflow tier (PR 10,
//! `docs/SCHEDULER.md` "Hierarchy"): spill escalation, the
//! core → socket → global claim rung, and the starved 1024-core fabric.
//!
//! Everything here drives keypoints by hand — no progression workers, no
//! timing dependence. The counters asserted (`spilled`, `claimed`) are
//! exact per run; what the same paths *cost* is
//! the repo benchmark's `burst_mixed` workload and its
//! `pioman.spill_claim_ns_per_task` / `steal_ns_per_task` probes.

use piom_cpuset::CpuSet;
use piom_topology::presets;
use pioman::{ManagerConfig, TaskClass, TaskManager, TaskStatus};
use std::sync::{Arc, Mutex};

/// The scaling-study acceptance scenario on the full 1024-core fabric:
/// socket 3 is completely starved while socket 0 holds a backlog its
/// cores may run. The starved core's keypoints must drain it via
/// hierarchical stealing — the home core never runs a thing.
#[test]
fn quad_socket_1024_starved_socket_drains_via_hierarchical_steal() {
    let mgr = TaskManager::new(presets::quad_socket_1024().into());
    assert_eq!(mgr.stats().sockets.len(), 4, "one tier entry per NUMA node");

    // Socket 3 spans cores 768..1024; 768 is its starved thief.
    let thief = 768;
    let handles: Vec<_> = (0..16)
        .map(|_| {
            mgr.task(|_| TaskStatus::Done)
                .cpuset(CpuSet::from_iter([0, thief]))
                .on_core(0)
                .spawn()
        })
        .collect();

    assert!(!mgr.has_work_for(thief), "socket 3's own path is empty");
    let mut rounds = 0;
    while handles.iter().any(|h| !h.is_complete()) {
        assert!(mgr.schedule(thief), "the keypoint found nothing to steal");
        rounds += 1;
        assert!(rounds <= 16, "steal-half should drain 16 tasks quickly");
    }

    let stats = mgr.stats();
    assert_eq!(stats.stolen_by_core[thief], 16, "all 16 came via steals");
    assert_eq!(stats.executed_by_core[0], 0, "the home core never ran");
}

/// The scaling ladder, 256 → 512 → 1024 cores: a 256-task machine-wide
/// backlog homed on a starved core 0 with a low spill threshold, so
/// dispatch pushes most of it through the socket tier. The drain cast is
/// core 1 (a home-socket sibling, claiming from the overflow) plus the
/// first core of every remote socket (cross-socket thieves), so one drain
/// exercises spill, claim *and* steal on the same backlog at every rung.
/// Afterwards every overflow span has decayed: a stale one would send the
/// socket's cores to lock an empty overflow.
#[test]
fn scaling_ladder_spills_claims_and_steals_in_one_drain_at_every_rung() {
    for (name, topo) in [
        ("dual_socket_256", presets::dual_socket_256()),
        ("quad_socket_512", presets::quad_socket_512()),
        ("quad_socket_1024", presets::quad_socket_1024()),
    ] {
        let mgr = TaskManager::with_config(
            topo.into(),
            ManagerConfig {
                spill_threshold: 16,
                ..ManagerConfig::default()
            },
        );
        let n_cores = mgr.topology().n_cores();
        let sockets = mgr.stats().sockets;
        assert!(sockets.len() >= 2, "{name} must be multi-socket");
        let mut drainers = vec![1];
        drainers.extend(
            sockets
                .iter()
                .filter(|s| !s.cpuset.contains(0))
                .map(|s| s.cpuset.iter().next().expect("socket has cores")),
        );

        let handles: Vec<_> = (0..256)
            .map(|_| {
                mgr.task(|_| TaskStatus::Done)
                    .cpuset(CpuSet::first_n(n_cores))
                    .on_core(0)
                    .spawn()
            })
            .collect();
        let mut rounds = 0;
        while handles.iter().any(|h| !h.is_complete()) {
            for &core in &drainers {
                mgr.schedule(core);
            }
            rounds += 1;
            assert!(rounds <= 256, "{name}: no drain via cores {drainers:?}");
        }

        let stats = mgr.stats();
        assert!(stats.total_spilled() > 0, "{name}: the backlog must spill");
        assert!(stats.total_claimed() > 0, "{name}: spills drain via claims");
        assert!(stats.total_stolen() > 0, "{name}: the residue is stolen");
        assert_eq!(stats.executed_by_core[0], 0, "{name}: core 0 is starved");
        // Each run counts once, on the queue or the overflow that handed
        // it out: a spilled-then-claimed task counts as a claim only.
        let by_queue: u64 = stats.queues.iter().map(|q| q.executed).sum();
        assert_eq!(
            by_queue + stats.total_claimed(),
            stats.total_executed(),
            "{name}: queue hand-outs + overflow claims = runs"
        );
        assert_eq!(
            stats.total_executed(),
            stats.executed_by_class.iter().sum::<u64>()
        );
        assert_eq!(mgr.pending_tasks(), 0, "{name}: the fabric is drained");
        assert!(
            stats.sockets.iter().all(|s| s.overflow_span.is_empty()),
            "{name}: a drained overflow keeps a stale span"
        );
    }
}

/// Spill escalation end-to-end with stealing disabled, isolating the
/// claim rung: a per-core queue that out-runs `spill_threshold` moves
/// half its backlog into the socket overflow, where a *sibling* core's
/// ordinary hierarchy walk claims it — no steal machinery involved.
#[test]
fn deep_queue_spills_and_a_sibling_claims_without_stealing() {
    let mgr = TaskManager::with_config(
        presets::dual_socket_256().into(),
        ManagerConfig {
            steal: false,
            spill_threshold: 8,
        },
    );
    let handles: Vec<_> = (0..24)
        .map(|_| {
            mgr.task(|_| TaskStatus::Done)
                .cpuset(CpuSet::from_iter([0, 1]))
                .on_core(0)
                .spawn()
        })
        .collect();

    let spilled = mgr.stats().sockets[0].spilled;
    assert!(
        spilled >= 8,
        "the deep queue must have spilled, got {spilled}"
    );

    // Core 1 shares socket 0 but not core 0's per-core queue: with steal
    // off, everything it runs came through the overflow claim rung.
    let claimed_run = mgr.schedule_batch(1, usize::MAX);
    assert_eq!(claimed_run as u64, spilled, "core 1 claims the whole spill");
    let stats = mgr.stats();
    assert_eq!(stats.sockets[0].claimed, spilled);
    assert_eq!(stats.stolen_by_core[1], 0, "claims are not steals");

    // The unspilled remainder is still home-only; core 0 finishes it.
    while handles.iter().any(|h| !h.is_complete()) {
        assert!(mgr.schedule(0));
    }
    assert_eq!(mgr.stats().total_executed(), 24);
}

/// QoS preservation across the spill boundary: the spill takes the
/// *lowest* class first (urgent work stays on the fast home path), the
/// overflow lanes keep each task's class, and a claiming sibling pops them
/// back in strict class priority, in submission order within a class.
#[test]
fn spill_takes_lowest_class_first_and_claims_preserve_qos_order() {
    let mgr = TaskManager::with_config(
        presets::dual_socket_256().into(),
        ManagerConfig {
            steal: false,
            spill_threshold: 16,
        },
    );
    let order: Arc<Mutex<Vec<(usize, TaskClass, u64)>>> = Arc::default();
    let spawn = |class: TaskClass, tag: u64| {
        let order = order.clone();
        mgr.task(move |ctx| {
            order.lock().unwrap().push((ctx.core, class, tag));
            TaskStatus::Done
        })
        .cpuset(CpuSet::from_iter([0, 1]))
        .on_core(0)
        .class(class)
        .spawn()
    };
    // 8 urgent, then 8 bulk with shuffled tags. The 16th enqueue crosses
    // the threshold and spills half the queue — exactly the 8 bulk tasks,
    // lowest class first.
    for tag in 0..8 {
        spawn(TaskClass::Urgent, tag);
    }
    let bulk_tags = [11u64, 15, 12, 16, 13, 17, 14, 18];
    for &tag in &bulk_tags {
        spawn(TaskClass::Bulk, tag);
    }
    assert_eq!(mgr.stats().sockets[0].spilled, 8);

    // The sibling claims the spilled half; the home core runs the rest.
    assert_eq!(mgr.schedule_batch(1, usize::MAX), 8);
    assert_eq!(mgr.schedule_batch(0, usize::MAX), 8);

    let order = order.lock().unwrap();
    let claimed: Vec<_> = order.iter().filter(|&&(c, _, _)| c == 1).collect();
    assert!(
        claimed
            .iter()
            .all(|&&(_, class, _)| class == TaskClass::Bulk),
        "only the lowest class spilled; urgent work stayed home"
    );
    let tags: Vec<u64> = claimed.iter().map(|&&(_, _, t)| t).collect();
    assert_eq!(tags, bulk_tags, "claims keep submission order");
    let home: Vec<_> = order.iter().filter(|&&(c, _, _)| c == 0).collect();
    let home_tags: Vec<u64> = home.iter().map(|&&(_, _, t)| t).collect();
    assert!(
        home.iter()
            .all(|&&(_, class, _)| class == TaskClass::Urgent),
        "the home queue kept every urgent task"
    );
    assert_eq!(home_tags, (0..8).collect::<Vec<_>>(), "in submission order");
}

/// The strict core → socket → global drain order of one keypoint: a core
/// with backlog at all three rungs runs its own queue first, then claims
/// the socket overflow, then falls through to the Global Queue.
#[test]
fn keypoint_drains_core_then_socket_overflow_then_global() {
    let mgr = TaskManager::with_config(
        presets::dual_socket_256().into(),
        ManagerConfig {
            steal: false,
            spill_threshold: 4,
        },
    );
    let order: Arc<Mutex<Vec<&'static str>>> = Arc::default();
    let tag = |label: &'static str| {
        let order = order.clone();
        move |_: &pioman::TaskContext<'_>| {
            order.lock().unwrap().push(label);
            TaskStatus::Done
        }
    };

    // Overflow rung: a sibling's deep queue spills into socket 0.
    for _ in 0..8 {
        mgr.task(tag("overflow"))
            .cpuset(CpuSet::from_iter([0, 1]))
            .on_core(1)
            .spawn();
    }
    let spilled = mgr.stats().sockets[0].spilled;
    assert!(spilled >= 4);
    // Core rung: core 0's own queue, shallow enough not to spill.
    for _ in 0..3 {
        mgr.task(tag("own")).cpuset(CpuSet::single(0)).spawn();
    }
    // Global rung: the default cpuset (every core) lands on the root.
    for _ in 0..3 {
        mgr.task(tag("global")).spawn();
    }

    let ran = mgr.schedule_batch(0, usize::MAX);
    assert_eq!(ran as u64, 3 + spilled + 3);
    let order = order.lock().unwrap();
    let boundary_own = 3;
    let boundary_ovf = boundary_own + spilled as usize;
    assert!(order[..boundary_own].iter().all(|&l| l == "own"));
    assert!(order[boundary_own..boundary_ovf]
        .iter()
        .all(|&l| l == "overflow"));
    assert!(order[boundary_ovf..].iter().all(|&l| l == "global"));
}

/// One socket ⇒ tier inert: a tree with a single socket has no "whole
/// socket" distinct from the machine, so even at threshold 1 nothing
/// spills or is claimed — and the queue paths still drain everything.
#[test]
fn disabled_tier_never_spills_and_work_still_completes() {
    let mgr = TaskManager::with_config(
        presets::symmetric(1, 1, 2).into(),
        ManagerConfig {
            spill_threshold: 1,
            ..ManagerConfig::default()
        },
    );
    assert_eq!(mgr.stats().sockets.len(), 1);
    let handles: Vec<_> = (0..32)
        .map(|_| {
            mgr.task(|_| TaskStatus::Done)
                .cpuset(CpuSet::from_iter([0, 1]))
                .on_core(0)
                .spawn()
        })
        .collect();
    let stats = mgr.stats();
    assert_eq!(stats.total_spilled(), 0, "threshold 1 but the tier is off");
    while handles.iter().any(|h| !h.is_complete()) {
        mgr.schedule(0);
        mgr.schedule(1);
    }
    assert_eq!(mgr.stats().total_claimed(), 0);
}

/// The overflow is an ordinary spinlocked queue, and its lock is
/// observable: every spill batch lands under one acquisition, a claim
/// keypoint takes at most one, and a cross-socket overflow steal takes
/// one — stealing *in place*, so tasks whose cpuset excludes the thief
/// stay in the overflow, in order, instead of bouncing to their home
/// queue.
#[test]
fn overflow_lock_is_taken_once_per_batch_and_steals_leave_ineligible_tasks_in_place() {
    let mgr = TaskManager::with_config(
        presets::dual_socket_256().into(),
        ManagerConfig {
            spill_threshold: 8,
            ..ManagerConfig::default()
        },
    );
    let thief = 128; // first core of socket 1
    let order: Arc<Mutex<Vec<(usize, usize)>>> = Arc::default();
    // 16 same-class tasks homed on core 0; the even ones admit the thief.
    // Every fourth enqueue from the 8th on spills the 4 oldest: the
    // overflow ends up holding tasks 0..12, the home queue 12..16.
    for i in 0..16 {
        let cpuset = if i % 2 == 0 {
            CpuSet::from_iter([0, 1, thief])
        } else {
            CpuSet::from_iter([0, 1])
        };
        let order = order.clone();
        mgr.task(move |ctx| {
            order.lock().unwrap().push((ctx.core, i));
            TaskStatus::Done
        })
        .cpuset(cpuset)
        .on_core(0)
        .spawn();
    }
    let home = mgr.topology().core_node(0).index();
    let stats = mgr.stats();
    assert_eq!(stats.sockets[0].spilled, 12);
    assert_eq!(stats.sockets[0].overflow_pending, 12);
    assert_eq!(
        stats.sockets[0].overflow_lock_acquisitions, 3,
        "three spill batches, one overflow-lock acquisition each"
    );

    // The remote thief steals half of the 6 tasks that admit it.
    assert!(mgr.schedule(thief));
    let stats = mgr.stats();
    assert_eq!(stats.stolen_by_core[thief], 3);
    assert_eq!(stats.sockets[0].claimed, 3);
    assert_eq!(stats.sockets[0].overflow_lock_acquisitions, 4);
    assert_eq!(
        stats.sockets[0].overflow_pending, 9,
        "everything the thief could not or did not take is still there"
    );
    assert_eq!(
        stats.queues[home].pending, 4,
        "no ineligible task bounced to its home queue"
    );

    // A member core's keypoint claims the rest under one acquisition, in
    // the order the tasks were spilled — the steal rotated nothing.
    assert_eq!(mgr.schedule_batch(1, usize::MAX), 9);
    let stats = mgr.stats();
    assert_eq!(stats.sockets[0].overflow_lock_acquisitions, 5);
    assert_eq!(stats.sockets[0].overflow_lock_contended, 0);
    assert_eq!(stats.sockets[0].claimed, 12);
    let order = order.lock().unwrap();
    let ran_on = |core: usize| -> Vec<usize> {
        order
            .iter()
            .filter(|&&(c, _)| c == core)
            .map(|&(_, i)| i)
            .collect()
    };
    assert_eq!(ran_on(thief), vec![0, 2, 4], "the oldest eligible half");
    assert_eq!(ran_on(1), vec![1, 3, 5, 6, 7, 8, 9, 10, 11]);
    drop(order);

    // An empty overflow is detected by the unlocked hint: no acquisition.
    mgr.schedule_batch(1, usize::MAX);
    assert_eq!(mgr.stats().sockets[0].overflow_lock_acquisitions, 5);
}
