//! Per-layer probes: each layer timed in isolation from the benchmark's
//! side, by calling its public functions. Layers are the crates.
//!
//! Every timing is a median. A call short enough for the clock to matter
//! is either timed in a batch (N calls per clock pair) or, where each call
//! needs untimed set-up in between, timed alone with the calibrated cost of
//! one clock pair (`trace.clock_pair_ns`) taken off. The probes run in
//! every traced run, whatever the workload: they are the same ruler beside
//! each workload's own counters.

use crate::stats::{median, quartiles};
use bytes::{Bytes, Rope};
use crossbeam::queue::SegQueue;
use newmadeleine::wire::{EagerPart, Wire};
use newmadeleine::{rails, CommEngine, EngineConfig};
use piom_des::{Sim, SimTime};
use piom_net::{Message, NetParams, Network};
use pioman::{
    presets, CpuSet, Progression, ProgressionConfig, TaskClass, TaskManager, TaskStatus, Topology,
    MAX_BATCH,
};
use std::hint::black_box;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type Metrics = Vec<(&'static str, f64)>;

/// Fewest samples a median is taken over, whatever the budget.
const MIN_SAMPLES: usize = 15;

pub struct Probe {
    /// Time each median may spend gathering samples.
    budget: Duration,
    /// Median distance between two back-to-back `Instant::now()` reads.
    pub clock_pair_ns: f64,
}

impl Probe {
    pub fn new(budget: Duration) -> Self {
        // What a timed call pays for being timed is the distance between
        // two back-to-back reads. 500 such distances under one outer pair,
        // so the result is not quantised to whole nanoseconds.
        let pairs: Vec<f64> = (0..201)
            .map(|_| {
                let first = Instant::now();
                let mut last = first;
                for _ in 0..500 {
                    last = black_box(Instant::now());
                }
                (last - first).as_nanos() as f64 / 500.0
            })
            .collect();
        Probe {
            budget,
            clock_pair_ns: median(&pairs),
        }
    }

    /// Column-wise medians of the rows `sample` yields until the budget is
    /// spent (and at least `min` rows are in).
    fn medians_of<const N: usize>(
        &self,
        min: usize,
        mut sample: impl FnMut() -> [f64; N],
    ) -> [f64; N] {
        let mut columns: [Vec<f64>; N] = std::array::from_fn(|_| Vec::new());
        let start = Instant::now();
        while columns[0].len() < min || start.elapsed() < self.budget {
            for (column, value) in columns.iter_mut().zip(sample()) {
                column.push(value);
            }
        }
        columns.map(|c| median(&c))
    }

    fn medians<const N: usize>(&self, sample: impl FnMut() -> [f64; N]) -> [f64; N] {
        self.medians_of(MIN_SAMPLES, sample)
    }

    fn median(&self, mut sample: impl FnMut() -> f64) -> f64 {
        self.medians(|| [sample()])[0]
    }

    /// Nanoseconds of one call, clock pair taken off.
    fn call<R>(&self, f: impl FnOnce() -> R) -> (f64, R) {
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as f64;
        ((ns - self.clock_pair_ns).max(0.0), r)
    }
}

/// Nanoseconds per call over `n` calls under one clock pair.
fn batched(n: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..n {
        f();
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

fn kwak() -> Arc<TaskManager> {
    TaskManager::new(presets::kwak().into())
}

fn done(_: &pioman::TaskContext<'_>) -> TaskStatus {
    TaskStatus::Done
}

/// The scheduler's submit / run / batch / steal / spill / waitlist paths.
fn pioman_paths(p: &Probe, out: &mut Metrics) {
    const CORE: usize = 5;
    let mgr = kwak();

    // spawn + schedule at depth 1, per queue level — the two halves of an
    // `inline_roundtrip` op.
    let levels: [(Option<CpuSet>, [&'static str; 2]); 3] = [
        (
            Some(CpuSet::single(CORE)),
            ["pioman.spawn_ns.core", "pioman.schedule_hit_ns.core"],
        ),
        (
            Some(CpuSet::range(4..8)),
            ["pioman.spawn_ns.numa", "pioman.schedule_hit_ns.numa"],
        ),
        (
            None,
            ["pioman.spawn_ns.global", "pioman.schedule_hit_ns.global"],
        ),
    ];
    for (cpuset, names) in levels {
        let ns = p.medians(|| {
            let (spawn, handle) = p.call(|| match cpuset {
                Some(set) => mgr.task(done).cpuset(set).spawn(),
                None => mgr.task(done).spawn(),
            });
            let (hit, _) = p.call(|| mgr.schedule(CORE));
            assert!(handle.is_complete(), "probe task did not run");
            [spawn, hit]
        });
        out.extend(names.into_iter().zip(ns));
    }

    // schedule() on an empty hierarchy: path scan + steal probe.
    out.push((
        "pioman.schedule_miss_ns",
        p.median(|| {
            batched(32, || {
                black_box(mgr.schedule(CORE));
            })
        }),
    ));

    // One `Again` run + re-enqueue of a repeat task.
    {
        let mgr = kwak();
        let _poll = mgr
            .task(|_| TaskStatus::Again)
            .cpuset(CpuSet::single(CORE))
            .repeat()
            .spawn();
        out.push((
            "pioman.repeat_rerun_ns",
            p.median(|| {
                batched(32, || {
                    black_box(mgr.schedule(CORE));
                })
            }),
        ));
    }

    // Batch drain of a 256-deep per-core backlog, and the budget call that
    // sizes it (asked while the backlog is there).
    let fill = |n: usize, home: Option<usize>| {
        for _ in 0..n {
            match home {
                Some(core) => mgr
                    .task(done)
                    .cpuset(CpuSet::range(0..4))
                    .on_core(core)
                    .spawn(),
                None => mgr.task(done).cpuset(CpuSet::single(0)).spawn(),
            };
        }
    };
    let [budget, drain] = p.medians(|| {
        fill(256, None);
        let budget = batched(32, || {
            black_box(mgr.adaptive_budget(0));
        });
        let (ns, ran) = p.call(|| mgr.schedule_batch(0, 256));
        assert_eq!(ran, 256, "probe backlog drained in one batch");
        [budget, ns / 256.0]
    });
    out.push(("pioman.adaptive_budget_ns", budget));
    out.push(("pioman.batch_drain_ns_per_task", drain));

    // A thief's schedule_batch on a sibling's backlog (steal-half).
    out.push((
        "pioman.steal_ns_per_task",
        p.median(|| {
            fill(256, Some(0));
            let (ns, stolen) = p.call(|| mgr.schedule_batch(1, MAX_BATCH));
            assert!(stolen > 0, "probe thief stole nothing");
            while mgr.schedule_batch(0, MAX_BATCH) > 0 {}
            ns / stolen as f64
        }),
    ));

    // Single-thread enqueue + drain at 1 024 deep (past the 512 spill
    // threshold: spill + claim run) against 256 deep (they do not).
    let deep = |n: usize| {
        p.median(|| {
            let (ns, ()) = p.call(|| {
                fill(n, Some(0));
                while mgr.schedule_batch(0, mgr.adaptive_budget(0)) > 0 {}
            });
            ns / n as f64
        })
    };
    out.push(("pioman.spill_claim_ns_per_task", deep(1024) - deep(256)));

    // Spawn with a pending predecessor (waitlist registration).
    out.push((
        "pioman.after_spawn_ns",
        p.median(|| {
            let pred = mgr.task(done).cpuset(CpuSet::single(CORE)).spawn();
            let ns = batched(32, || {
                black_box(
                    mgr.task(done)
                        .cpuset(CpuSet::single(CORE))
                        .after(&pred)
                        .spawn(),
                );
            });
            while mgr.schedule(CORE) {}
            ns
        }),
    ));

    // What set-up pays for.
    out.push((
        "pioman.stats_snapshot_us",
        p.median(|| batched(8, || drop(black_box(mgr.stats()))) / 1e3),
    ));
    // The 1 024-core manager takes a quarter of a second to build: three
    // builds are all the budget allows.
    let mut manager_new = |name, preset: fn() -> Topology, min| {
        let topo: Arc<Topology> = preset().into();
        let [ms] = p.medians_of(min, || [p.call(|| TaskManager::new(topo.clone())).0 / 1e6]);
        out.push((name, ms));
    };
    manager_new("pioman.manager_new_ms.kwak", presets::kwak, MIN_SAMPLES);
    manager_new(
        "pioman.manager_new_ms.quad_socket_1024",
        presets::quad_socket_1024,
        3,
    );
}

/// Cross-thread hand-off to a hot worker, as in `poll_loopback`: how long a
/// spawned task waits for the worker, and how long its completion takes to
/// reach the spinning client. The stamps are taken inside the benchmark's
/// own task body, so each figure includes one clock read.
fn pioman_handoff(p: &Probe, out: &mut Metrics) {
    const WORKER: usize = 1;
    let mgr = kwak();
    let _prog = Progression::start(mgr.clone(), ProgressionConfig::for_cores(vec![WORKER]));
    // The pending repeat task keeps the worker out of its park path.
    let stop = Arc::new(AtomicBool::new(false));
    let keep_hot = {
        let stop = stop.clone();
        mgr.task(move |_| {
            if stop.load(Ordering::Relaxed) {
                TaskStatus::Done
            } else {
                TaskStatus::Again
            }
        })
        .cpuset(CpuSet::single(WORKER))
        .repeat()
        .spawn()
    };
    let epoch = Instant::now();
    let ns = move || epoch.elapsed().as_nanos() as u64;
    let body = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
    let [queue_wait, notice] = p.medians(|| {
        let stamps = body.clone();
        let handle = mgr
            .task(move |_| {
                stamps[0].store(ns(), Ordering::Relaxed);
                stamps[1].store(ns(), Ordering::Relaxed);
                TaskStatus::Done
            })
            .cpuset(CpuSet::single(WORKER))
            .spawn();
        let returned = ns();
        while !handle.is_complete() {
            std::hint::spin_loop();
        }
        let seen = ns();
        // The completion's Release/Acquire pair publishes the stamps.
        let [start, end] = [0, 1].map(|i| body[i].load(Ordering::Relaxed));
        [
            start.saturating_sub(returned) as f64,
            seen.saturating_sub(end) as f64,
        ]
    });
    out.push(("pioman.queue_wait_ns", queue_wait));
    out.push(("pioman.complete_notice_ns", notice));
    stop.store(true, Ordering::Relaxed);
    keep_hot.wait().expect("probe task panicked");
}

/// Queue wait by class in a `burst_mixed`-shaped backlog drained by one
/// thread: 1 024 tasks, classes 1:2:4:1, spawn return → body start.
fn pioman_class_waits(p: &Probe, out: &mut Metrics) {
    const BURST: usize = 1024;
    use TaskClass::{Background, Bulk, Interactive, Urgent};
    const GROUP: [TaskClass; 8] = [
        Urgent,
        Interactive,
        Bulk,
        Bulk,
        Interactive,
        Bulk,
        Background,
        Bulk,
    ];
    let mgr = kwak();
    let epoch = Instant::now();
    let ns = move || epoch.elapsed().as_nanos() as u64;
    let started: Arc<Vec<AtomicU64>> = Arc::new((0..BURST).map(|_| AtomicU64::new(0)).collect());
    let mut spawned = vec![0u64; BURST];
    let waits = p.medians(|| {
        for (i, at) in spawned.iter_mut().enumerate() {
            let started = started.clone();
            mgr.task(move |_| {
                started[i].store(ns(), Ordering::Relaxed);
                TaskStatus::Done
            })
            .cpuset(CpuSet::range(0..4))
            .on_core(0)
            .class(GROUP[i % GROUP.len()])
            .spawn();
            *at = ns();
        }
        while mgr.schedule_batch(0, mgr.adaptive_budget(0)) > 0 {}
        TaskClass::ALL.map(|class| {
            let waits: Vec<f64> = (0..BURST)
                .filter(|i| GROUP[i % GROUP.len()] == class)
                .map(|i| {
                    started[i]
                        .load(Ordering::Relaxed)
                        .saturating_sub(spawned[i]) as f64
                })
                .collect();
            median(&waits)
        })
    });
    let names = [
        "pioman.class_wait_p50_ns.urgent",
        "pioman.class_wait_p50_ns.interactive",
        "pioman.class_wait_p50_ns.bulk",
        "pioman.class_wait_p50_ns.background",
    ];
    out.extend(names.into_iter().zip(waits));
}

/// Park/wake: host-bound, reported with its spread and gated by nothing.
/// `idle` is how long the parked worker's CPU time is watched.
fn pioman_park_wake(p: &Probe, idle: Duration, out: &mut Metrics) {
    const WORKER: usize = 1;
    let mgr = kwak();
    let _prog = Progression::start(mgr.clone(), ProgressionConfig::for_cores(vec![WORKER]));
    // Longer than the 100 µs park timeout plus the pre-park probes, so the
    // worker is asleep again when the next task arrives.
    let settle = Duration::from_micros(300);
    let rounds = (p.budget.as_nanos() / settle.as_nanos()).clamp(30, 300) as usize;
    let wakes: Vec<f64> = (0..rounds)
        .map(|_| {
            std::thread::sleep(settle);
            p.call(|| {
                mgr.task(done)
                    .cpuset(CpuSet::single(WORKER))
                    .spawn()
                    .wait()
                    .expect("probe task panicked")
            })
            .0
        })
        .collect();
    let [q1, _, q3] = quartiles(&wakes);
    out.push(("pioman.wait_wake_ns", median(&wakes)));
    out.push(("pioman.wait_wake_iqr_ns", q3 - q1));

    // CPU the parked worker burns re-checking its queues every timeout.
    let on_cpu = || worker_cpu_ns(&format!("piom-worker-{WORKER}"));
    let (t0, before) = (Instant::now(), on_cpu());
    std::thread::sleep(idle);
    let (after, wall) = (on_cpu(), t0.elapsed());
    let pct = match (before, after) {
        (Some(b), Some(a)) => 100.0 * (a - b) as f64 / wall.as_nanos() as f64,
        _ => 0.0, // no per-thread schedstat on this kernel
    };
    out.push(("pioman.idle_cpu_pct", pct));
}

/// On-CPU nanoseconds of this process's thread named `name`, from
/// `/proc/self/task/*/schedstat`.
fn worker_cpu_ns(name: &str) -> Option<u64> {
    for task in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
        let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        if comm.trim_end() == name {
            let stat = std::fs::read_to_string(task.path().join("schedstat")).ok()?;
            return stat.split_whitespace().next()?.parse().ok();
        }
    }
    None
}

fn topology_and_cpuset(p: &Probe, out: &mut Metrics) {
    let topo = presets::kwak();
    let numa = CpuSet::range(4..8);
    out.push((
        "topology.smallest_covering_ns",
        p.median(|| {
            batched(64, || {
                black_box(topo.smallest_covering(black_box(&numa)));
            })
        }),
    ));
    out.push((
        "topology.path_to_root_ns",
        p.median(|| {
            batched(64, || {
                black_box(topo.path_to_root(black_box(5)).count());
            })
        }),
    ));
    let all = topo.all_cores();
    out.push((
        "cpuset.intersect_ns",
        p.median(|| {
            batched(64, || {
                black_box(black_box(numa) & black_box(all));
            })
        }),
    ));
}

fn containers(p: &Probe, out: &mut Metrics) {
    let queue: SegQueue<u64> = SegQueue::new();
    out.push((
        "crossbeam.segqueue_push_pop_ns",
        p.median(|| {
            batched(32, || {
                queue.push(black_box(7u64));
                black_box(queue.pop());
            })
        }),
    ));
    let segment = Bytes::from(vec![0xA5u8; 256]);
    out.push((
        "bytes.rope_chain_split_ns",
        p.median(|| {
            batched(8, || {
                let mut rope = Rope::new();
                for _ in 0..16 {
                    rope.push(segment.clone());
                }
                black_box(rope.split_to(rope.len() / 2));
                black_box(rope);
            })
        }),
    ));
}

fn des_and_net(p: &Probe, out: &mut Metrics) {
    let mut sim = Sim::new();
    out.push((
        "des.empty_event_ns",
        p.median(|| {
            batched(32, || {
                sim.schedule(SimTime::ZERO, |_| {});
                sim.step();
            })
        }),
    ));
    let net = Network::new(2, 2, NetParams::infiniband());
    for rail in 0..2 {
        net.nic(1, rail).set_rx_handler(Rc::new(|_, _| {}));
    }
    let mut tag = 0u64;
    out.push((
        "net.send_ns",
        p.median(|| {
            let ns = batched(16, || {
                tag += 1;
                net.send(
                    &mut sim,
                    Message {
                        src: 0,
                        dst: 1,
                        rail: (tag & 1) as usize,
                        tag,
                        size: 64,
                        data: None,
                    },
                );
            });
            sim.run();
            ns
        }),
    ));
}

/// The engine's entry points, one message at a time on an idle fabric, and
/// the simulator steps and polls that progress it.
fn newmad_engine(p: &Probe, out: &mut Metrics) {
    const SIZES: [(usize, &str); 4] = [
        (64, "newmad.isend_ns.eager64"),
        (4 << 10, "newmad.isend_ns.eager4k"),
        (64 << 10, "newmad.isend_ns.rndv64k"),
        (1 << 20, "newmad.isend_ns.rndv1m"),
    ];
    let net = Network::new(2, 2, NetParams::infiniband());
    let tx = CommEngine::new(0, Rc::clone(&net), EngineConfig::newmadeleine());
    let rx = CommEngine::new(1, net, EngineConfig::newmadeleine());
    let mut sim = Sim::new();
    let mut tag = 0u64;
    let (mut irecv, mut step, mut poll) = (Vec::new(), Vec::new(), Vec::new());
    for (len, name) in SIZES {
        let data = Bytes::from(vec![0x5Au8; len]);
        out.push((
            name,
            p.median(|| {
                tag += 1;
                let (recv_ns, recv) = p.call(|| rx.irecv(&mut sim, 0, tag));
                irecv.push(recv_ns);
                let (send_ns, _send) = p.call(|| tx.isend_bytes(&mut sim, 1, tag, data.clone()));
                loop {
                    let (ns, more) = p.call(|| sim.step());
                    if !more {
                        break;
                    }
                    step.push(ns);
                    for engine in [&rx, &tx] {
                        if engine.rx_backlog() > 0 {
                            let before = engine.stats().packets_processed;
                            let (ns, _) = p.call(|| engine.poll(&mut sim));
                            let packets = engine.stats().packets_processed - before;
                            poll.push(ns / packets.max(1) as f64);
                        }
                    }
                }
                assert!(recv.is_complete(), "probe message was not delivered");
                send_ns
            }),
        ));
    }
    out.push(("newmad.irecv_ns", median(&irecv)));
    out.push(("des.step_ns", median(&step)));
    out.push(("newmad.poll_ns_per_packet", median(&poll)));
}

fn newmad_wire_and_rails(p: &Probe, out: &mut Metrics) {
    let frames = [
        Wire::Eager {
            app_tag: 42,
            size: 64,
        },
        Wire::EagerAggregate {
            parts: (0..16)
                .map(|i| EagerPart {
                    app_tag: i,
                    size: 64,
                })
                .collect(),
        },
        Wire::Rts {
            req: 7,
            app_tag: 42,
            size: 1 << 20,
            rdma: false,
        },
    ];
    // Per frame, averaged over the three header shapes the engine emits
    // most: Eager, a 16-part aggregate, Rts.
    out.push((
        "newmad.wire_encode_ns",
        p.median(|| {
            batched(8, || {
                for frame in &frames {
                    black_box(black_box(frame).encode());
                }
            }) / frames.len() as f64
        }),
    ));
    let encoded: Vec<Bytes> = frames.iter().map(Wire::encode).collect();
    out.push((
        "newmad.wire_decode_ns",
        p.median(|| {
            batched(8, || {
                for raw in &encoded {
                    black_box(Wire::decode(&mut black_box(raw).clone()));
                }
            }) / frames.len() as f64
        }),
    ));
    let net = Network::new(2, 2, NetParams::infiniband());
    let cfg = EngineConfig::newmadeleine();
    out.push((
        "newmad.stripe_plan_ns",
        p.median(|| {
            batched(16, || {
                black_box(rails::stripe_plan(&net, SimTime::ZERO, 0, 1 << 20, &cfg));
            })
        }),
    ));
}

/// Runs every probe. `budget` bounds each median's sampling time, `idle`
/// the parked-worker CPU watch.
pub fn run_all(budget: Duration, idle: Duration) -> Metrics {
    let p = Probe::new(budget);
    let mut out = vec![("trace.clock_pair_ns", p.clock_pair_ns)];
    pioman_paths(&p, &mut out);
    pioman_handoff(&p, &mut out);
    pioman_class_waits(&p, &mut out);
    pioman_park_wake(&p, idle, &mut out);
    topology_and_cpuset(&p, &mut out);
    containers(&p, &mut out);
    des_and_net(&p, &mut out);
    newmad_engine(&p, &mut out);
    newmad_wire_and_rails(&p, &mut out);
    out
}
