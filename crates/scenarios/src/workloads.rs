//! The registered workloads: production-shaped traffic on the simulated
//! cluster.
//!
//! Every scenario follows one discipline, because the matrix's value is
//! its determinism:
//!
//! * all randomness comes from [`SplitMix64`] streams seeded from
//!   `(scenario name, run seed)` — no ambient entropy;
//! * all arithmetic is integer nanoseconds or IEEE basic-op `f64`
//!   (add/sub/mul/div) — **no transcendentals** (`ln`, `powf`, `sin`),
//!   whose libm implementations differ across hosts and would break the
//!   byte-identical contract the exact gate rests on. Heavy tails come from
//!   geometric bit draws, the day curve from an integer multiplier table;
//! * one latency sample (nanoseconds of *simulated* time) per request
//!   goes to the recorder; the fold into [`crate::hist`] happens in
//!   `Scenario::run`.
//!
//! Latencies are collected into an `Rc<RefCell<Vec<u64>>>` during the
//! simulation (events cannot borrow the caller's recorder) and drained
//! afterwards.

use crate::cluster::{stamped_latency, Cluster, Server, ServerCosts};
use crate::{Recorder, Scenario, ScenarioParams};
use newmadeleine::{CommEngine, EngineConfig};
use piom_des::rng::SplitMix64;
use piom_des::{Sim, SimTime};
use piom_net::{Message, Network, RxHandler};
use pioman::{Classed, SeqLanes, TaskClass, CLASS_COUNT};
use std::cell::RefCell;
use std::rc::Rc;

/// The registry, in trajectory order.
pub(crate) static REGISTRY: &[Scenario] = &[
    Scenario {
        name: "incast_fanin",
        about: "synchronized many-endpoint fan-in rounds queueing on one server",
        run: incast_fanin,
    },
    Scenario {
        name: "bursty_onoff",
        about: "on/off burst clients against one server (burst drains are the tail)",
        run: bursty_onoff,
    },
    Scenario {
        name: "diurnal_wave",
        about: "a day-curve arrival trace: near-critical peak hours, idle troughs",
        run: diurnal_wave,
    },
    Scenario {
        name: "heavy_tail_mix",
        about: "mice-and-elephants size mix head-of-line blocking one NIC engine",
        run: heavy_tail_mix,
    },
    Scenario {
        name: "straggler_shuffle",
        about: "scatter/gather rounds where 1-in-16 worker draws run 10x slow",
        run: straggler_shuffle,
    },
    Scenario {
        name: "retry_storm",
        about: "server outage window; timed-out clients retry with backoff",
        run: retry_storm,
    },
    Scenario {
        name: "multirail_stripe",
        about: "newmad rendezvous transfers striped over 4 rails by the engine's scheduler",
        run: multirail_stripe,
    },
    Scenario {
        name: "rpc_mesh_steady",
        about: "steady random pairwise request/response RPCs (the tight baseline)",
        run: rpc_mesh_steady,
    },
    Scenario {
        name: "rdma_pull_fanin",
        about: "one-sided RDMA pulls from many peers (contention-free floor)",
        run: rdma_pull_fanin,
    },
    Scenario {
        name: "rpc_mesh_qos_urgent",
        about: "the RPC mesh under QoS class lanes: the Urgent slice's RTTs",
        run: rpc_mesh_qos_urgent,
    },
    Scenario {
        name: "rpc_mesh_qos_interactive",
        about: "the RPC mesh under QoS class lanes: the Interactive slice's RTTs",
        run: rpc_mesh_qos_interactive,
    },
    Scenario {
        name: "rpc_mesh_qos_bulk",
        about: "the RPC mesh under QoS class lanes: the Bulk slice's RTTs",
        run: rpc_mesh_qos_bulk,
    },
    Scenario {
        name: "rpc_mesh_qos_background",
        about: "the RPC mesh under QoS class lanes: the Background slice's RTTs",
        run: rpc_mesh_qos_background,
    },
    Scenario {
        name: "incast_fanin_2048",
        about: "the incast ramp at 2048 synchronized senders (fabric-scale fan-in)",
        run: incast_fanin_2048,
    },
    Scenario {
        name: "rpc_mesh_steady_2048",
        about: "the steady RPC mesh across 2048 endpoints (fabric-scale baseline)",
        run: rpc_mesh_steady_2048,
    },
];

/// A size uniform within `[2^shift, 2^(shift+1))` for a shift uniform in
/// `[min_shift, max_shift]` — log-uniform, all-integer.
fn log_uniform_size(rng: &mut SplitMix64, min_shift: u32, max_shift: u32) -> usize {
    let shift = min_shift + rng.next_below((max_shift - min_shift + 1) as u64) as u32;
    let base = 1u64 << shift;
    (base + rng.next_below(base)) as usize
}

/// A geometrically heavy-tailed size: `P(level ≥ k) = 2^-k`, capped at
/// `cap_level`, so most messages are mice and a rare draw is an
/// elephant. Pure bit arithmetic — a bounded-Pareto stand-in needing no
/// `powf`.
fn heavy_tail_size(rng: &mut SplitMix64, min_bytes: u64, cap_level: u32) -> usize {
    let level = rng.next_u64().trailing_zeros().min(cap_level);
    let base = min_bytes << level;
    (base + rng.next_below(base)) as usize
}

/// An "exponential-ish" inter-arrival gap without `ln`: `mean/4` plus a
/// uniform draw up to `3·mean/2` — same mean, bounded support,
/// bit-reproducible everywhere.
fn spread_gap(rng: &mut SplitMix64, mean_ns: u64) -> SimTime {
    SimTime::from_ns(mean_ns / 4 + rng.next_below(mean_ns * 3 / 2))
}

/// A scenario's *in-event* RNG stream, independent from its precompute
/// stream: events draw in execution order (deterministic but
/// interleaved), so keeping the streams apart means a schedule-shape
/// change cannot silently re-deal the precomputed sizes and offsets.
fn event_rng(name: &str, seed: u64) -> Rc<RefCell<SplitMix64>> {
    Rc::new(RefCell::new(SplitMix64::new(crate::scenario_seed(
        name,
        seed ^ 0x9E37_79B9_7F4A_7C15,
    ))))
}

/// Drains the collected sample vector into the recorder, attributing
/// every sample to `class` and reporting the cluster's final simulated
/// time as the throughput horizon.
fn drain(c: &Cluster, samples: &Rc<RefCell<Vec<u64>>>, class: TaskClass, rec: &mut Recorder) {
    rec.note_elapsed(c.sim.now().as_ns());
    for &v in samples.borrow().iter() {
        rec.record_class(class, v);
    }
}

/// Synchronized fan-in: every round, all `endpoints` senders fire one
/// small request at the same server within a 5 µs window. The server's
/// FIFO queue turns the synchronized arrivals into a linearly growing
/// sojourn — the classic incast latency ramp. Recorded: request send →
/// server completion.
fn incast_fanin(p: &ScenarioParams, rec: &mut Recorder) {
    incast_core("incast_fanin", p.endpoints, p, rec);
}

/// [`incast_fanin`] scaled out to a fixed 2048 synchronized senders —
/// the fan-in degree of a fabric-scale collective, independent of the
/// params preset (the `endpoints` knob keeps driving the base row).
fn incast_fanin_2048(p: &ScenarioParams, rec: &mut Recorder) {
    incast_core("incast_fanin_2048", 2048, p, rec);
}

/// The shared incast simulation behind the two registry rows; `name`
/// keys the RNG streams so the rows draw independent jitter.
fn incast_core(name: &'static str, e: usize, p: &ScenarioParams, rec: &mut Recorder) {
    let rounds = (p.samples as usize / e).max(1);
    let mut c = Cluster::build(name, e + 1, 1, p.seed);
    let samples: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let srv_rng = event_rng(name, p.seed);

    let server = c.servers[0].clone();
    let s = samples.clone();
    c.on_receive(
        0,
        Rc::new(move |sim: &mut Sim, msg: Message| {
            let sent = msg.tag;
            let s = s.clone();
            let mut rng = srv_rng.borrow_mut();
            server.serve_sized(sim, msg.size, &mut rng, move |sim| {
                s.borrow_mut().push(sim.now().as_ns() - sent);
            });
        }),
    );

    for round in 0..rounds {
        let round_start = SimTime::from_us(300) * round as u64;
        for sender in 1..=e {
            let at = round_start + SimTime::from_ns(c.rng.next_below(5_000));
            let size = log_uniform_size(&mut c.rng, 8, 12); // 256 B .. 8 KiB
            schedule_send(&mut c, at, sender, 0, size);
        }
    }
    c.sim.run();
    drain(&c, &samples, TaskClass::Interactive, rec);
}

/// Schedules a stamped request from `src` to `dst` at absolute time `at`
/// (the tag carries the *actual* send time so engine queueing at the
/// sender counts toward the measured latency).
fn schedule_send(c: &mut Cluster, at: SimTime, src: usize, dst: usize, size: usize) {
    let net = c.net.clone();
    c.sim.schedule_abs(at, move |sim| {
        net.send(
            sim,
            Message {
                src,
                dst,
                rail: 0,
                tag: sim.now().as_ns(),
                size,
                data: None,
            },
        );
    });
}

/// On/off sources: each client alternates a back-to-back burst with a
/// long idle gap. Bursts overrun the server briefly; the drain of each
/// burst is the latency tail. Recorded: request send → server completion.
fn bursty_onoff(p: &ScenarioParams, rec: &mut Recorder) {
    let clients = p.endpoints.clamp(1, 4);
    let per_client = (p.samples as usize / clients).max(1);
    let mut c = Cluster::build("bursty_onoff", clients + 1, 1, p.seed);
    let samples: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let srv_rng = event_rng("bursty_onoff", p.seed);

    let server = c.servers[0].clone();
    let s = samples.clone();
    c.on_receive(
        0,
        Rc::new(move |sim: &mut Sim, msg: Message| {
            let sent = msg.tag;
            let s = s.clone();
            let mut rng = srv_rng.borrow_mut();
            server.serve_sized(sim, msg.size, &mut rng, move |sim| {
                s.borrow_mut().push(sim.now().as_ns() - sent);
            });
        }),
    );

    for client in 1..=clients {
        let mut t = SimTime::from_ns(c.rng.next_below(20_000));
        let mut sent = 0usize;
        while sent < per_client {
            let burst = (4 + c.rng.next_below(28)) as usize;
            for _ in 0..burst.min(per_client - sent) {
                let size = log_uniform_size(&mut c.rng, 9, 11); // 512 B .. 4 KiB
                schedule_send(&mut c, t, client, 0, size);
                t += SimTime::from_ns(200 + c.rng.next_below(800));
                sent += 1;
            }
            // The off period keeps long-run utilization under capacity
            // (~0.4 with 4 clients): bursts overload the server
            // *transiently* and drain — a saturated queue would just
            // measure the run length.
            t += spread_gap(&mut c.rng, 160_000);
        }
    }
    c.sim.run();
    drain(&c, &samples, TaskClass::Interactive, rec);
}

/// A compressed "day" of traffic: 24 half-millisecond hours whose
/// arrival rates follow an integer day curve — idle troughs, shoulder
/// ramps, and peak hours that run the server near criticality so queues
/// build and drain diurnally. Recorded: request send → server completion.
fn diurnal_wave(p: &ScenarioParams, rec: &mut Recorder) {
    /// Relative arrival rate per "hour of day" (sums to 160).
    const DAY_CURVE: [u64; 24] = [
        2, 1, 1, 1, 1, 2, 4, 6, 8, 10, 12, 12, 11, 10, 9, 8, 8, 9, 10, 12, 10, 6, 4, 3,
    ];
    const CURVE_SUM: u64 = 160;
    const HOUR: SimTime = SimTime::from_us(500);

    let clients = p.endpoints.clamp(1, 8);
    let mut c = Cluster::build("diurnal_wave", clients + 1, 1, p.seed);
    let samples: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let srv_rng = event_rng("diurnal_wave", p.seed);

    let server = c.servers[0].clone();
    let s = samples.clone();
    c.on_receive(
        0,
        Rc::new(move |sim: &mut Sim, msg: Message| {
            let sent = msg.tag;
            let s = s.clone();
            let mut rng = srv_rng.borrow_mut();
            server.serve_sized(sim, msg.size, &mut rng, move |sim| {
                s.borrow_mut().push(sim.now().as_ns() - sent);
            });
        }),
    );

    let mut k = 0usize;
    for (hour, &weight) in DAY_CURVE.iter().enumerate() {
        let quota = (p.samples * weight / CURVE_SUM).max(1);
        let gap = HOUR.as_ns() / quota;
        for i in 0..quota {
            let at = HOUR * hour as u64 + SimTime::from_ns(i * gap + c.rng.next_below(gap.max(1)));
            let size = log_uniform_size(&mut c.rng, 9, 11); // 512 B .. 4 KiB
            let client = 1 + k % clients;
            schedule_send(&mut c, at, client, 0, size);
            k += 1;
        }
    }
    c.sim.run();
    drain(&c, &samples, TaskClass::Interactive, rec);
}

/// Mice and elephants through one NIC engine: geometrically heavy-tailed
/// sizes (256 B up to ~2 MiB) on a steady arrival stream. An elephant
/// occupies the send engine for milliseconds, head-of-line blocking every
/// mouse behind it. Recorded: send → delivery (no server — this scenario
/// isolates the *network* path).
fn heavy_tail_mix(p: &ScenarioParams, rec: &mut Recorder) {
    let mut c = Cluster::build("heavy_tail_mix", 2, 1, p.seed);
    let samples: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));

    let s = samples.clone();
    c.on_receive(
        0,
        Rc::new(move |sim: &mut Sim, msg: Message| {
            s.borrow_mut().push(stamped_latency(sim, &msg));
        }),
    );

    let mut t = SimTime::ZERO;
    for _ in 0..p.samples {
        t += spread_gap(&mut c.rng, 4_000);
        let size = heavy_tail_size(&mut c.rng, 256, 12);
        schedule_send(&mut c, t, 1, 0, size);
    }
    c.sim.run();
    drain(&c, &samples, TaskClass::Bulk, rec);
}

/// Scatter/gather rounds: a coordinator scatters one small task to every
/// worker; each worker's service draw has a 1-in-16 chance of running
/// 10× slow. Recorded: per-reply latency at the coordinator (scatter
/// send → reply arrival), so straggler amplification lands in the upper
/// percentiles of every round.
fn straggler_shuffle(p: &ScenarioParams, rec: &mut Recorder) {
    let workers = p.endpoints;
    let rounds = (p.samples as usize / workers).max(1);
    let mut c = Cluster::build("straggler_shuffle", workers + 1, 1, p.seed);
    let samples: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let wrk_rng = event_rng("straggler_shuffle", p.seed);

    let servers = c.servers.clone();
    let net = c.net.clone();
    let s = samples.clone();
    let handler: RxHandler = Rc::new(move |sim: &mut Sim, msg: Message| {
        if msg.dst == 0 {
            // A reply landing back at the coordinator.
            s.borrow_mut().push(stamped_latency(sim, &msg));
            return;
        }
        // A scattered task arriving at a worker: jittered service with a
        // 1-in-16 straggler draw, then a reply carrying the original stamp.
        let service = {
            let mut rng = wrk_rng.borrow_mut();
            let base = SimTime::from_us(4).scale(rng.jitter(0.12));
            if rng.next_below(16) == 0 {
                base * 10
            } else {
                base
            }
        };
        let net = net.clone();
        let worker = msg.dst;
        let stamp = msg.tag;
        servers[worker].serve(sim, service, move |sim| {
            net.send(
                sim,
                Message {
                    src: worker,
                    dst: 0,
                    rail: 0,
                    tag: stamp,
                    size: 512,
                    data: None,
                },
            );
        });
    });
    for node in 0..=workers {
        c.on_receive(node, handler.clone());
    }

    for round in 0..rounds {
        let round_start = SimTime::from_us(300) * round as u64;
        for worker in 1..=workers {
            schedule_send(&mut c, round_start, 0, worker, 512);
        }
    }
    c.sim.run();
    drain(&c, &samples, TaskClass::Interactive, rec);
}

/// Per-request client state of the retry-storm scenario.
struct RetryReq {
    first_send_ns: u64,
    attempts: u32,
    done: bool,
}

/// Shared state threaded through the retry-storm event closures.
struct RetryCtx {
    net: Rc<Network>,
    reqs: RefCell<Vec<RetryReq>>,
    samples: Rc<RefCell<Vec<u64>>>,
    backoff_rng: RefCell<SplitMix64>,
}

/// Client timeout before a retry.
const RETRY_TIMEOUT: SimTime = SimTime::from_us(120);
/// Retry budget per request; a request out of budget records its
/// accumulated latency as a give-up (the storm's worst-case tail).
const RETRY_MAX_ATTEMPTS: u32 = 8;

/// One attempt of request `id`: send, then arm a timeout that either
/// gives up or schedules the next attempt after an exponential,
/// jittered backoff.
fn retry_attempt(ctx: Rc<RetryCtx>, sim: &mut Sim, id: usize, client: usize, size: usize) {
    {
        let mut reqs = ctx.reqs.borrow_mut();
        if reqs[id].done {
            return;
        }
        reqs[id].attempts += 1;
    }
    ctx.net.send(
        sim,
        Message {
            src: client,
            dst: 0,
            rail: 0,
            tag: id as u64,
            size,
            data: None,
        },
    );
    let ctx2 = ctx.clone();
    sim.schedule(RETRY_TIMEOUT, move |sim| {
        let (first_send_ns, attempts) = {
            let reqs = ctx2.reqs.borrow();
            let r = &reqs[id];
            if r.done {
                return; // answered while the timeout was in flight
            }
            (r.first_send_ns, r.attempts)
        };
        if attempts >= RETRY_MAX_ATTEMPTS {
            ctx2.reqs.borrow_mut()[id].done = true;
            ctx2.samples
                .borrow_mut()
                .push(sim.now().as_ns() - first_send_ns);
            return;
        }
        let backoff = {
            let mut rng = ctx2.backoff_rng.borrow_mut();
            let base = 20_000u64 << attempts.min(6);
            SimTime::from_ns(base + rng.next_below(base))
        };
        let ctx3 = ctx2.clone();
        sim.schedule(backoff, move |sim| {
            retry_attempt(ctx3, sim, id, client, size);
        });
    });
}

/// A server outage and the storm it seeds: steady request load, a dead
/// window in the middle of the horizon during which the server drops
/// everything on the floor, clients timing out and retrying with
/// exponential backoff — so the outage's end is hit by the original load
/// *plus* every queued-up retry at once. Recorded: first send → first
/// response (or give-up), per request.
fn retry_storm(p: &ScenarioParams, rec: &mut Recorder) {
    const HORIZON: SimTime = SimTime::from_ms(8);
    let outage_start = SimTime::from_ns(HORIZON.as_ns() * 35 / 100);
    let outage_end = SimTime::from_ns(HORIZON.as_ns() / 2);

    let clients = p.endpoints.clamp(1, 8);
    let total = p.samples as usize;
    let mut c = Cluster::build("retry_storm", clients + 1, 1, p.seed);
    let samples: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let srv_rng = event_rng("retry_storm", p.seed);

    let ctx = Rc::new(RetryCtx {
        net: c.net.clone(),
        reqs: RefCell::new(Vec::with_capacity(total)),
        samples: samples.clone(),
        backoff_rng: RefCell::new(SplitMix64::new(crate::scenario_seed(
            "retry_storm_backoff",
            p.seed,
        ))),
    });

    // Server: drop during the outage; otherwise serve and respond.
    let server = c.servers[0].clone();
    let net = c.net.clone();
    c.on_receive(
        0,
        Rc::new(move |sim: &mut Sim, msg: Message| {
            if sim.now() >= outage_start && sim.now() < outage_end {
                return; // dead server: the client's timeout will fire
            }
            let net = net.clone();
            let (id, client) = (msg.tag, msg.src);
            let mut rng = srv_rng.borrow_mut();
            server.serve_sized(sim, msg.size, &mut rng, move |sim| {
                net.send(
                    sim,
                    Message {
                        src: 0,
                        dst: client,
                        rail: 0,
                        tag: id,
                        size: 256,
                        data: None,
                    },
                );
            });
        }),
    );

    // Clients: the first response (duplicates happen — a retry raced a
    // slow reply) completes the request and records its end-to-end time.
    for client in 1..=clients {
        let ctx2 = ctx.clone();
        c.on_receive(
            client,
            Rc::new(move |sim: &mut Sim, msg: Message| {
                let id = msg.tag as usize;
                let mut reqs = ctx2.reqs.borrow_mut();
                let r = &mut reqs[id];
                if !r.done {
                    r.done = true;
                    ctx2.samples
                        .borrow_mut()
                        .push(sim.now().as_ns() - r.first_send_ns);
                }
            }),
        );
    }

    // Steady load across the horizon, round-robin over the clients.
    let slot = HORIZON.as_ns() / total as u64;
    for id in 0..total {
        let at = SimTime::from_ns(id as u64 * slot + c.rng.next_below(slot.max(1)));
        let client = 1 + id % clients;
        let size = log_uniform_size(&mut c.rng, 9, 10); // 512 B .. 2 KiB
        ctx.reqs.borrow_mut().push(RetryReq {
            first_send_ns: at.as_ns(),
            attempts: 0,
            done: false,
        });
        let ctx2 = ctx.clone();
        c.sim.schedule_abs(at, move |sim| {
            retry_attempt(ctx2, sim, id, client, size);
        });
    }
    c.sim.run();
    drain(&c, &samples, TaskClass::Interactive, rec);
}

/// Striped bulk transfers through the *real* `newmadeleine` engine: each
/// transfer runs the two-sided rendezvous protocol, and the engine's
/// [`newmadeleine::rails`] scheduler water-fills the payload chunks over
/// the 4 rails (every size here is past both the eager threshold and the
/// stripe crossover). The recorded latency is transfer start → receive
/// completion, so it includes the RTS/CTS handshake, per-rail queueing
/// behind earlier transfers, and the slowest-chunk max the striping
/// scheduler is supposed to minimize.
fn multirail_stripe(p: &ScenarioParams, rec: &mut Recorder) {
    const RAILS: usize = 4;
    let transfers = p.samples as usize;
    let mut c = Cluster::build("multirail_stripe", 2, RAILS, p.seed);
    let samples: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));

    let cfg = EngineConfig {
        stripe_threshold: 32 * 1024,
        rndv_chunk: 16 * 1024,
        ..EngineConfig::newmadeleine()
    };
    let sender = CommEngine::new(0, c.net.clone(), cfg.clone());
    let receiver = CommEngine::new(1, c.net.clone(), cfg);

    let mut t = SimTime::ZERO;
    for id in 0..transfers {
        t += SimTime::from_ns(18_000 + c.rng.next_below(8_000));
        // 32..96 KiB: always rendezvous, always striped.
        let size = (32 * 1024 + c.rng.next_below(64 * 1024)) as usize;
        let (snd, rcv, s) = (sender.clone(), receiver.clone(), samples.clone());
        c.sim.schedule_abs(t, move |sim| {
            let start = sim.now().as_ns();
            let r = rcv.irecv(sim, 0, id as u64);
            r.on_complete(sim, move |sim| {
                s.borrow_mut().push(sim.now().as_ns() - start);
            });
            snd.isend(sim, 1, id as u64, size);
        });
    }
    // Progression: both engines polled every microsecond (the scenario's
    // stand-in for PIOMan keypoints), with slack past the last submission
    // for the queue to drain.
    let horizon = t + SimTime::from_ms(10);
    let mut at = SimTime::ZERO;
    while at < horizon {
        let (snd, rcv) = (sender.clone(), receiver.clone());
        c.sim.schedule_abs(at, move |sim| {
            snd.poll(sim);
            rcv.poll(sim);
        });
        at += SimTime::from_us(1);
    }
    c.sim.run();
    assert_eq!(
        samples.borrow().len(),
        transfers,
        "every rendezvous must complete within the poll horizon"
    );
    drain(&c, &samples, TaskClass::Bulk, rec);
}

/// Response-direction marker for the RPC mesh: request tags carry the
/// send stamp, responses carry the same stamp with the top bit set
/// (simulated nanoseconds never reach 2^63).
const RPC_RESPONSE: u64 = 1 << 63;

/// A steady random mesh of request/response RPCs between `endpoints`
/// nodes: light utilization everywhere, so the distribution is the tight
/// unimodal baseline the queueing rows are read against. Recorded: full RTT
/// (request send → response arrival).
fn rpc_mesh_steady(p: &ScenarioParams, rec: &mut Recorder) {
    rpc_mesh_core("rpc_mesh_steady", p.endpoints.clamp(2, 16), p, rec);
}

/// [`rpc_mesh_steady`] scaled out to a fixed 2048-node mesh: the same
/// arrival rate scattered across 128× more pairs, so per-node queueing
/// all but vanishes and the row pins the fabric-scale RTT floor the
/// 16-node baseline's queueing is read against.
fn rpc_mesh_steady_2048(p: &ScenarioParams, rec: &mut Recorder) {
    rpc_mesh_core("rpc_mesh_steady_2048", 2048, p, rec);
}

/// The shared mesh simulation behind the two registry rows; `name` keys
/// the RNG streams so the rows draw independent jitter.
fn rpc_mesh_core(name: &'static str, nodes: usize, p: &ScenarioParams, rec: &mut Recorder) {
    let mut c = Cluster::build(name, nodes, 1, p.seed);
    let samples: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let srv_rng = event_rng(name, p.seed);

    let servers = c.servers.clone();
    let net = c.net.clone();
    let s = samples.clone();
    let handler: RxHandler = Rc::new(move |sim: &mut Sim, msg: Message| {
        if msg.tag & RPC_RESPONSE != 0 {
            s.borrow_mut()
                .push(sim.now().as_ns() - (msg.tag & !RPC_RESPONSE));
            return;
        }
        let net = net.clone();
        let (stamp, requester, responder) = (msg.tag, msg.src, msg.dst);
        let mut rng = srv_rng.borrow_mut();
        servers[responder].serve_sized(sim, msg.size, &mut rng, move |sim| {
            net.send(
                sim,
                Message {
                    src: responder,
                    dst: requester,
                    rail: 0,
                    tag: stamp | RPC_RESPONSE,
                    size: 1024,
                    data: None,
                },
            );
        });
    });
    for node in 0..nodes {
        c.on_receive(node, handler.clone());
    }

    let mut t = SimTime::ZERO;
    for _ in 0..p.samples {
        t += spread_gap(&mut c.rng, 2_500);
        let src = c.rng.next_below(nodes as u64) as usize;
        let mut dst = c.rng.next_below(nodes as u64 - 1) as usize;
        if dst >= src {
            dst += 1;
        }
        let size = log_uniform_size(&mut c.rng, 9, 10); // 512 B .. 2 KiB
        schedule_send(&mut c, t, src, dst, size);
    }
    c.sim.run();
    drain(&c, &samples, TaskClass::Interactive, rec);
}

/// One-sided pulls: the aggregator reads jittered-size blocks from each
/// peer over RDMA — no remote CPU, no engine contention in the model, so
/// the distribution is purely the size mix through the cost model. The
/// contention-free floor the queueing scenarios are read against.
/// Recorded: pull start → completion.
fn rdma_pull_fanin(p: &ScenarioParams, rec: &mut Recorder) {
    let peers = p.endpoints;
    let mut c = Cluster::build("rdma_pull_fanin", peers + 1, 1, p.seed);
    let samples: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));

    let mut t = SimTime::ZERO;
    for k in 0..p.samples {
        t += SimTime::from_ns(25_000 + c.rng.next_below(10_000));
        let target = 1 + (k as usize) % peers;
        let size = (32 * 1024 + c.rng.next_below(96 * 1024)) as usize;
        let net = c.net.clone();
        let s = samples.clone();
        c.sim.schedule_abs(t, move |sim| {
            let started = sim.now().as_ns();
            let s = s.clone();
            net.rdma_read(sim, 0, target, 0, size, move |sim| {
                s.borrow_mut().push(sim.now().as_ns() - started);
            });
        });
    }
    c.sim.run();
    drain(&c, &samples, TaskClass::Bulk, rec);
}

/// Tag layout of the QoS mesh: bit 63 stays the [`RPC_RESPONSE`] flag,
/// bits 61–62 carry the request's [`TaskClass`] index, and the low 61
/// bits carry the send stamp (simulated nanoseconds never reach 2^61).
const QOS_CLASS_SHIFT: u32 = 61;
const QOS_STAMP_MASK: u64 = (1 << QOS_CLASS_SHIFT) - 1;

/// One request parked at a responder. Queued in the scheduler's own
/// [`SeqLanes`], so the mesh is served under the real pop policy — strict
/// class priority plus the `Background` anti-starvation credit — not a
/// model of it.
struct QosRequest {
    class: TaskClass,
    stamp: u64,
    requester: usize,
    size: usize,
}

impl Classed for QosRequest {
    fn class(&self) -> TaskClass {
        self.class
    }
}

/// One responder: its parked requests and whether its CPU is serving.
struct QosLanes {
    lanes: SeqLanes<QosRequest>,
    busy: bool,
}

/// Shared state of one QoS mesh run, `Rc`-cloned into the completion
/// chain so a responder can keep serving lane after lane.
struct QosCtx {
    lanes: RefCell<Vec<QosLanes>>,
    servers: Vec<Server>,
    net: Rc<Network>,
    rng: Rc<RefCell<SplitMix64>>,
}

/// Serves `node`'s lanes until they drain: pop by class policy, occupy
/// the server CPU, respond, repeat from the completion event.
fn qos_serve_next(ctx: &Rc<QosCtx>, sim: &mut Sim, node: usize) {
    let popped = ctx.lanes.borrow_mut()[node].lanes.pop();
    let Some(QosRequest {
        class,
        stamp,
        requester,
        size,
    }) = popped
    else {
        ctx.lanes.borrow_mut()[node].busy = false;
        return;
    };
    ctx.lanes.borrow_mut()[node].busy = true;
    let ctx2 = ctx.clone();
    let mut rng = ctx.rng.borrow_mut();
    ctx.servers[node].serve_sized(sim, size, &mut rng, move |sim| {
        ctx2.net.send(
            sim,
            Message {
                src: node,
                dst: requester,
                rail: 0,
                tag: stamp | RPC_RESPONSE | ((class.index() as u64) << QOS_CLASS_SHIFT),
                size: 1024,
                data: None,
            },
        );
        qos_serve_next(&ctx2, sim, node);
    });
}

/// The common simulation behind the four `rpc_mesh_qos_*` rows: the
/// steady RPC mesh re-run hotter (4× the arrival rate) with every
/// responder serving through [`QosLanes`] instead of one FIFO. All four
/// wrappers simulate the *identical* traffic — same name-seeded streams,
/// classes dealt 2:3:2:1 (urgent:interactive:bulk:background) from the
/// precompute stream — and each records only its own class's RTT slice,
/// so the four trajectory rows decompose one workload by tier: strict
/// class priority keeps the `Urgent` and `Interactive` tails tight while
/// `Bulk` and `Background` absorb the queueing (pinned by
/// `qos_mesh_tiers_order_by_class`). Every row reports
/// the *full* per-class completion throughput of the shared workload
/// (latency samples carry the focus class, sibling slices go through
/// [`Recorder::note_completions`]), so the four throughput vectors are
/// identical — pinned by `qos_rows_share_one_throughput_vector`.
fn rpc_mesh_qos(focus: TaskClass, p: &ScenarioParams, rec: &mut Recorder) {
    let nodes = p.endpoints.clamp(2, 16);
    let mut c = Cluster::build("rpc_mesh_qos", nodes, 1, p.seed);
    let samples: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let done: Rc<RefCell<[u64; CLASS_COUNT]>> = Rc::new(RefCell::new([0; CLASS_COUNT]));

    // QoS lanes differentiate only where the server CPU is the
    // bottleneck (that is the resource the task scheduler arbitrates),
    // so this mesh runs CPU-bound: a 3× request-handling floor keeps the
    // responders near saturation while the fabric stays light.
    let mut costs = ServerCosts::from_machine();
    costs.base_ns *= 3;
    c.servers = (0..nodes).map(|_| Server::new(costs)).collect();

    let ctx = Rc::new(QosCtx {
        lanes: RefCell::new(
            (0..nodes)
                .map(|_| QosLanes {
                    lanes: SeqLanes::new(),
                    busy: false,
                })
                .collect(),
        ),
        servers: c.servers.clone(),
        net: c.net.clone(),
        rng: event_rng("rpc_mesh_qos", p.seed),
    });

    let s = samples.clone();
    let d = done.clone();
    let ctx2 = ctx.clone();
    let handler: RxHandler = Rc::new(move |sim: &mut Sim, msg: Message| {
        let class_idx = ((msg.tag >> QOS_CLASS_SHIFT) & 0b11) as usize;
        if msg.tag & RPC_RESPONSE != 0 {
            d.borrow_mut()[class_idx] += 1;
            if class_idx == focus.index() {
                s.borrow_mut()
                    .push(sim.now().as_ns() - (msg.tag & QOS_STAMP_MASK));
            }
            return;
        }
        let idle = {
            let mut all = ctx2.lanes.borrow_mut();
            let l = &mut all[msg.dst];
            l.lanes.push(QosRequest {
                class: TaskClass::ALL[class_idx],
                stamp: msg.tag & QOS_STAMP_MASK,
                requester: msg.src,
                size: msg.size,
            });
            !l.busy
        };
        if idle {
            qos_serve_next(&ctx2, sim, msg.dst);
        }
    });
    for node in 0..nodes {
        c.on_receive(node, handler.clone());
    }

    let mut t = SimTime::ZERO;
    for _ in 0..p.samples {
        t += spread_gap(&mut c.rng, 300);
        let src = c.rng.next_below(nodes as u64) as usize;
        let mut dst = c.rng.next_below(nodes as u64 - 1) as usize;
        if dst >= src {
            dst += 1;
        }
        let size = log_uniform_size(&mut c.rng, 9, 10); // 512 B .. 2 KiB
        let class = match c.rng.next_below(8) {
            0 | 1 => TaskClass::Urgent,
            2..=4 => TaskClass::Interactive,
            5 | 6 => TaskClass::Bulk,
            _ => TaskClass::Background,
        };
        let net = c.net.clone();
        c.sim.schedule_abs(t, move |sim| {
            net.send(
                sim,
                Message {
                    src,
                    dst,
                    rail: 0,
                    tag: sim.now().as_ns() | ((class.index() as u64) << QOS_CLASS_SHIFT),
                    size,
                    data: None,
                },
            );
        });
    }
    c.sim.run();
    for class in TaskClass::ALL {
        if class != focus {
            rec.note_completions(class, done.borrow()[class.index()]);
        }
    }
    drain(&c, &samples, focus, rec);
}

fn rpc_mesh_qos_urgent(p: &ScenarioParams, rec: &mut Recorder) {
    rpc_mesh_qos(TaskClass::Urgent, p, rec);
}

fn rpc_mesh_qos_interactive(p: &ScenarioParams, rec: &mut Recorder) {
    rpc_mesh_qos(TaskClass::Interactive, p, rec);
}

fn rpc_mesh_qos_bulk(p: &ScenarioParams, rec: &mut Recorder) {
    rpc_mesh_qos(TaskClass::Bulk, p, rec);
}

fn rpc_mesh_qos_background(p: &ScenarioParams, rec: &mut Recorder) {
    rpc_mesh_qos(TaskClass::Background, p, rec);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qos_mesh_tiers_order_by_class() {
        // The four rpc_mesh_qos_* rows decompose one simulated workload;
        // the whole point of the class lanes is that the priority tiers
        // see a tighter tail than the yielding ones. Full params so the
        // Background slice (1/8 of traffic) has a real sample count.
        let p = ScenarioParams::full(42);
        let p99 = |name: &str| crate::find(name).unwrap().run(&p).summary.p99;
        let (urgent, background) = (p99("rpc_mesh_qos_urgent"), p99("rpc_mesh_qos_background"));
        assert!(
            urgent < background,
            "Urgent p99 ({urgent} ns) must beat Background p99 ({background} ns)"
        );
        assert!(
            p99("rpc_mesh_qos_interactive") <= p99("rpc_mesh_qos_bulk"),
            "Interactive p99 must not exceed Bulk p99"
        );
    }

    #[test]
    fn qos_rows_share_one_throughput_vector() {
        // The four focus rows simulate the identical workload and report
        // the full per-class completion set; their throughput vectors
        // must therefore agree bit-for-bit, and the focus slice's
        // latency count must equal its own throughput row.
        let p = ScenarioParams::quick(42);
        let urgent = crate::find("rpc_mesh_qos_urgent").unwrap().run(&p);
        let bulk = crate::find("rpc_mesh_qos_bulk").unwrap().run(&p);
        assert_eq!(
            urgent.throughput, bulk.throughput,
            "four views of one workload must report one throughput vector"
        );
        for (class, row) in TaskClass::ALL.iter().zip(urgent.throughput) {
            assert!(row.completed > 0, "{class:?} slice completed nothing");
            assert!(row.per_ms > 0.0, "{class:?} slice has no rate");
        }
        assert_eq!(
            urgent.throughput[TaskClass::Urgent.index()].completed,
            urgent.summary.count,
            "focus slice throughput must match its latency sample count"
        );
    }

    #[test]
    fn fabric_scale_incast_ramps_far_past_the_base_row() {
        // The 2048-sender variant pins its fan-in degree regardless of
        // the params preset: one sample per synchronized sender per
        // round, and a queueing ramp orders of magnitude past the
        // 16-sender baseline's.
        let p = ScenarioParams::quick(42);
        let base = crate::find("incast_fanin").unwrap().run(&p);
        let wide = crate::find("incast_fanin_2048").unwrap().run(&p);
        assert_eq!(wide.summary.count, 2048, "one sample per sender");
        assert!(
            wide.summary.p99 > base.summary.p99,
            "2048-deep fan-in must queue far past 16-deep: {} vs {}",
            wide.summary.p99,
            base.summary.p99
        );
    }

    #[test]
    fn size_helpers_stay_in_range() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..10_000 {
            let s = log_uniform_size(&mut rng, 8, 12) as u64;
            assert!(
                (256..8192 * 2).contains(&s),
                "log-uniform out of range: {s}"
            );
            let h = heavy_tail_size(&mut rng, 256, 12) as u64;
            assert!(
                (256..=(2 * 256) << 12).contains(&h),
                "heavy tail out of range: {h}"
            );
        }
    }

    #[test]
    fn heavy_tail_is_actually_heavy() {
        let mut rng = SplitMix64::new(1);
        let draws: Vec<u64> = (0..50_000)
            .map(|_| heavy_tail_size(&mut rng, 256, 12) as u64)
            .collect();
        let mice = draws.iter().filter(|&&s| s < 1024).count();
        let elephants = draws.iter().filter(|&&s| s > 64 * 1024).count();
        assert!(mice > draws.len() / 2, "most draws should be mice");
        assert!(elephants > 0, "elephants must exist");
    }

    #[test]
    fn incast_latency_grows_within_a_round() {
        // The incast signature: with synchronized arrivals serialized
        // behind one server, the p99 sojourn must sit well above the p50.
        let s = crate::find("incast_fanin").unwrap();
        let r = s.run(&ScenarioParams::quick(42));
        assert!(
            r.summary.p99 > 2.0 * r.summary.p50,
            "no incast queueing visible: {:?}",
            r.summary
        );
    }

    #[test]
    fn retry_storm_tail_reflects_the_outage() {
        // Requests hitting the outage pay at least one 120 µs timeout;
        // the tail must clear that floor while the median stays normal.
        let s = crate::find("retry_storm").unwrap();
        let r = s.run(&ScenarioParams::quick(42));
        assert!(
            r.summary.p999 >= RETRY_TIMEOUT.as_ns() as f64,
            "no retry visible in the tail: {:?}",
            r.summary
        );
        assert!(
            r.summary.p50 < RETRY_TIMEOUT.as_ns() as f64,
            "median should be a non-outage request: {:?}",
            r.summary
        );
    }

    #[test]
    fn rdma_floor_is_tight() {
        let s = crate::find("rdma_pull_fanin").unwrap();
        let r = s.run(&ScenarioParams::quick(42));
        // No queueing in the model: max/min bounded by the size spread
        // (sizes span 32..128 KiB, so ~4x in the bandwidth term).
        assert!(
            r.summary.max < 10.0 * r.summary.p50,
            "contention-free floor should be tight: {:?}",
            r.summary
        );
    }
}
