//! `burst_mixed` — the backlog regime.
//!
//! One request is a burst of 1 024 one-shot tasks homed `.on_core(0)`,
//! cpuset `0..4`, classes Urgent:Interactive:Bulk:Background = 1:2:4:1 in a
//! seeded order; one task per group of eight (seeded position) is, in turn,
//! an anchor or a dependent that runs `.after()` the anchor before it. The
//! client submits the burst, then drains as core 0 with
//! `schedule_batch(0, adaptive_budget(0))` while a `Progression` worker on
//! core 1 steals; the burst is done when a counter bumped by the bodies
//! reaches 1 024 and every dependent's completion is published. Batch
//! dequeue, class lanes, steal-half, the dependency waitlist and (past
//! depth 512) the socket spill/claim tier do the work; per-task submit cost
//! is amortised. It uses the queue layer the opposite way from
//! `inline_roundtrip`: depth ≫ 1 against depth 1.
//!
//! Two things differ from the first sketch of this workload, both measured
//! on the 2-CPU host it has to be steady on:
//!
//! * **The worker is held while the burst is submitted** — by a
//!   benchmark-owned task on its own core that spins until the last task is
//!   in (the other core is busy when the burst arrives, and turns idle as
//!   the submitter turns to draining). Left free, the thief out-drains the
//!   submitter: it ran 95 % of the tasks at a queue depth of about 3, the
//!   backlog this workload exists for never formed, and each time it caught
//!   up it parked — 5 to 20 parks per burst *inside* the timed region. The
//!   submit-races-drain contention this gives up is what `poll_loopback`
//!   measures (a quarter of its lock acquisitions are contended).
//! * **Dependencies are one level deep**, not a 128-link chain. A chain
//!   advances one link per keypoint, so the burst ended in a serial tail
//!   during which the other thread parked and was woken on every link.
//!
//! What is left of parking is the gap between two bursts (about two parks
//! per burst, outside the timed request); `pioman.parks_per_kop` watches it.

use super::{pioman_counters, span, spin_until, spin_until_complete, Outcome, Verdict, Workload};
use crate::stats::{SplitMix64, Window};
use crate::trace::{SpanId, Tracer, NO_SPAN};
use pioman::{
    presets, CpuSet, Progression, ProgressionConfig, TaskClass, TaskHandle, TaskManager, TaskStatus,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const BURST: usize = 1024;
const GROUP: usize = 8;
const CLIENT_CORE: usize = 0;
const WORKER_CORE: usize = 1;
/// Dependents per burst: one in every second group.
const DEPENDENTS: usize = BURST / GROUP / 2;
const WARMUP_BURSTS: u64 = 150;

/// What a task's place in the dependency pattern is.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Plain,
    /// The next dependent runs after this task.
    Anchor,
    /// Runs `.after()` the anchor before it.
    Dependent,
}

#[derive(Clone, Copy)]
struct Slot {
    class: TaskClass,
    role: Role,
}

pub struct BurstMixed {
    mgr: Arc<TaskManager>,
    prog: Progression,
    plan: Vec<Slot>,
    /// Bumped by every task body.
    done: &'static AtomicU64,
    /// Number of the last burst whose submission finished: what the task
    /// holding the worker waits for.
    submitted: &'static AtomicU64,
    /// Handles of the current burst's dependents.
    dependents: Vec<TaskHandle>,
    bursts: u64,
    failed: u64,
    lost: bool,
}

/// Spans of one traced burst.
#[derive(Clone, Copy)]
struct Ctx {
    tr: &'static Tracer,
    root: SpanId,
    /// Request ids of the burst's tasks start here (`burst * BURST`).
    base: u64,
}

impl BurstMixed {
    /// One request: submit the burst, drain it. Returns start and end, or
    /// `None` when the burst missed its deadline.
    fn burst(&mut self, tracer: Option<&'static Tracer>) -> Option<(Instant, Instant)> {
        let (done, submitted) = (self.done, self.submitted);
        let target = done.load(Ordering::Acquire) + BURST as u64;
        let number = self.bursts + 1;
        let ctx = tracer.map(|tr| Ctx {
            tr,
            root: tr.reserve(),
            base: self.bursts * BURST as u64,
        });
        // Before the request: the worker is busy when the burst arrives
        // (see the module docs). The deadline only keeps a lost burst from
        // hanging the worker's shutdown.
        self.mgr
            .task(move |_| {
                spin_until(Instant::now(), || {
                    submitted.load(Ordering::Acquire) >= number
                });
                TaskStatus::Done
            })
            .cpuset(CpuSet::single(WORKER_CORE))
            .spawn();

        let mut anchor: Option<TaskHandle> = None;
        self.dependents.clear();
        let t0 = Instant::now();
        let mut edge = t0;
        for (i, &slot) in self.plan.iter().enumerate() {
            let spec = match ctx {
                None => self.mgr.task(move |_| {
                    done.fetch_add(1, Ordering::Release);
                    TaskStatus::Done
                }),
                Some(c) => self.mgr.task(move |_| {
                    // Span first: the Release below publishes it to whoever
                    // sees the counter reach the target.
                    let b0 = Instant::now();
                    let name = span::BODY_CLASS + slot.class.index();
                    c.tr.span(name, c.base + i as u64, c.root, b0, Instant::now());
                    done.fetch_add(1, Ordering::Release);
                    TaskStatus::Done
                }),
            }
            .cpuset(CpuSet::range(0..4))
            .on_core(CLIENT_CORE)
            .class(slot.class);
            match slot.role {
                Role::Plain => {
                    spec.spawn();
                }
                Role::Anchor => anchor = Some(spec.spawn()),
                Role::Dependent => {
                    let before = anchor
                        .take()
                        .expect("the plan alternates anchor, dependent");
                    self.dependents.push(spec.after(&before).spawn());
                }
            }
            if let Some(c) = ctx {
                // One clock read per spawn: each span ends where the next
                // begins.
                let now = Instant::now();
                let name = if slot.role == Role::Dependent {
                    span::AFTER_SPAWN
                } else {
                    span::SPAWN
                };
                c.tr.span(name, c.base + i as u64, c.root, edge, now);
                edge = now;
            }
        }
        submitted.store(number, Ordering::Release);

        // Run keypoints until the counter says every body ran; when a
        // keypoint finds nothing, the tail of the burst is on the worker.
        let drained = spin_until(t0, || {
            if done.load(Ordering::Acquire) >= target {
                return true;
            }
            match ctx {
                None => {
                    self.mgr
                        .schedule_batch(CLIENT_CORE, self.mgr.adaptive_budget(CLIENT_CORE));
                }
                Some(c) => {
                    let a0 = Instant::now();
                    let budget = self.mgr.adaptive_budget(CLIENT_CORE);
                    let a1 = Instant::now();
                    self.mgr.schedule_batch(CLIENT_CORE, budget);
                    let a2 = Instant::now();
                    c.tr.span(span::ADAPTIVE_BUDGET, c.base, c.root, a0, a1);
                    c.tr.span(span::SCHEDULE_BATCH, c.base, c.root, a1, a2);
                }
            }
            false
        });
        // The counter is bumped inside the bodies, a moment before the
        // scheduler publishes each completion: the burst ends when every
        // dependent's handle says so too.
        let arrived = drained
            && self
                .dependents
                .iter()
                .all(|handle| spin_until_complete(handle, t0));
        let t1 = Instant::now();
        if let Some(c) = ctx {
            c.tr.fill(c.root, span::REQUEST, c.base, NO_SPAN, t0, t1);
        }
        let ok = arrived
            && self
                .dependents
                .iter()
                .all(|handle| matches!(handle.poll(), Some(Ok(()))));
        self.bursts += 1;
        self.failed += u64::from(!ok);
        if !arrived {
            self.lost = true;
            return None;
        }
        Some((t0, t1))
    }
}

impl Workload for BurstMixed {
    fn setup(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut plan = Vec::with_capacity(BURST);
        for g in 0..BURST / GROUP {
            use TaskClass::{Background, Bulk, Interactive, Urgent};
            let mut classes = [
                Urgent,
                Interactive,
                Interactive,
                Bulk,
                Bulk,
                Bulk,
                Bulk,
                Background,
            ];
            rng.shuffle(&mut classes);
            let linked = rng.below(GROUP as u64) as usize;
            let role = if g % 2 == 0 {
                Role::Anchor
            } else {
                Role::Dependent
            };
            plan.extend(classes.iter().enumerate().map(|(i, &class)| Slot {
                class,
                role: if i == linked { role } else { Role::Plain },
            }));
        }
        let mgr = TaskManager::new(presets::kwak().into());
        let prog = Progression::start(mgr.clone(), ProgressionConfig::for_cores(vec![WORKER_CORE]));
        let mut w = BurstMixed {
            mgr,
            prog,
            plan,
            done: Box::leak(Box::new(AtomicU64::new(0))),
            submitted: Box::leak(Box::new(AtomicU64::new(0))),
            dependents: Vec::with_capacity(DEPENDENTS),
            bursts: 0,
            failed: 0,
            lost: false,
        };
        for _ in 0..WARMUP_BURSTS {
            if w.burst(None).is_none() {
                break;
            }
        }
        w
    }

    fn measure(&mut self, seconds: f64, tracer: Option<&'static Tracer>) -> Outcome {
        let before = self.mgr.stats();
        let idle_before = self.prog.idle_loops();
        let mut window = Window::start(seconds, 1);
        while let Some((t0, t1)) = self.burst(tracer) {
            if !window.record(t1, (t1 - t0).as_nanos() as u64, 1, BURST as u64) {
                break;
            }
        }
        let window = window.finish();
        let after = self.mgr.stats();
        let idle = self.prog.idle_loops() - idle_before;
        let counters = pioman_counters(&before, &after, idle, Some(WORKER_CORE), window.ops);
        Outcome { window, counters }
    }

    fn verdict(&self) -> Verdict {
        let tasks = self.bursts * BURST as u64;
        // The worker may still be on its way to the last burst's holding
        // task (which returns at once by now): let it get there.
        let mut stats = self.mgr.stats();
        spin_until(Instant::now(), || {
            stats = self.mgr.stats();
            stats.total_executed() >= tasks + self.bursts
        });
        Verdict {
            attempted: self.bursts,
            failed: self.failed,
            // Every task of every burst (and the one task that held the
            // worker) ran exactly once, and every dependent was released
            // from the waitlist exactly once.
            correct: self.failed == 0
                && !self.lost
                && self.done.load(Ordering::Acquire) == tasks
                && stats.total_executed() == tasks + self.bursts
                && stats.queues.iter().all(|q| q.pending == 0)
                && stats.total_waitlist_released() == self.bursts * DEPENDENTS as u64,
        }
    }
}
