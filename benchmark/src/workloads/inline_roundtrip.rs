//! `inline_roundtrip` — one task spawned and run on the same thread.
//!
//! The paper's Table I and ROADMAP item 2's 468 ns: submit, dequeue, run and
//! completion do all the work at queue depth 1; park/wake, steal, spill
//! and `newmad` do none. One OS thread, no workers. Ops cycle through a
//! seeded 32-slot pattern of per-core, NUMA (`4..8`) and global cpusets in
//! the ratio 2:1:1, and the untraced run times one pass of the pattern per
//! clock pair, so the clock costs each op a thirty-second of a pair, not a
//! twentieth of the op.

use super::{pioman_counters, span, Outcome, Verdict, Workload};
use crate::stats::{SplitMix64, Window};
use crate::trace::{Tracer, NO_SPAN};
use pioman::{presets, CpuSet, SubmitSpec, TaskManager, TaskStatus};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The virtual core the client schedules as.
const CORE: usize = 5;
/// Ops per clock pair in the untraced run (one pass of the pattern).
const BATCH: usize = 32;
const WARMUP_OPS: u64 = 200_000;

/// Which queue level an op's cpuset selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Level {
    Core = 0,
    Numa = 1,
    Global = 2,
}

pub struct InlineRoundtrip {
    mgr: Arc<TaskManager>,
    pattern: [Level; BATCH],
    /// Bumped by every task body; must equal the ops attempted.
    ran: &'static AtomicU64,
    attempted: u64,
    failed: u64,
}

impl Level {
    /// Narrows `spec` to the cpuset whose smallest covering queue is at
    /// this level.
    #[inline]
    fn apply(self, spec: SubmitSpec<'_>) -> SubmitSpec<'_> {
        match self {
            Level::Core => spec.cpuset(CpuSet::single(CORE)),
            Level::Numa => spec.cpuset(CpuSet::range(4..8)),
            Level::Global => spec,
        }
    }
}

impl InlineRoundtrip {
    /// One request: spawn, run, check. `true` when the handle reports `Ok`.
    #[inline]
    fn op(&self, level: Level) -> bool {
        let ran = self.ran;
        let spec = self.mgr.task(move |_| {
            ran.fetch_add(1, Ordering::Relaxed);
            TaskStatus::Done
        });
        let handle = level.apply(spec).spawn();
        self.mgr.schedule(CORE);
        matches!(handle.poll(), Some(Ok(())))
    }

    /// The same request with a span around every call and inside the body.
    fn op_traced(&self, level: Level, req: u64, tr: &'static Tracer) -> (bool, Instant, Instant) {
        let (root, sched) = (tr.reserve(), tr.reserve());
        let ran = self.ran;
        let t0 = Instant::now();
        let spec = self.mgr.task(move |_| {
            let b0 = Instant::now();
            ran.fetch_add(1, Ordering::Relaxed);
            tr.span(span::BODY, req, sched, b0, Instant::now());
            TaskStatus::Done
        });
        let handle = level.apply(spec).spawn();
        let t1 = Instant::now();
        self.mgr.schedule(CORE);
        let t2 = Instant::now();
        let ok = matches!(handle.poll(), Some(Ok(())));
        let t3 = Instant::now();
        // Neighbouring spans share their boundary stamp: four clock reads
        // per request instead of six.
        let l = level as usize;
        tr.span(span::SPAWN_LEVEL + l, req, root, t0, t1);
        tr.fill(sched, span::SCHEDULE_LEVEL + l, req, root, t1, t2);
        tr.span(span::CHECK, req, root, t2, t3);
        tr.fill(root, span::REQUEST, req, NO_SPAN, t0, t3);
        (ok, t0, t3)
    }
}

impl Workload for InlineRoundtrip {
    fn setup(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut pattern = [Level::Core; BATCH];
        pattern[BATCH / 2..3 * BATCH / 4].fill(Level::Numa);
        pattern[3 * BATCH / 4..].fill(Level::Global);
        rng.shuffle(&mut pattern);
        let mut w = InlineRoundtrip {
            mgr: TaskManager::new(presets::kwak().into()),
            pattern,
            ran: Box::leak(Box::new(AtomicU64::new(0))),
            attempted: 0,
            failed: 0,
        };
        for i in 0..WARMUP_OPS {
            let ok = w.op(w.pattern[i as usize % BATCH]);
            w.failed += u64::from(!ok);
        }
        w.attempted += WARMUP_OPS;
        w
    }

    fn measure(&mut self, seconds: f64, tracer: Option<&'static Tracer>) -> Outcome {
        let before = self.mgr.stats();
        let mut failed = 0u64;
        let window = if let Some(tr) = tracer {
            let mut window = Window::start(seconds, 1);
            let mut req = self.attempted;
            loop {
                let (ok, t0, t1) = self.op_traced(self.pattern[req as usize % BATCH], req, tr);
                failed += u64::from(!ok);
                req += 1;
                if !window.record(t1, (t1 - t0).as_nanos() as u64, 1, 1) {
                    break;
                }
            }
            window
        } else {
            let mut window = Window::start(seconds, BATCH as u32);
            loop {
                let t0 = Instant::now();
                let mut bad = 0u64;
                for &level in &self.pattern {
                    bad += u64::from(!self.op(level));
                }
                let t1 = Instant::now();
                failed += bad;
                let n = BATCH as u64;
                if !window.record(t1, (t1 - t0).as_nanos() as u64, n, n) {
                    break;
                }
            }
            window
        }
        .finish();
        self.attempted += window.requests;
        self.failed += failed;
        let after = self.mgr.stats();
        Outcome {
            counters: pioman_counters(&before, &after, 0, None, window.ops),
            window,
        }
    }

    fn verdict(&self) -> Verdict {
        let stats = self.mgr.stats();
        Verdict {
            attempted: self.attempted,
            failed: self.failed,
            // Every body ran exactly once, and the manager agrees.
            correct: self.failed == 0
                && self.ran.load(Ordering::Relaxed) == self.attempted
                && stats.total_executed() == self.attempted
                && stats.total_submitted() == self.attempted
                && stats.queues.iter().all(|q| q.pending == 0),
        }
    }
}
