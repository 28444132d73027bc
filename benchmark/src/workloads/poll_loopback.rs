//! `poll_loopback` — one message through the real scheduler (paper §IV-B).
//!
//! A pre-posted **repeat** recv-poll task (cpuset `single(1)`) polls a
//! benchmark-owned loopback mailbox for its tag, `Wire::decode`s the frame,
//! verifies tag + payload and returns `Done`. Per message the client
//! pre-posts the *next* recv, spawns a one-shot **submit** task
//! (`Wire::Eager` encode, header + payload `Rope`, push to the mailbox) and
//! spins on this message's recv handle. Both tasks run on the one
//! `Progression` worker (core 1); the pre-posted next recv is what keeps
//! that worker hot — exactly the paper's "idle core polls the NIC". It is
//! posted before the submit, not after: posted after, the worker won the
//! race to an empty queue on 0.2 % of messages and parked inside the timed
//! region. Cross-thread hand-off, repeat re-enqueue, the hot worker's
//! keypoint loop and the completion notice dominate; the queue is never
//! deep, nothing is stolen.

use super::{pioman_counters, span, spin_until_complete, Outcome, Verdict, Workload};
use crate::stats::{SplitMix64, Window};
use crate::trace::{SpanId, Tracer, NO_SPAN};
use bytes::{Buf, Bytes, Rope};
use newmadeleine::wire::Wire;
use piom_net::Message;
use pioman::{
    presets, CpuSet, Progression, ProgressionConfig, TaskHandle, TaskManager, TaskStatus,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const WORKER_CORE: usize = 1;
const WARMUP_MSGS: u64 = 50_000;
/// Payload sizes, drawn uniformly per message from the seed.
const SIZES: [usize; 4] = [8, 64, 1024, 4096];
/// Length of the seeded size sequence (cycled).
const SEQ: usize = 4096;

/// Spans of one traced request, handed to the task bodies.
#[derive(Clone, Copy)]
struct Ctx {
    tr: &'static Tracer,
    root: SpanId,
}

/// A clock read, taken only when tracing.
#[inline]
fn stamp(ctx: Option<Ctx>) -> Option<Instant> {
    ctx.map(|_| Instant::now())
}

/// The loopback "NIC" and the two task shapes that use it.
struct Link {
    mgr: Arc<TaskManager>,
    /// Frames the submit task pushed and no recv has matched yet.
    mailbox: &'static Mutex<VecDeque<Message>>,
    payloads: [Bytes; 4],
    sizes: Vec<u8>,
    /// Frames a recv task rejected (wrong kind, tag, length or content).
    bad: &'static AtomicU64,
}

pub struct PollLoopback {
    link: Link,
    prog: Progression,
    /// Tag of the message the posted recv is waiting for.
    next_tag: u64,
    posted: TaskHandle,
    /// Root span reserved for the request the posted recv belongs to (its
    /// recv was posted one request early, before that request began).
    posted_root: SpanId,
    attempted: u64,
    failed: u64,
    lost: bool,
}

impl Link {
    fn size_class(&self, tag: u64) -> usize {
        usize::from(self.sizes[tag as usize % SEQ])
    }

    /// Posts the repeat recv-poll task for `tag`.
    fn post_recv(&self, tag: u64, ctx: Option<Ctx>) -> TaskHandle {
        let (mailbox, bad) = (self.mailbox, self.bad);
        let expect = self.payloads[self.size_class(tag)].clone();
        self.mgr
            .task(move |_| {
                let b0 = stamp(ctx);
                let msg = {
                    let mut q = mailbox.lock().expect("mailbox poisoned");
                    match q.front() {
                        Some(m) if m.tag == tag => q.pop_front().expect("front exists"),
                        _ => return TaskStatus::Again,
                    }
                };
                let mut frame = msg.data.unwrap_or_default();
                let d0 = stamp(ctx);
                let wire = Wire::decode(&mut frame);
                let d1 = stamp(ctx);
                let ok = matches!(wire, Some(Wire::Eager { app_tag, size })
                    if app_tag == tag && size as usize == expect.len())
                    && frame.remaining() == expect.len()
                    && frame == expect[..];
                if !ok {
                    bad.fetch_add(1, Ordering::Relaxed);
                }
                if let (Some(c), Some(b0), Some(d0), Some(d1)) = (ctx, b0, d0, d1) {
                    let body = c.tr.reserve();
                    c.tr.span(span::WIRE_DECODE, tag, body, d0, d1);
                    c.tr.fill(body, span::BODY_RECV, tag, c.root, b0, Instant::now());
                }
                TaskStatus::Done
            })
            .cpuset(CpuSet::single(WORKER_CORE))
            .repeat()
            .spawn()
    }

    /// Spawns the one-shot submit task for `tag`.
    fn spawn_submit(&self, tag: u64, ctx: Option<Ctx>) -> TaskHandle {
        let mailbox = self.mailbox;
        let payload = self.payloads[self.size_class(tag)].clone();
        self.mgr
            .task(move |_| {
                let b0 = stamp(ctx);
                let header = Wire::Eager {
                    app_tag: tag,
                    size: payload.len() as u32,
                }
                .encode();
                let e1 = stamp(ctx);
                let mut frame = Rope::from(header);
                frame.push(payload.clone());
                mailbox
                    .lock()
                    .expect("mailbox poisoned")
                    .push_back(Message {
                        src: 0,
                        dst: 1,
                        rail: 0,
                        tag,
                        size: frame.len(),
                        data: Some(frame),
                    });
                if let (Some(c), Some(b0), Some(e1)) = (ctx, b0, e1) {
                    let body = c.tr.reserve();
                    c.tr.span(span::WIRE_ENCODE, tag, body, b0, e1);
                    c.tr.fill(body, span::BODY_SUBMIT, tag, c.root, b0, Instant::now());
                }
                TaskStatus::Done
            })
            .cpuset(CpuSet::single(WORKER_CORE))
            .spawn()
    }
}

impl PollLoopback {
    /// One request. Returns its start and end, or `None` when the message
    /// was lost (deadline missed): the loop cannot go on.
    #[inline]
    fn message(&mut self, tracer: Option<&'static Tracer>) -> Option<(Instant, Instant)> {
        let tag = self.next_tag;
        let ctx = tracer.map(|tr| Ctx {
            tr,
            root: match self.posted_root {
                NO_SPAN => tr.reserve(),
                reserved => reserved,
            },
        });
        let next_ctx = tracer.map(|tr| Ctx {
            tr,
            root: tr.reserve(),
        });
        let bad_before = self.link.bad.load(Ordering::Relaxed);
        let t0 = Instant::now();
        // Next recv first: the worker's queue then never runs empty between
        // this recv completing and the next one arriving, so it never parks.
        let next = self.link.post_recv(tag + 1, next_ctx);
        let t1 = stamp(ctx);
        let submit = self.link.spawn_submit(tag, ctx);
        let t2 = stamp(ctx);
        let arrived = spin_until_complete(&self.posted, t0);
        let t3 = Instant::now();
        if let (Some(c), Some(t1), Some(t2)) = (ctx, t1, t2) {
            c.tr.span(span::SPAWN_RECV, tag, c.root, t0, t1);
            c.tr.span(span::SPAWN_SUBMIT, tag, c.root, t1, t2);
            c.tr.span(span::WAIT, tag, c.root, t2, t3);
            c.tr.fill(c.root, span::REQUEST, tag, NO_SPAN, t0, t3);
        }
        let ok = arrived
            && matches!(self.posted.poll(), Some(Ok(())))
            && matches!(submit.poll(), Some(Ok(())))
            && self.link.bad.load(Ordering::Relaxed) == bad_before;
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.posted = next;
        self.posted_root = next_ctx.map_or(NO_SPAN, |c| c.root);
        self.next_tag = tag + 1;
        if !arrived {
            self.lost = true;
            return None;
        }
        Some((t0, t3))
    }
}

impl Workload for PollLoopback {
    fn setup(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let payloads = SIZES
            .map(|len| Bytes::from((0..len).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>()));
        let sizes = (0..SEQ).map(|_| rng.below(4) as u8).collect();
        let mgr = TaskManager::new(presets::kwak().into());
        let prog = Progression::start(mgr.clone(), ProgressionConfig::for_cores(vec![WORKER_CORE]));
        let link = Link {
            mgr,
            mailbox: Box::leak(Box::new(Mutex::new(VecDeque::new()))),
            payloads,
            sizes,
            bad: Box::leak(Box::new(AtomicU64::new(0))),
        };
        let mut w = PollLoopback {
            posted: link.post_recv(0, None),
            posted_root: NO_SPAN,
            link,
            prog,
            next_tag: 0,
            attempted: 0,
            failed: 0,
            lost: false,
        };
        for _ in 0..WARMUP_MSGS {
            if w.message(None).is_none() {
                break;
            }
        }
        w
    }

    fn measure(&mut self, seconds: f64, tracer: Option<&'static Tracer>) -> Outcome {
        let before = self.link.mgr.stats();
        let idle_before = self.prog.idle_loops();
        let mut window = Window::start(seconds, 1);
        while let Some((t0, t1)) = self.message(tracer) {
            if !window.record(t1, (t1 - t0).as_nanos() as u64, 1, 1) {
                break;
            }
        }
        let window = window.finish();
        let after = self.link.mgr.stats();
        let idle = self.prog.idle_loops() - idle_before;
        let counters = pioman_counters(&before, &after, idle, Some(WORKER_CORE), window.ops);
        Outcome { window, counters }
    }

    fn verdict(&self) -> Verdict {
        Verdict {
            attempted: self.attempted,
            failed: self.failed,
            // Every frame pushed was matched by its own recv, in order.
            correct: self.failed == 0
                && !self.lost
                && self.link.bad.load(Ordering::Relaxed) == 0
                && self
                    .link
                    .mailbox
                    .lock()
                    .expect("mailbox poisoned")
                    .is_empty(),
        }
    }
}
