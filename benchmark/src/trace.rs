//! Benchmark-side span tracer.
//!
//! Spans are recorded from the benchmark's own files only — around each
//! call into a layer and inside the benchmark's own task bodies — into
//! pre-allocated per-thread regions (no lock, no allocation, no shared
//! cache line on the recording path), and are analysed and written out as
//! Chrome trace-event JSON after the run. A span carries its name, start,
//! end, the span that caused it and the request it belongs to; a layer's
//! self time is its span minus the part its child spans cover.

use crate::json::Value;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Span identity: `0` is "no span", otherwise `region * cap + index + 1`.
pub type SpanId = u64;
pub const NO_SPAN: SpanId = 0;

/// One pre-allocated span slot. Plain relaxed atomics: a slot is written
/// by the one thread that owns its region and read only after every
/// recording thread has been joined.
#[derive(Default)]
struct Slot {
    /// `name index << 48 | parent id`.
    meta: AtomicU64,
    req: AtomicU64,
    start: AtomicU64,
    end: AtomicU64,
}

struct Region {
    len: AtomicUsize,
    slots: Box<[Slot]>,
}

/// Threads that may record: the client and one worker, the load model's
/// most. A third thread's spans would be counted as dropped.
const REGIONS: usize = 2;

thread_local! {
    /// `(tracer address, region)` this thread registered with.
    static REGION: Cell<(usize, usize)> = const { Cell::new((0, usize::MAX)) };
}

pub struct Tracer {
    epoch: Instant,
    cap: usize,
    regions: Vec<Region>,
    next_region: AtomicUsize,
    names: Vec<&'static str>,
    dropped: AtomicU64,
}

/// A recorded span, as read back after the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    pub name: &'static str,
    pub parent: SpanId,
    pub req: u64,
    pub start: u64,
    pub end: u64,
    pub thread: usize,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

impl Tracer {
    /// `names` is the closed vocabulary of span names (recorded by index);
    /// `cap` spans fit per recording thread, later ones are counted as
    /// dropped.
    pub fn new(names: &[&'static str], cap: usize) -> Self {
        assert!(names.len() < (1 << 16) && cap < (1 << 40));
        Tracer {
            epoch: Instant::now(),
            cap,
            regions: (0..REGIONS)
                .map(|_| Region {
                    len: AtomicUsize::new(0),
                    slots: (0..cap).map(|_| Slot::default()).collect(),
                })
                .collect(),
            next_region: AtomicUsize::new(0),
            names: names.to_vec(),
            dropped: AtomicU64::new(0),
        }
    }

    /// Nanoseconds from the tracer's epoch to `t`, never 0 (0 marks a slot
    /// that was reserved and not filled).
    #[inline]
    fn ns(&self, t: Instant) -> u64 {
        (t.duration_since(self.epoch).as_nanos() as u64).max(1)
    }

    fn region(&self) -> Option<&Region> {
        let me = self as *const Tracer as usize;
        let (owner, mut idx) = REGION.get();
        if owner != me {
            idx = self.next_region.fetch_add(1, Ordering::Relaxed);
            REGION.set((me, idx));
        }
        self.regions.get(idx)
    }

    /// Claims a slot whose fields are filled later with [`fill`](Self::fill)
    /// — for a parent whose end is not known when its children record.
    #[inline]
    pub fn reserve(&self) -> SpanId {
        let Some(region) = self.region() else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return NO_SPAN;
        };
        // Only this thread writes `len`, so load + store is enough.
        let i = region.len.load(Ordering::Relaxed);
        if i >= self.cap {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return NO_SPAN;
        }
        region.len.store(i + 1, Ordering::Relaxed);
        let r = REGION.get().1;
        (r * self.cap + i + 1) as u64
    }

    /// Fills a reserved slot. A `NO_SPAN` id (buffer full) is ignored.
    #[inline]
    pub fn fill(
        &self,
        id: SpanId,
        name: usize,
        req: u64,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) {
        if id == NO_SPAN {
            return;
        }
        let (start, end) = (self.ns(start), self.ns(end));
        let (r, i) = ((id - 1) as usize / self.cap, (id - 1) as usize % self.cap);
        let slot = &self.regions[r].slots[i];
        slot.meta
            .store((name as u64) << 48 | parent, Ordering::Relaxed);
        slot.req.store(req, Ordering::Relaxed);
        slot.start.store(start, Ordering::Relaxed);
        slot.end.store(end, Ordering::Relaxed);
    }

    /// Records a finished span.
    #[inline]
    pub fn span(
        &self,
        name: usize,
        req: u64,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.reserve();
        self.fill(id, name, req, parent, start, end);
        id
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Every recorded span. Call only after the recording threads were
    /// joined (the join is the happens-before edge for the relaxed slots).
    pub fn spans(&self) -> Vec<Span> {
        let mut out = Vec::new();
        for (r, region) in self.regions.iter().enumerate() {
            let len = region.len.load(Ordering::Relaxed);
            for (i, slot) in region.slots[..len].iter().enumerate() {
                let meta = slot.meta.load(Ordering::Relaxed);
                let end = slot.end.load(Ordering::Relaxed);
                if end == 0 {
                    continue; // reserved, never filled (run ended mid-request)
                }
                out.push(Span {
                    id: (r * self.cap + i + 1) as u64,
                    name: self.names[(meta >> 48) as usize],
                    parent: meta & ((1 << 48) - 1),
                    req: slot.req.load(Ordering::Relaxed),
                    start: slot.start.load(Ordering::Relaxed),
                    end,
                    thread: r,
                });
            }
        }
        out
    }
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, PartialEq)]
pub struct NameSummary {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    /// Span time not covered by the span's direct children.
    pub self_ns: u64,
    pub p50_ns: f64,
}

/// What the traced run derives from its spans.
#[derive(Debug, Clone)]
pub struct Analysis {
    pub by_name: Vec<NameSummary>,
    /// Σ (time covered by direct children) ÷ Σ duration over the spans
    /// named `root`, in percent.
    pub coverage_pct: f64,
    pub roots: u64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut edge) = (0, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(edge), e.min(hi));
        if e > s {
            total += e - s;
            edge = e;
        }
    }
    total
}

pub fn analyse(spans: &[Span], root: &str) -> Analysis {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != NO_SPAN {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    // BTreeMap: the report order must not depend on the hasher's seed.
    let mut acc: std::collections::BTreeMap<&'static str, (u64, u64, Vec<f64>)> =
        Default::default();
    let (mut root_total, mut root_covered, mut roots) = (0u64, 0u64, 0u64);
    for s in spans {
        let kids = children
            .get_mut(&s.id)
            .map_or(0, |k| covered(k, s.start, s.end));
        let entry = acc.entry(s.name).or_default();
        entry.0 += s.dur();
        entry.1 += s.dur() - kids;
        entry.2.push(s.dur() as f64);
        if s.name == root {
            root_total += s.dur();
            root_covered += kids;
            roots += 1;
        }
    }
    Analysis {
        by_name: acc
            .into_iter()
            .map(|(name, (total_ns, self_ns, durs))| NameSummary {
                name,
                count: durs.len() as u64,
                total_ns,
                self_ns,
                p50_ns: crate::stats::median(&durs),
            })
            .collect(),
        coverage_pct: if root_total == 0 {
            0.0
        } else {
            100.0 * root_covered as f64 / root_total as f64
        },
        roots,
    }
}

/// Chrome trace-event JSON ("X" complete events, microsecond timestamps)
/// of the first `limit` spans in start order; load it in `chrome://tracing`
/// or Perfetto.
pub fn chrome_json(spans: &[Span], limit: usize) -> String {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start, s.id));
    let events = sorted
        .into_iter()
        .take(limit)
        .map(|s| {
            Value::obj([
                ("name", Value::Str(s.name.to_owned())),
                ("cat", Value::Str("bench".to_owned())),
                ("ph", Value::Str("X".to_owned())),
                ("ts", Value::Num(s.start as f64 / 1e3)),
                ("dur", Value::Num(s.dur() as f64 / 1e3)),
                ("pid", Value::Num(1.0)),
                ("tid", Value::Num(s.thread as f64)),
                (
                    "args",
                    Value::obj([
                        ("id", Value::Num(s.id as f64)),
                        ("parent", Value::Num(s.parent as f64)),
                        ("req", Value::Num(s.req as f64)),
                    ]),
                ),
            ])
        })
        .collect();
    Value::obj([
        ("displayTimeUnit", Value::Str("ns".to_owned())),
        ("traceEvents", Value::Arr(events)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: &[&str] = &["request", "spawn", "schedule", "body"];

    /// The instant `ns` after the tracer's epoch.
    fn at(tr: &Tracer, ns: u64) -> Instant {
        tr.epoch + std::time::Duration::from_nanos(ns)
    }

    #[test]
    fn spans_round_trip_with_parent_and_request() {
        let tr = Tracer::new(NAMES, 8);
        let root = tr.reserve();
        let spawn = tr.span(1, 7, root, at(&tr, 10), at(&tr, 40));
        let sched = tr.reserve();
        let body = tr.span(3, 7, sched, at(&tr, 55), at(&tr, 60));
        tr.fill(sched, 2, 7, root, at(&tr, 40), at(&tr, 90));
        tr.fill(root, 0, 7, NO_SPAN, at(&tr, 10), at(&tr, 100));
        let spans = tr.spans();
        assert_eq!(spans.len(), 4);
        let get = |id| spans.iter().find(|s| s.id == id).expect("recorded");
        assert_eq!(
            (get(root).name, get(root).parent, get(root).dur()),
            ("request", 0, 90)
        );
        assert_eq!((get(spawn).name, get(spawn).parent), ("spawn", root));
        assert_eq!((get(body).parent, get(body).req), (sched, 7));

        let a = analyse(&spans, "request");
        // Children cover [10,40] and [40,90] of [10,100].
        assert!((a.coverage_pct - 100.0 * 80.0 / 90.0).abs() < 1e-9);
        let sched_sum = a.by_name.iter().find(|n| n.name == "schedule").unwrap();
        assert_eq!((sched_sum.total_ns, sched_sum.self_ns), (50, 45));
        let root_sum = a.by_name.iter().find(|n| n.name == "request").unwrap();
        assert_eq!((root_sum.self_ns, a.roots), (10, 1));
    }

    #[test]
    fn overlapping_children_are_not_counted_twice() {
        assert_eq!(covered(&mut [(0, 10), (5, 15), (30, 50)], 2, 40), 23);
        assert_eq!(covered(&mut [], 0, 10), 0);
    }

    #[test]
    fn a_full_region_drops_and_counts() {
        let tr = Tracer::new(NAMES, 2);
        assert_ne!(tr.span(0, 1, NO_SPAN, at(&tr, 1), at(&tr, 2)), NO_SPAN);
        assert_ne!(tr.span(0, 2, NO_SPAN, at(&tr, 2), at(&tr, 3)), NO_SPAN);
        assert_eq!(tr.span(0, 3, NO_SPAN, at(&tr, 3), at(&tr, 4)), NO_SPAN);
        assert_eq!((tr.spans().len(), tr.dropped()), (2, 1));
    }

    #[test]
    fn each_thread_records_into_its_own_region() {
        let tr = Tracer::new(NAMES, 4);
        tr.span(0, 1, NO_SPAN, at(&tr, 1), at(&tr, 2));
        std::thread::scope(|s| {
            s.spawn(|| tr.span(3, 1, NO_SPAN, at(&tr, 5), at(&tr, 6)));
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_ne!(spans[0].thread, spans[1].thread);
    }

    #[test]
    fn chrome_json_is_valid_and_bounded() {
        let tr = Tracer::new(NAMES, 8);
        for i in 0..5 {
            tr.span(
                1,
                i,
                NO_SPAN,
                at(&tr, 1000 * i + 1),
                at(&tr, 1000 * i + 500),
            );
        }
        let doc = crate::json::parse(&chrome_json(&tr.spans(), 3)).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(events[1].get("ts").and_then(Value::as_f64), Some(1.001));
    }
}
