//! Deterministic discrete-event simulation (DES) kernel.
//!
//! The paper's evaluation ran on 8- and 16-core NUMA Opterons and an
//! InfiniBand cluster. This reproduction substitutes those testbeds with a
//! simulated machine and network (see `DESIGN.md` §3); this crate is the
//! simulation engine underneath both:
//!
//! * [`SimTime`] — a nanosecond-resolution simulated clock value;
//! * [`Sim`] — the event loop: a priority queue of timestamped events with
//!   deterministic FIFO tie-breaking;
//! * [`rng::SplitMix64`] — a tiny deterministic PRNG so simulations are
//!   reproducible from a seed (no ambient entropy);
//! * [`stats`] — an online mean accumulator, used by the Tables I–II and
//!   Fig. 4 drivers.
//!
//! An event is one of two kinds:
//!
//! * a boxed `FnOnce(&mut Sim)` closure ([`Sim::schedule`]): one heap
//!   block per event, for one-off work;
//! * a shared [`Handler`] ([`Sim::schedule_shared`]): a standing
//!   `Rc<dyn Handler>` built once and scheduled any number of times.
//!   Scheduling one clones the `Rc` and allocates nothing; the pending
//!   event owns that clone, so the handler (and whatever it holds) stays
//!   alive until the event has run, exactly as a pending closure does. A
//!   model that fires the same kind of event again and again — a NIC's
//!   transmit-done and arrival events — keeps its per-event data in its
//!   own queues and schedules its handler instead of a fresh closure.
//!
//! Model state lives in `Rc<RefCell<...>>` captured by the closures and
//! handlers — the kernel itself is single-threaded and allocation-light.
//!
//! # Quick start
//!
//! ```
//! use piom_des::{Sim, SimTime};
//!
//! let mut sim = Sim::new();
//! // An event may schedule follow-up events relative to its own time.
//! sim.schedule(SimTime::from_us(3), |sim| {
//!     sim.schedule(SimTime::from_us(2), |_| {});
//! });
//! let end = sim.run();
//! assert_eq!(end, SimTime::from_us(5));
//! assert_eq!(sim.events_executed(), 2);
//! ```

#![warn(missing_docs)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

pub mod rng;
pub mod stats;

mod time;
pub use time::SimTime;

/// An event: a closure run at its scheduled time with access to the kernel
/// (so it can schedule follow-up events).
pub type Event = Box<dyn FnOnce(&mut Sim)>;

/// A standing event handler, scheduled by reference with
/// [`Sim::schedule_shared`] as often as needed.
///
/// [`fire`](Handler::fire) receives the very `Rc` that was scheduled, so a
/// handler can schedule itself again without holding a reference to
/// itself. Every `Fn(&mut Sim)` closure is a handler.
///
/// ```
/// use piom_des::{Handler, Sim, SimTime};
/// use std::{cell::Cell, rc::Rc};
///
/// /// Ticks every 10 ns, three times.
/// struct Ticker(Cell<u32>);
///
/// impl Handler for Ticker {
///     fn fire(self: Rc<Self>, sim: &mut Sim) {
///         self.0.set(self.0.get() + 1);
///         if self.0.get() < 3 {
///             sim.schedule_shared(SimTime::from_ns(10), self);
///         }
///     }
/// }
///
/// let ticker = Rc::new(Ticker(Cell::new(0)));
/// let mut sim = Sim::new();
/// sim.schedule_shared(SimTime::ZERO, ticker.clone());
/// assert_eq!(sim.run(), SimTime::from_ns(20));
/// assert_eq!(ticker.0.get(), 3);
/// ```
pub trait Handler {
    /// Runs the event at its scheduled time.
    fn fire(self: Rc<Self>, sim: &mut Sim);
}

impl<F: Fn(&mut Sim)> Handler for F {
    fn fire(self: Rc<Self>, sim: &mut Sim) {
        self(sim)
    }
}

/// What a pending event runs.
enum Run {
    Once(Event),
    Shared(Rc<dyn Handler>),
}

struct Entry {
    at: SimTime,
    seq: u64,
    run: Run,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The discrete-event simulation kernel.
///
/// # Determinism
///
/// Events at equal timestamps run in scheduling (FIFO) order; no ambient
/// randomness is used. Two runs of the same model with the same seed produce
/// identical event sequences.
///
/// # Examples
///
/// ```
/// use piom_des::{Sim, SimTime};
/// use std::{cell::RefCell, rc::Rc};
///
/// let log = Rc::new(RefCell::new(Vec::new()));
/// let mut sim = Sim::new();
/// let l = log.clone();
/// sim.schedule(SimTime::from_ns(10), move |sim| {
///     l.borrow_mut().push((sim.now().as_ns(), "b"));
/// });
/// let l = log.clone();
/// sim.schedule(SimTime::ZERO, move |sim| {
///     l.borrow_mut().push((sim.now().as_ns(), "a"));
/// });
/// sim.run();
/// assert_eq!(*log.borrow(), vec![(0, "a"), (10, "b")]);
/// ```
pub struct Sim {
    now: SimTime,
    heap: BinaryHeap<Reverse<Entry>>,
    seq: u64,
    stopped: bool,
    executed: u64,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Creates an empty simulation at time zero.
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            heap: BinaryHeap::new(),
            seq: 0,
            stopped: false,
            executed: 0,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    #[inline]
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Schedules `event` to run `delay` after the current time.
    pub fn schedule<F: FnOnce(&mut Sim) + 'static>(&mut self, delay: SimTime, event: F) {
        let at = self.now + delay;
        self.schedule_abs(at, event);
    }

    /// Schedules `event` at the absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_abs<F: FnOnce(&mut Sim) + 'static>(&mut self, at: SimTime, event: F) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.push(at, Run::Once(Box::new(event)));
    }

    /// Schedules the shared `handler` to fire `delay` after the current
    /// time. Allocates nothing: the pending event owns the `Rc` it was
    /// given, and [`Handler::fire`] receives it back.
    pub fn schedule_shared(&mut self, delay: SimTime, handler: Rc<dyn Handler>) {
        let at = self.now + delay;
        self.push(at, Run::Shared(handler));
    }

    fn push(&mut self, at: SimTime, run: Run) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { at, seq, run }));
    }

    /// Executes the next pending event, advancing the clock to its timestamp.
    /// Returns `false` when no event is pending (or the sim was stopped).
    pub fn step(&mut self) -> bool {
        if self.stopped {
            return false;
        }
        let Some(Reverse(entry)) = self.heap.pop() else {
            return false;
        };
        debug_assert!(entry.at >= self.now, "event from the past");
        self.now = entry.at;
        match entry.run {
            Run::Once(event) => event(self),
            Run::Shared(handler) => handler.fire(self),
        }
        self.executed += 1;
        true
    }

    /// Runs until no events remain or [`Sim::stop`] is called. Returns the
    /// final simulated time.
    pub fn run(&mut self) -> SimTime {
        while self.step() {}
        self.now
    }

    /// Runs until the clock would pass `deadline` (events at exactly
    /// `deadline` still run), no events remain, or the sim is stopped.
    /// The clock is left at `min(deadline, final event time)`.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        while !self.stopped {
            match self.heap.peek() {
                Some(Reverse(e)) if e.at <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        if self.now < deadline && !self.stopped {
            self.now = deadline;
        }
        self.now
    }

    /// Stops the run loop after the current event. Further `step`/`run`
    /// calls do nothing.
    pub fn stop(&mut self) {
        self.stopped = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};

    fn ns(n: u64) -> SimTime {
        SimTime::from_ns(n)
    }

    #[test]
    fn runs_in_time_order() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        for (delay, tag) in [(30u64, 'c'), (10, 'a'), (20, 'b')] {
            let o = order.clone();
            sim.schedule(ns(delay), move |_| o.borrow_mut().push(tag));
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!['a', 'b', 'c']);
        assert_eq!(sim.now(), ns(30));
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn fifo_tie_breaking_at_equal_times() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        for tag in 0..10 {
            let o = order.clone();
            sim.schedule(ns(5), move |_| o.borrow_mut().push(tag));
        }
        sim.run();
        assert_eq!(*order.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let hits = Rc::new(Cell::new(0u32));
        let mut sim = Sim::new();
        let h = hits.clone();
        sim.schedule(ns(1), move |sim| {
            h.set(h.get() + 1);
            let h2 = h.clone();
            sim.schedule(ns(1), move |_| h2.set(h2.get() + 1));
        });
        sim.run();
        assert_eq!(hits.get(), 2);
        assert_eq!(sim.now(), ns(2));
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let mut sim = Sim::new();
        let hit = Rc::new(Cell::new(false));
        let h = hit.clone();
        sim.schedule(ns(100), move |_| h.set(true));
        sim.run_until(ns(50));
        assert!(!hit.get());
        assert_eq!(sim.now(), ns(50), "clock advances to deadline");
        sim.run_until(ns(100));
        assert!(hit.get(), "event at exactly the deadline runs");
    }

    #[test]
    fn stop_halts_run() {
        let mut sim = Sim::new();
        let count = Rc::new(Cell::new(0));
        for i in 0..10u64 {
            let c = count.clone();
            sim.schedule(ns(i), move |sim| {
                c.set(c.get() + 1);
                if c.get() == 3 {
                    sim.stop();
                }
            });
        }
        sim.run();
        assert_eq!(count.get(), 3);
        assert_eq!(sim.events_executed(), 3);
        sim.run();
        assert_eq!(count.get(), 3, "a stopped sim stays stopped");
    }

    #[test]
    fn run_until_landing_exactly_on_an_event_timestamp() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        let o = order.clone();
        sim.schedule(ns(100), move |sim| {
            o.borrow_mut().push("at-deadline");
            // A zero-delay follow-up lands at exactly the deadline too and
            // must run within the same run_until (the loop re-peeks).
            let o2 = o.clone();
            sim.schedule(SimTime::ZERO, move |_| o2.borrow_mut().push("chained"));
        });
        let o = order.clone();
        sim.schedule(ns(101), move |_| o.borrow_mut().push("past-deadline"));
        let end = sim.run_until(ns(100));
        assert_eq!(*order.borrow(), vec!["at-deadline", "chained"]);
        assert_eq!(end, ns(100), "clock rests at the deadline, not past it");
        sim.run();
        assert_eq!(order.borrow().last(), Some(&"past-deadline"));
        assert_eq!(sim.events_executed(), 3, "the 101 ns event ran once, after");
    }

    #[test]
    fn stop_mid_step_freezes_run_until_clock() {
        let mut sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        sim.schedule(ns(10), move |sim| {
            l.borrow_mut().push(sim.now().as_ns());
            sim.stop(); // mid-step: the loop must halt after this event
        });
        let l = log.clone();
        sim.schedule(ns(20), move |sim| l.borrow_mut().push(sim.now().as_ns()));
        let end = sim.run_until(ns(50));
        // Stopped mid-run: the clock stays at the stopping event's time
        // rather than jumping to the deadline.
        assert_eq!(end, ns(10));
        assert!(!sim.step(), "step is inert while stopped");
        assert_eq!(sim.run_until(ns(50)), ns(10), "run_until is inert too");
        assert_eq!(sim.events_executed(), 1);
        assert_eq!(*log.borrow(), vec![10]);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Sim::new();
        sim.schedule(ns(10), |sim| {
            sim.schedule_abs(SimTime::from_ns(5), |_| {});
        });
        sim.run();
    }

    #[test]
    fn shared_events_interleave_with_closures_in_fifo_order() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let o = order.clone();
        let shared: Rc<dyn Handler> = Rc::new(move |sim: &mut Sim| {
            o.borrow_mut().push(("shared", sim.now().as_ns()));
        });
        let mut sim = Sim::new();
        for _ in 0..2 {
            sim.schedule_shared(ns(5), shared.clone());
            let o = order.clone();
            sim.schedule(ns(5), move |sim| {
                o.borrow_mut().push(("once", sim.now().as_ns()))
            });
        }
        sim.schedule_shared(ns(1), shared.clone());
        assert_eq!(
            Rc::strong_count(&shared),
            4,
            "each pending event owns one clone"
        );
        sim.run();
        assert_eq!(
            *order.borrow(),
            vec![
                ("shared", 1),
                ("shared", 5),
                ("once", 5),
                ("shared", 5),
                ("once", 5)
            ]
        );
        assert_eq!(sim.events_executed(), 5);
        assert_eq!(
            Rc::strong_count(&shared),
            1,
            "fired events give theirs back"
        );
    }

    #[test]
    fn a_pending_shared_event_keeps_its_handler_alive() {
        let hit = Rc::new(Cell::new(false));
        let h = hit.clone();
        let mut sim = Sim::new();
        let handler: Rc<dyn Handler> = Rc::new(move |_: &mut Sim| h.set(true));
        sim.schedule_shared(ns(3), handler);
        sim.run();
        assert!(hit.get(), "the caller's last handle was gone before it ran");
    }

    #[test]
    fn zero_delay_event_runs_at_current_time() {
        let mut sim = Sim::new();
        let t = Rc::new(Cell::new(SimTime::ZERO));
        let t2 = t.clone();
        sim.schedule(ns(7), move |sim| {
            let t3 = t2.clone();
            sim.schedule(SimTime::ZERO, move |sim| t3.set(sim.now()));
        });
        sim.run();
        assert_eq!(t.get(), ns(7));
    }
}
