//! A simulated thread scheduler with PIOMan keypoint hooks.
//!
//! The real PIOMan rides on MARCEL, a user-level thread scheduler that
//! "schedules PIOMan on some triggers (CPU idleness, context switches, timer
//! interrupts) so as to ensure a fast detection of communication events"
//! (§IV-A). This module is the simulated-machine equivalent: a preemptive
//! round-robin scheduler over the machine's cores, firing a caller-supplied
//! hook at exactly those three keypoint kinds.
//!
//! Threads are continuation-style state machines: whenever the scheduler is
//! ready to run a thread, it calls the thread's [`Logic`] with the simulator
//! for the next [`Step`] — compute for a while, block on a [`CondId`],
//! yield, or exit.
//! This is how the latency and overlap experiments (Figs. 4–7) model their
//! application threads: computing occupies the core (no progress happens
//! unless a hook fires or another core is idle), blocking frees the core
//! (the scheduler goes idle and the idle hook — i.e. PIOMan — runs).
//!
//! `madmpi::SimCluster` installs the PIOMan hook: it runs Algorithm 1
//! (`pioman::TaskManager::schedule`) on the node's real task manager,
//! whose Global Queue holds the engine's poll as a repeat task. The
//! scheduler charges nothing for the hook's work yet; only the keypoint's
//! own costs (context switch, idle re-poll) advance the clock.

use crate::cost::{CONTEXT_SWITCH, TIMER_SLICE};
use piom_des::{Sim, SimTime};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// How often an idle core re-polls (fires the idle hook again) while any
/// thread is live. Once none is, idle cores stop re-polling so the embedding
/// `Sim::run` can terminate.
const IDLE_REPOLL: SimTime = SimTime::from_ns(200);

/// What a thread does next.
pub enum Step {
    /// Occupy the core for this long (preempted at [`TIMER_SLICE`]
    /// boundaries).
    Compute(SimTime),
    /// Sleep until [`ThreadSched::notify`] is called on this condition.
    Block(CondId),
    /// Go to the back of the run queue.
    Yield,
    /// Terminate the thread.
    Exit,
}

/// Identifier of a simulated condition variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CondId(pub usize);

/// The scheduler keypoints at which the hook fires (paper §III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keypoint {
    /// A core has no ready thread.
    Idle,
    /// The core switched from one thread to another.
    ContextSwitch,
    /// A compute quantum expired (timer interrupt).
    Timer,
}

/// The hook invoked at keypoints: `(sim, core, keypoint)`. This is where a
/// communication engine plugs its task scheduling in.
pub type Hook = Rc<dyn Fn(&mut Sim, usize, Keypoint)>;

/// Thread logic: called with the simulator each time the scheduler needs
/// the thread's next step.
pub type Logic = Box<dyn FnMut(&mut Sim) -> Step>;

/// A simulated thread: its index in `SchedState::threads`.
#[derive(Clone, Copy)]
struct ThreadId(usize);

struct ThreadSt {
    logic: Option<Logic>,
    /// Remainder of a preempted compute step.
    remaining: Option<SimTime>,
    core: usize,
}

struct CoreSt {
    run_queue: VecDeque<ThreadId>,
    /// A thread occupies the core.
    busy: bool,
    /// Set while a dispatch/idle-loop event chain is pending.
    dispatch_pending: bool,
}

struct SchedState {
    threads: Vec<ThreadSt>,
    conds: Vec<Vec<ThreadId>>,
    cores: Vec<CoreSt>,
    hook: Option<Hook>,
    /// Threads not yet exited; idle cores stop re-polling at zero.
    live_threads: usize,
}

/// A simulated preemptive thread scheduler for one machine.
///
/// Cloneable handle (shared state). Typical use: create, [`set_hook`],
/// spawn threads, then drive the embedding [`Sim`] to completion.
///
/// [`set_hook`]: ThreadSched::set_hook
#[derive(Clone)]
pub struct ThreadSched {
    st: Rc<RefCell<SchedState>>,
}

impl ThreadSched {
    /// Creates a scheduler for a machine of `n_cores` cores.
    pub fn new(n_cores: usize) -> Self {
        ThreadSched {
            st: Rc::new(RefCell::new(SchedState {
                threads: Vec::new(),
                conds: Vec::new(),
                cores: (0..n_cores)
                    .map(|_| CoreSt {
                        run_queue: VecDeque::new(),
                        busy: false,
                        dispatch_pending: false,
                    })
                    .collect(),
                hook: None,
                live_threads: 0,
            })),
        }
    }

    /// Installs the keypoint hook (PIOMan's entry point).
    pub fn set_hook(&self, hook: Hook) {
        self.st.borrow_mut().hook = Some(hook);
    }

    /// Creates a condition variable.
    pub fn new_cond(&self) -> CondId {
        let mut st = self.st.borrow_mut();
        st.conds.push(Vec::new());
        CondId(st.conds.len() - 1)
    }

    /// Spawns a thread pinned to `core`; it becomes runnable immediately.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn spawn(&self, sim: &mut Sim, core: usize, logic: Logic) {
        let n = {
            let mut st = self.st.borrow_mut();
            assert!(core < st.cores.len(), "core out of range");
            st.threads.push(ThreadSt {
                logic: Some(logic),
                remaining: None,
                core,
            });
            st.live_threads += 1;
            let tid = ThreadId(st.threads.len() - 1);
            st.cores[core].run_queue.push_back(tid);
            st.cores.len()
        };
        // Kick every core, not just the target: once the machine has any
        // live thread, all cores run their idle loops (and hence fire the
        // idle keypoint, where PIOMan progresses communication).
        for c in 0..n {
            self.kick(sim, c);
        }
    }

    /// Wakes every thread blocked on `cond`.
    pub fn notify(&self, sim: &mut Sim, cond: CondId) {
        let cores: Vec<usize> = {
            let mut st = self.st.borrow_mut();
            let waiters = std::mem::take(&mut st.conds[cond.0]);
            let mut cores = Vec::with_capacity(waiters.len());
            for tid in waiters {
                let core = st.threads[tid.0].core;
                st.cores[core].run_queue.push_back(tid);
                cores.push(core);
            }
            cores
        };
        for core in cores {
            self.kick(sim, core);
        }
    }

    /// Ensures `core` has a dispatch event pending if it is sitting idle.
    fn kick(&self, sim: &mut Sim, core: usize) {
        let should_dispatch = {
            let mut st = self.st.borrow_mut();
            let c = &mut st.cores[core];
            if !c.busy && !c.dispatch_pending {
                c.dispatch_pending = true;
                true
            } else {
                false
            }
        };
        if should_dispatch {
            let this = self.clone();
            sim.schedule(SimTime::ZERO, move |sim| this.dispatch(sim, core));
        }
    }

    /// Picks and runs the next thread on `core`, or enters the idle loop.
    fn dispatch(&self, sim: &mut Sim, core: usize) {
        let (next, hook) = {
            let mut st = self.st.borrow_mut();
            st.cores[core].dispatch_pending = false;
            let next = st.cores[core].run_queue.pop_front();
            (next, st.hook.clone())
        };
        match next {
            Some(tid) => {
                self.st.borrow_mut().cores[core].busy = true;
                // Keypoint: context switch. PIOMan gets a shot before the
                // thread starts its quantum.
                if let Some(h) = &hook {
                    h(sim, core, Keypoint::ContextSwitch);
                }
                let this = self.clone();
                sim.schedule(CONTEXT_SWITCH, move |sim| this.run_step(sim, core, tid));
            }
            None => {
                // Keypoint: idle. Fire the hook, then re-poll.
                if let Some(h) = &hook {
                    h(sim, core, Keypoint::Idle);
                }
                {
                    let mut st = self.st.borrow_mut();
                    if st.live_threads == 0 {
                        return; // machine quiesces; let the sim drain
                    }
                    st.cores[core].dispatch_pending = true;
                }
                let this = self.clone();
                sim.schedule(IDLE_REPOLL, move |sim| this.dispatch(sim, core));
            }
        }
    }

    /// Runs one step (or preempted remainder) of `tid` on `core`.
    fn run_step(&self, sim: &mut Sim, core: usize, tid: ThreadId) {
        // Resume a preempted compute, or ask the thread logic for its next
        // step (logic is temporarily moved out so it can borrow the world).
        let pending = self.st.borrow_mut().threads[tid.0].remaining.take();
        let step = match pending {
            Some(rem) => Step::Compute(rem),
            None => {
                let mut logic = {
                    let mut st = self.st.borrow_mut();
                    st.threads[tid.0]
                        .logic
                        .take()
                        .expect("running thread has logic")
                };
                let s = logic(sim);
                self.st.borrow_mut().threads[tid.0].logic = Some(logic);
                s
            }
        };
        match step {
            Step::Compute(d) => {
                if d > TIMER_SLICE {
                    // Quantum expires mid-compute: timer keypoint, requeue.
                    {
                        let mut st = self.st.borrow_mut();
                        st.threads[tid.0].remaining = Some(d - TIMER_SLICE);
                    }
                    let this = self.clone();
                    sim.schedule(TIMER_SLICE, move |sim| {
                        let hook = this.st.borrow().hook.clone();
                        if let Some(h) = &hook {
                            h(sim, core, Keypoint::Timer);
                        }
                        this.preempt(sim, core, tid);
                    });
                } else {
                    let this = self.clone();
                    sim.schedule(d, move |sim| this.run_step(sim, core, tid));
                }
            }
            Step::Block(cond) => {
                {
                    let mut st = self.st.borrow_mut();
                    st.conds[cond.0].push(tid);
                    st.cores[core].busy = false;
                }
                self.dispatch(sim, core);
            }
            Step::Yield => {
                {
                    let mut st = self.st.borrow_mut();
                    st.cores[core].run_queue.push_back(tid);
                    st.cores[core].busy = false;
                }
                self.dispatch(sim, core);
            }
            Step::Exit => {
                {
                    let mut st = self.st.borrow_mut();
                    st.threads[tid.0].logic = None;
                    st.cores[core].busy = false;
                    st.live_threads -= 1;
                }
                self.dispatch(sim, core);
            }
        }
    }

    /// Timer preemption: requeue `tid` and dispatch the next thread.
    fn preempt(&self, sim: &mut Sim, core: usize, tid: ThreadId) {
        {
            let mut st = self.st.borrow_mut();
            st.cores[core].run_queue.push_back(tid);
            st.cores[core].busy = false;
        }
        self.dispatch(sim, core);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piom_topology::presets;
    use std::cell::Cell;

    fn sched() -> (ThreadSched, Sim) {
        (
            ThreadSched::new(presets::borderline().n_cores()),
            Sim::new(),
        )
    }

    #[test]
    fn single_thread_computes_then_exits() {
        let (sched, mut sim) = sched();
        let done_at = Rc::new(Cell::new(SimTime::ZERO));
        let d = done_at.clone();
        let mut phase = 0;
        sched.spawn(
            &mut sim,
            0,
            Box::new(move |sim| {
                phase += 1;
                match phase {
                    1 => Step::Compute(SimTime::from_us(5)),
                    _ => {
                        d.set(sim.now());
                        Step::Exit
                    }
                }
            }),
        );
        sim.run();
        assert!(done_at.get() >= SimTime::from_us(5));
    }

    #[test]
    fn round_robin_interleaves_threads() {
        let (sched, mut sim) = sched();
        // Two CPU-bound threads on one core, each computing 3 long slices.
        let log: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        for who in 0..2usize {
            let log = log.clone();
            let mut steps = 0;
            sched.spawn(
                &mut sim,
                0,
                Box::new(move |_| {
                    steps += 1;
                    if steps <= 3 {
                        log.borrow_mut().push(who);
                        // Longer than the 10 ms TIMER_SLICE => preemption.
                        Step::Compute(SimTime::from_ms(25))
                    } else {
                        Step::Exit
                    }
                }),
            );
        }
        sim.run();
        let log = log.borrow();
        let first_of_1 = log.iter().position(|&w| w == 1).unwrap();
        let last_of_0 = log.iter().rposition(|&w| w == 0).unwrap();
        assert!(first_of_1 < last_of_0, "no interleaving observed: {log:?}");
    }

    #[test]
    fn block_and_notify() {
        let (sched, mut sim) = sched();
        let cond = sched.new_cond();
        let woke_at = Rc::new(Cell::new(SimTime::ZERO));
        let w = woke_at.clone();
        let mut phase = 0;
        sched.spawn(
            &mut sim,
            0,
            Box::new(move |sim| {
                phase += 1;
                match phase {
                    1 => Step::Block(cond),
                    _ => {
                        w.set(sim.now());
                        Step::Exit
                    }
                }
            }),
        );
        let s2 = sched.clone();
        sim.schedule(SimTime::from_us(50), move |sim| s2.notify(sim, cond));
        sim.run();
        assert!(woke_at.get() >= SimTime::from_us(50), "woke early");
    }

    #[test]
    fn idle_hook_fires_when_core_empty() {
        let (sched, mut sim) = sched();
        let idle_hits = Rc::new(Cell::new(0u64));
        let h = idle_hits.clone();
        sched.set_hook(Rc::new(move |_, _, k| {
            if k == Keypoint::Idle {
                h.set(h.get() + 1);
            }
        }));
        // A thread that blocks forever: its core then idles.
        let cond = sched.new_cond();
        sched.spawn(&mut sim, 0, Box::new(move |_| Step::Block(cond)));
        sim.run_until(SimTime::from_us(10));
        assert!(
            idle_hits.get() > 10,
            "idle hook barely fired: {}",
            idle_hits.get()
        );
    }

    #[test]
    fn timer_hook_fires_during_long_compute() {
        let (sched, mut sim) = sched();
        let timer_hits = Rc::new(Cell::new(0u64));
        let h = timer_hits.clone();
        sched.set_hook(Rc::new(move |_, _, k| {
            if k == Keypoint::Timer {
                h.set(h.get() + 1);
            }
        }));
        let mut phase = 0;
        sched.spawn(
            &mut sim,
            1,
            Box::new(move |_| {
                phase += 1;
                if phase == 1 {
                    Step::Compute(TIMER_SLICE * 4 + SimTime::from_ms(5))
                } else {
                    Step::Exit
                }
            }),
        );
        sim.run();
        assert_eq!(timer_hits.get(), 4);
    }

    #[test]
    fn context_switch_hook_and_counters() {
        let (sched, mut sim) = sched();
        let cs_hits = Rc::new(Cell::new(0u64));
        let h = cs_hits.clone();
        sched.set_hook(Rc::new(move |_, _, k| {
            if k == Keypoint::ContextSwitch {
                h.set(h.get() + 1);
            }
        }));
        for _ in 0..3 {
            let mut phase = 0;
            sched.spawn(
                &mut sim,
                2,
                Box::new(move |_| {
                    phase += 1;
                    if phase <= 2 {
                        Step::Yield
                    } else {
                        Step::Exit
                    }
                }),
            );
        }
        sim.run();
        assert_eq!(cs_hits.get(), 9, "3 threads x 3 dispatches");
    }

    #[test]
    fn threads_on_different_cores_run_in_parallel() {
        let (sched, mut sim) = sched();
        let finish: Rc<RefCell<Vec<SimTime>>> = Rc::new(RefCell::new(Vec::new()));
        for core in [0usize, 3] {
            let f = finish.clone();
            let mut phase = 0;
            sched.spawn(
                &mut sim,
                core,
                Box::new(move |sim| {
                    phase += 1;
                    if phase == 1 {
                        Step::Compute(SimTime::from_ms(5))
                    } else {
                        f.borrow_mut().push(sim.now());
                        Step::Exit
                    }
                }),
            );
        }
        sim.run();
        let f = finish.borrow();
        assert_eq!(f.len(), 2);
        // True parallelism: both finish ~5 ms, not 10 ms serialized.
        for t in f.iter() {
            assert!(*t < SimTime::from_ms(6), "serialized execution: {t}");
        }
    }

    #[test]
    fn oversubscription_slows_completion() {
        // 8 CPU-bound threads on 1 core take ~8x longer than 1 thread.
        let durations: Vec<u64> = [1usize, 8]
            .iter()
            .map(|&n| {
                let (sched, mut sim) = sched();
                for _ in 0..n {
                    let mut phase = 0;
                    sched.spawn(
                        &mut sim,
                        0,
                        Box::new(move |_| {
                            phase += 1;
                            if phase == 1 {
                                Step::Compute(SimTime::from_ms(30))
                            } else {
                                Step::Exit
                            }
                        }),
                    );
                }
                sim.run().as_ns()
            })
            .collect();
        assert!(
            durations[1] > 7 * durations[0],
            "oversubscription not serialized: {durations:?}"
        );
    }

    #[test]
    #[should_panic(expected = "core out of range")]
    fn spawn_on_bad_core_panics() {
        let (sched, mut sim) = sched();
        sched.spawn(&mut sim, 99, Box::new(|_| Step::Exit));
    }
}
