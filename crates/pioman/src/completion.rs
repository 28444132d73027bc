//! Task completion tracking: poll, block, or actively schedule while waiting.
//!
//! Since PR 8 a completion is also the release point of the **dependency
//! waitlist**: tasks submitted with `.after(&handle)` park in a
//! [`PendingTask`](crate::manager) registered here as a waiter, and the
//! completion path drains the waiter list exactly once — whether the
//! predecessor finished or panicked (a dependent is *released*, never
//! cancelled, so pipelines drain instead of wedging).

use crate::manager::PendingTask;
use core::sync::atomic::{AtomicU8, Ordering};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::sync::{Arc, OnceLock};

// The state word: a phase in the low bits, plus `SLOW`.
const PENDING: u8 = 0;
const DONE: u8 = 1;
const PANICKED: u8 = 2;
const PHASE: u8 = 0b11;
/// Somebody registered interest in the slow block while the task was
/// pending: the completer must lock it, notify and drain.
const SLOW: u8 = 0b100;

/// Error returned by [`TaskHandle::wait`] family when the task body panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskError {
    /// Panic payload rendered to a string, when it was a string.
    pub message: String,
}

impl core::fmt::Display for TaskError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "task panicked: {}", self.message)
    }
}

impl std::error::Error for TaskError {}

/// Shared completion state between a task and its handle: one atomic word
/// plus a slow block that exists only once somebody needs it.
///
/// A task nobody blocks on, depends on or makes depend on anything — the
/// common case — completes with a single `swap` on `state`: no lock, no
/// wake-up syscall, no allocation. Everything else goes through the slow
/// block, allocated by whoever first registers interest (a blocking
/// [`TaskHandle::wait`], an `.after()` dependent, [`set_deps`](Self::set_deps))
/// or by a panic that has a message to leave behind.
///
/// The handshake is two read-modify-writes on `state`, which are totally
/// ordered: a registrant does `lock(slow); fetch_or(SLOW)`, the completer
/// does `swap(final)` and, iff the previous word had `SLOW`, `lock(slow)` +
/// notify + drain. If the `fetch_or` comes first the completer sees `SLOW`
/// and its drain — serialized behind the registrant by the slow mutex —
/// includes the registration; if the `swap` comes first the registrant sees
/// a final phase and is told "already complete". Never both, never neither.
/// The registrant holds the slow mutex *across* its `fetch_or`, so the
/// completer cannot drain (or notify) between the announcement and the
/// push (or the `Condvar::wait` that releases the mutex): no stranded
/// dependent, no lost wake.
pub(crate) struct Completion {
    state: AtomicU8,
    slow: OnceLock<Box<Slow>>,
}

struct Slow {
    inner: Mutex<SlowInner>,
    /// Blocking waiters park here, paired with `inner`.
    condvar: Condvar,
}

#[derive(Default)]
struct SlowInner {
    /// Panic payload rendered to a string; written before `PANICKED` is
    /// published, so whoever observes that phase finds it here.
    message: Option<String>,
    /// Dependents parked on this task (`.after(&handle)`), drained exactly
    /// once by the completion path.
    dependents: Vec<Arc<PendingTask>>,
    /// The completions *this* task waits on, recorded at spawn for the
    /// submit-time cycle check and cleared on completion (breaking the
    /// `Arc` chains so finished pipelines free their graph).
    deps: Vec<Arc<Completion>>,
}

impl Completion {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Completion {
            state: AtomicU8::new(PENDING),
            slow: OnceLock::new(),
        })
    }

    fn slow(&self) -> &Slow {
        self.slow.get_or_init(|| {
            Box::new(Slow {
                inner: Mutex::new(SlowInner::default()),
                condvar: Condvar::new(),
            })
        })
    }

    /// The registrant half of the handshake: locks the slow block and
    /// announces it to the completer. `None` means the task is already
    /// complete and nothing registered now would ever be drained or woken.
    ///
    /// `AcqRel`: Acquire pairs with the completer's `swap`, so a registrant
    /// told "already complete" observes the task's side effects; Release
    /// publishes the slow block's initialization to the completer that
    /// reads `SLOW`.
    fn register(&self) -> Option<MutexGuard<'_, SlowInner>> {
        let guard = self.slow().inner.lock();
        let prev = self.state.fetch_or(SLOW, Ordering::AcqRel);
        (prev & PHASE == PENDING).then_some(guard)
    }

    /// Registers a dependent to be released when this task completes.
    /// Returns `false` if this task is already complete — the caller must
    /// satisfy the dependency directly (the waiter will never be drained).
    pub(crate) fn add_waiter(&self, waiter: Arc<PendingTask>) -> bool {
        match self.register() {
            Some(mut slow) => {
                slow.dependents.push(waiter);
                true
            }
            None => false,
        }
    }

    /// Records the dependency edges of the task owning this completion
    /// (spawn-time bookkeeping for the cycle check).
    pub(crate) fn set_deps(&self, deps: Vec<Arc<Completion>>) {
        if let Some(mut slow) = self.register() {
            slow.deps = deps;
        }
    }

    /// Snapshot of the pending dependency edges (empty once complete).
    pub(crate) fn deps_snapshot(&self) -> Vec<Arc<Completion>> {
        self.slow
            .get()
            .map(|slow| slow.inner.lock().deps.clone())
            .unwrap_or_default()
    }

    /// The completer half of the handshake: publish the final phase and,
    /// only if somebody registered, wake blocked handles, drop the
    /// dependency edges and hand the drained dependents to the caller for
    /// release. Each dependent appears in exactly one drain.
    ///
    /// `AcqRel`: Release makes the task's side effects (and the panic
    /// message) happen-before any Acquire observation of the final phase;
    /// Acquire pairs with the registrants' `fetch_or`.
    fn finish(&self, phase: u8) -> Vec<Arc<PendingTask>> {
        let prev = self.state.swap(phase, Ordering::AcqRel);
        debug_assert_eq!(prev & PHASE, PENDING, "a task completes once");
        if prev & SLOW == 0 {
            return Vec::new();
        }
        let slow = self.slow.get().expect("SLOW is set after the block");
        let mut inner = slow.inner.lock();
        slow.condvar.notify_all();
        inner.deps.clear();
        std::mem::take(&mut inner.dependents)
    }

    /// Marks the task done. Returns the dependents to release; the
    /// scheduler dispatches them (`run_task`'s completion path).
    #[must_use = "the drained waiters must be dispatched"]
    pub(crate) fn complete(&self) -> Vec<Arc<PendingTask>> {
        self.finish(DONE)
    }

    /// Marks the task panicked. Dependents are still released — a
    /// dependency is an ordering constraint, not a success gate — so the
    /// returned waiters must be dispatched exactly like [`Self::complete`].
    #[must_use = "the drained waiters must be dispatched"]
    pub(crate) fn complete_panicked(&self, message: String) -> Vec<Arc<PendingTask>> {
        self.slow().inner.lock().message = Some(message);
        self.finish(PANICKED)
    }

    fn phase(&self) -> u8 {
        self.state.load(Ordering::Acquire) & PHASE
    }

    fn result_now(&self) -> Option<Result<(), TaskError>> {
        match self.phase() {
            PENDING => None,
            DONE => Some(Ok(())),
            _ => Some(Err(TaskError {
                message: self
                    .slow
                    .get()
                    .and_then(|slow| slow.inner.lock().message.clone())
                    .unwrap_or_else(|| "<non-string panic payload>".to_owned()),
            })),
        }
    }
}

/// Handle to a submitted task.
///
/// Cloneable; all clones observe the same completion. Dropping handles does
/// not cancel the task.
#[derive(Clone)]
pub struct TaskHandle {
    pub(crate) completion: Arc<Completion>,
}

impl TaskHandle {
    /// `true` once the task has run to completion (or panicked).
    pub fn is_complete(&self) -> bool {
        self.completion.phase() != PENDING
    }

    /// Non-blocking check: `None` while pending, otherwise the outcome.
    pub fn poll(&self) -> Option<Result<(), TaskError>> {
        self.completion.result_now()
    }

    /// Blocks the calling thread until completion.
    ///
    /// This is the *passive* wait — the paper's receiving threads "wait
    /// their data using a blocking condition" while idle cores make the
    /// progress (§V-B). Somebody else must run the task; see
    /// [`TaskHandle::wait_active`] for the self-progressing variant.
    pub fn wait(&self) -> Result<(), TaskError> {
        if let Some(r) = self.completion.result_now() {
            return r;
        }
        if let Some(mut slow) = self.completion.register() {
            // `register` announced this waiter while holding the slow
            // mutex, which `Condvar::wait` releases only once parked: the
            // completer's notify (under that mutex) cannot fall in between.
            let condvar = &self.completion.slow().condvar;
            while self.completion.phase() == PENDING {
                condvar.wait(&mut slow);
            }
        }
        self.completion.result_now().expect("phase is final")
    }

    /// Actively waits: repeatedly runs the scheduler for `core` until this
    /// task completes. This mirrors the paper's §IV-B: "a thread waits for
    /// the end of the communication — the task is processed and the
    /// communication may overlap".
    pub fn wait_active(&self, manager: &crate::TaskManager, core: usize) -> Result<(), TaskError> {
        loop {
            if let Some(r) = self.completion.result_now() {
                return r;
            }
            if !manager.schedule(core) {
                // Nothing runnable from this core: yield rather than burn.
                std::thread::yield_now();
            }
        }
    }
}

impl core::fmt::Debug for TaskHandle {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TaskHandle")
            .field("complete", &self.is_complete())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::QueueId;
    use crate::task::{Task, TaskOptions, TaskSet, TaskStatus};
    use core::sync::atomic::AtomicUsize;
    use piom_cpuset::CpuSet;
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    /// How long a test waits for threads that can only be late if a wake
    /// or a release was lost.
    const DEADLINE: Duration = Duration::from_secs(60);

    fn handle(c: &Arc<Completion>) -> TaskHandle {
        TaskHandle {
            completion: c.clone(),
        }
    }

    /// A dependent parked on one predecessor.
    fn dependent() -> Arc<PendingTask> {
        let task = Task {
            body: Box::new(|_| TaskStatus::Done),
            options: TaskOptions::oneshot(),
            cpuset: TaskSet::new(&CpuSet::single(0)),
            home: QueueId(0),
            completion: Completion::new(),
            submitted_at: None,
        };
        PendingTask::new(task, 1)
    }

    /// Two-thread rendezvous on a shared counter: returns once both sides
    /// of round `round` have arrived, so what follows really races.
    fn rendezvous(arrived: &AtomicUsize, round: usize) {
        arrived.fetch_add(1, Ordering::SeqCst);
        let mut spins = 0u32;
        while arrived.load(Ordering::SeqCst) < 2 * (round + 1) {
            // Spin so both sides leave within nanoseconds of each other;
            // yield only when the peer is evidently descheduled.
            spins += 1;
            if spins.is_multiple_of(1024) {
                thread::yield_now();
            } else {
                core::hint::spin_loop();
            }
        }
    }

    #[test]
    fn poll_transitions() {
        let c = Completion::new();
        let h = handle(&c);
        assert!(!h.is_complete());
        assert!(h.poll().is_none());
        assert!(c.complete().is_empty());
        assert!(h.is_complete());
        assert_eq!(h.poll(), Some(Ok(())));
        assert_eq!(h.wait(), Ok(()));
    }

    #[test]
    fn no_waiter_completion_is_one_word_and_no_slow_block() {
        assert!(core::mem::size_of::<Completion>() <= 24);
        assert!(core::mem::size_of::<Task>() <= 96, "a task moves by value");
        let c = Completion::new();
        let h = handle(&c);
        assert!(h.poll().is_none() && !h.is_complete());
        assert!(c.deps_snapshot().is_empty());
        assert!(c.complete().is_empty());
        assert_eq!(h.poll(), Some(Ok(())));
        // Waiting on, or registering with, a finished task needs no slow
        // block either way; only the first one may not have created it.
        assert_eq!(h.wait(), Ok(()));
        assert!(
            c.slow.get().is_none(),
            "the fast path allocated a slow block"
        );
        assert_eq!(c.state.load(Ordering::Relaxed), DONE);
    }

    #[test]
    fn panic_message_reaches_wait_and_poll() {
        let c = Completion::new();
        let h = handle(&c);
        assert!(c.complete_panicked("boom".into()).is_empty());
        let err = h.wait().unwrap_err();
        assert_eq!(err.message, "boom");
        assert!(err.to_string().contains("boom"));
        assert_eq!(h.poll(), Some(Err(err)));
    }

    #[test]
    fn clones_share_state() {
        let c = Completion::new();
        let h1 = handle(&c);
        let h2 = h1.clone();
        let _ = c.complete();
        assert!(h1.is_complete() && h2.is_complete());
    }

    #[test]
    fn handle_dropped_before_completion() {
        let c = Completion::new();
        drop(handle(&c));
        assert!(c.complete().is_empty());
        assert!(c.slow.get().is_none());
    }

    #[test]
    fn registered_dependent_is_drained_by_done_and_by_panic() {
        for panicked in [false, true] {
            let c = Completion::new();
            let d = dependent();
            assert!(c.add_waiter(d.clone()));
            let drained = if panicked {
                c.complete_panicked("stage failed".into())
            } else {
                c.complete()
            };
            assert_eq!(drained.len(), 1);
            assert!(Arc::ptr_eq(&drained[0], &d));
            assert!(drained[0].satisfy_one().is_some());
            // The registrant-loses arm: told "already complete", never
            // drained.
            assert!(!c.add_waiter(dependent()));
            assert!(c.slow().inner.lock().dependents.is_empty());
        }
    }

    #[test]
    fn dependency_edges_are_freed_on_completion() {
        let pred = Completion::new();
        let c = Completion::new();
        c.set_deps(vec![pred.clone()]);
        assert_eq!(c.deps_snapshot().len(), 1);
        assert_eq!(Arc::strong_count(&pred), 2);
        assert!(c.complete().is_empty());
        assert!(c.deps_snapshot().is_empty());
        assert_eq!(Arc::strong_count(&pred), 1, "the edge was dropped");
    }

    #[test]
    fn parked_waiter_is_woken() {
        let c = Completion::new();
        let h = handle(&c);
        let (tx, rx) = mpsc::channel();
        let waiter = thread::spawn(move || tx.send(h.wait()).unwrap());
        // Force the waiter-first arm: `SLOW` appears while the waiter holds
        // the slow mutex, which `complete` can only take once the waiter
        // is parked in `Condvar::wait`.
        while c.state.load(Ordering::Acquire) & SLOW == 0 {
            thread::yield_now();
        }
        assert!(c.complete().is_empty());
        assert_eq!(rx.recv_timeout(DEADLINE), Ok(Ok(())), "lost wake");
        waiter.join().unwrap();
    }

    #[test]
    fn blocking_waiters_racing_complete_never_miss_the_wake() {
        const WAITERS: usize = 3;
        let rounds = 2_000;
        let completions: Arc<Vec<Arc<Completion>>> =
            Arc::new((0..rounds).map(|_| Completion::new()).collect());
        let (tx, rx) = mpsc::channel();
        // One rendezvous counter per waiter, each paired with the completer.
        let arrived: Arc<Vec<AtomicUsize>> =
            Arc::new((0..WAITERS).map(|_| AtomicUsize::new(0)).collect());
        let mut threads = Vec::new();
        for w in 0..WAITERS {
            let (cs, arrived, tx) = (completions.clone(), arrived.clone(), tx.clone());
            threads.push(thread::spawn(move || {
                for (round, c) in cs.iter().enumerate() {
                    rendezvous(&arrived[w], round);
                    assert_eq!(handle(c).wait().is_err(), round % 2 == 1);
                }
                tx.send(()).unwrap();
            }));
        }
        for (round, c) in completions.iter().enumerate() {
            for a in arrived.iter() {
                rendezvous(a, round);
            }
            // Sweep the completer's offset across the waiters' entry.
            for _ in 0..round % 8 {
                core::hint::spin_loop();
            }
            let _ = if round % 2 == 1 {
                c.complete_panicked("odd".into())
            } else {
                c.complete()
            };
        }
        for _ in 0..WAITERS {
            rx.recv_timeout(DEADLINE)
                .expect("a blocked waiter was never woken");
        }
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn dependent_registration_racing_completion_is_released_exactly_once() {
        let rounds = 10_000;
        let preds: Arc<Vec<Arc<Completion>>> =
            Arc::new((0..rounds).map(|_| Completion::new()).collect());
        let arrived = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        let registrant = {
            let (preds, arrived) = (preds.clone(), arrived.clone());
            thread::spawn(move || {
                // Satisfactions this side delivered: the "already
                // complete" arm, where the registrant releases directly.
                let mut direct = 0;
                for (round, pred) in preds.iter().enumerate() {
                    let d = dependent();
                    rendezvous(&arrived, round);
                    if !pred.add_waiter(d.clone()) {
                        direct += 1;
                        assert!(d.satisfy_one().is_some());
                    }
                }
                tx.send(direct).unwrap();
            })
        };
        let mut drained = 0;
        for (round, pred) in preds.iter().enumerate() {
            rendezvous(&arrived, round);
            // Sweep the completer across the registrant's lock + fetch_or.
            for _ in 0..round % 64 {
                core::hint::spin_loop();
            }
            for d in pred.complete() {
                drained += 1;
                assert!(d.satisfy_one().is_some(), "drained twice");
            }
        }
        let direct = rx
            .recv_timeout(DEADLINE)
            .expect("registrant stuck behind a completed task");
        registrant.join().unwrap();
        // Every registration ended in exactly one arm: a dependent that was
        // both drained and told "already complete", or neither, breaks the
        // sum (and the per-release asserts above).
        assert_eq!(drained + direct, rounds);
        for pred in preds.iter() {
            if let Some(slow) = pred.slow.get() {
                assert!(slow.inner.lock().dependents.is_empty(), "stranded");
            }
        }
        assert!(
            drained > 0 && direct > 0,
            "{drained} drained, {direct} direct"
        );
    }
}
