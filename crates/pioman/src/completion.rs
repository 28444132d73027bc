//! A task's heap block and its completion: poll, block, or actively
//! schedule while waiting.
//!
//! A completion is also the release point of the **dependency waitlist**:
//! tasks submitted with `.after(&handle)` park in a
//! [`PendingTask`](crate::manager) registered here as a waiter, and the
//! completion path drains the waiter list exactly once — whether the
//! predecessor finished or panicked (a dependent is *released*, never
//! cancelled, so pipelines drain instead of wedging).

use crate::manager::PendingTask;
use crate::task::{TaskContext, TaskStatus};
use core::cell::UnsafeCell;
use core::mem::{take, ManuallyDrop};
use core::ptr::NonNull;
use core::sync::atomic::{AtomicUsize, Ordering};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

// The state word: a phase in the low bits, `SLOW`, and the reference count.
const PENDING: usize = 0;
const DONE: usize = 1;
const PANICKED: usize = 2;
const PHASE: usize = 0b11;
/// Somebody registered interest in the slow block while the task was
/// pending: the completer must lock it, notify and drain.
const SLOW: usize = 0b100;
/// One reference (the task's, a handle's or the slow path's): `refs * REF`.
const REF: usize = 0b1000;

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

/// A task body: `FnMut` because repeat tasks carry state between runs.
type Body = dyn FnMut(&TaskContext<'_>) -> TaskStatus + Send;

/// One task's heap block: the completion header, then the body inline (a
/// zero-sized `F` leaves the header alone). The task ([`TaskBody`], the
/// only way to the body) and each [`TaskHandle`] hold one reference,
/// counted in `state`; the last one out frees the block. The body is
/// dropped before completion is published. A task nobody waits on or
/// depends on completes with one `fetch_add` — no lock, no syscall, no
/// allocation; the slow block exists only once somebody registers (a
/// blocking `wait`, an `.after()` dependent, `set_deps`) or a body panics.
///
/// The handshake is two totally ordered RMWs on `state`: a registrant does
/// `lock(slow); fetch_or(SLOW)`, the completer `fetch_add(phase − REF)`
/// and, iff the previous word had `SLOW`, `lock(slow)` + notify + drain.
/// The registration is drained or told "already complete", never both or
/// neither, and holding the mutex across its `fetch_or`, the registrant
/// cannot lose its push (or park) to the drain (or notify). The completer
/// has dropped its reference by then, so the slow path holds its own:
/// added under the mutex by the registrant that sets `SLOW`, dropped by
/// the completer after the drain.
struct Block<F: ?Sized> {
    state: AtomicUsize,
    slow: OnceLock<Box<Slow>>,
    /// Touched only through the [`TaskBody`], which drops it in place.
    body: UnsafeCell<ManuallyDrop<F>>,
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
    /// The tasks *this* task waits on, recorded at spawn for the cycle
    /// check and dropped on completion, so finished pipelines free.
    deps: Vec<TaskHandle>,
}

impl Block<Body> {
    fn slow(&self) -> &Slow {
        self.slow.get_or_init(|| {
            Box::new(Slow {
                inner: Mutex::new(SlowInner::default()),
                condvar: Condvar::new(),
            })
        })
    }

    /// The registrant half of the handshake, called holding a reference:
    /// locks the slow block and announces it to the completer. `None`
    /// means the task is already complete and nothing registered now would
    /// ever be drained or woken.
    ///
    /// `AcqRel`: Acquire pairs with the completer's `fetch_add`, so a
    /// registrant told "already complete" observes the task's side effects;
    /// Release publishes the slow block's initialization to the completer
    /// that reads `SLOW`.
    fn register(&self) -> Option<MutexGuard<'_, SlowInner>> {
        let guard = self.slow().inner.lock();
        let prev = self.state.fetch_or(SLOW, Ordering::AcqRel);
        if prev & PHASE != PENDING {
            return None;
        }
        if prev & SLOW == 0 {
            // The slow path's reference. Relaxed, like a clone: the caller's
            // keeps the block alive, and the completer reads the count only
            // after taking the mutex held here.
            self.state.fetch_add(REF, Ordering::Relaxed);
        }
        Some(guard)
    }

    /// Wakes blocked handles and empties the slow block: the dependency
    /// edges are dropped, the dependents returned.
    fn drain(&self) -> Vec<Arc<PendingTask>> {
        let slow = self.slow();
        let mut inner = slow.inner.lock();
        slow.condvar.notify_all();
        let (deps, dependents) = (take(&mut inner.deps), take(&mut inner.dependents));
        drop((inner, deps));
        dependents
    }

    fn phase(&self) -> usize {
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

/// Drops `n` references to `block`, freeing it on the last. `AcqRel`: the
/// holders' uses of the block happen-before the free.
///
/// # Safety
///
/// The caller owns `n` live references and touches the block no more.
unsafe fn release(block: NonNull<Block<Body>>, n: usize) {
    // SAFETY: the caller's references keep the block alive up to this RMW.
    let prev = unsafe { block.as_ref() }
        .state
        .fetch_sub(n * REF, Ordering::AcqRel);
    if prev / REF == n {
        // SAFETY: those were the last references, so nobody else can reach
        // the block; it came from a `Box`, and the body is already dropped
        // (the task's reference goes only after it).
        drop(unsafe { Box::from_raw(block.as_ptr()) });
    }
}

/// The task's own reference to its block and the only way to the body.
/// Unique, so running and dropping the body need no synchronization.
pub(crate) struct TaskBody(NonNull<Block<Body>>);

// SAFETY: the body is `Send` and only this unique reference touches it;
// the header is shared through an atomic word and a mutex.
unsafe impl Send for TaskBody {}

impl TaskBody {
    /// Allocates the block for `body` holding two references, the task's
    /// and the returned handle's, counted by the initializing store.
    pub(crate) fn new<F>(body: F) -> (TaskBody, TaskHandle)
    where
        F: FnMut(&TaskContext<'_>) -> TaskStatus + Send + 'static,
    {
        let block: Box<Block<Body>> = Box::new(Block {
            state: AtomicUsize::new(PENDING | (2 * REF)),
            slow: OnceLock::new(),
            body: UnsafeCell::new(ManuallyDrop::new(body)),
        });
        let ptr = NonNull::from(Box::leak(block));
        (TaskBody(ptr), TaskHandle { ptr })
    }

    /// Drops the body in place; its panic, if any, is returned.
    ///
    /// # Safety
    ///
    /// Called once, as this `TaskBody`'s last use of the body.
    unsafe fn drop_body(&mut self) -> std::thread::Result<()> {
        // SAFETY: the task's reference keeps the block alive, this unique
        // `TaskBody` is the only way to the body, and the caller's contract
        // makes this its one drop.
        catch_unwind(AssertUnwindSafe(|| unsafe {
            ManuallyDrop::drop(&mut *self.0.as_ref().body.get());
        }))
    }

    /// Runs the body once.
    pub(crate) fn run(&mut self, ctx: &TaskContext<'_>) -> TaskStatus {
        // SAFETY: the task's reference keeps the block alive; this unique
        // `TaskBody` is the only way to the body, which only `finish` and
        // `drop` (consuming it) drop.
        let body = unsafe { &mut *self.0.as_ref().body.get() };
        (**body)(ctx)
    }

    /// Completes the task after its last run: drops the body, publishes the
    /// phase (`PANICKED` if `panic` holds the run's payload or the drop
    /// panicked) and releases the task's reference in one `fetch_add`. Only
    /// if somebody registered does it wake blocked handles and drop the
    /// dependency edges; the drained dependents go to the caller, to be
    /// dispatched even after a panic (a dependency orders, it does not gate).
    ///
    /// `AcqRel`: Release makes the task's side effects, the body's drop and
    /// the panic message happen-before any Acquire observation of the phase;
    /// Acquire pairs with the registrants' `fetch_or` and the handles' drops.
    #[must_use = "the drained waiters must be dispatched"]
    pub(crate) fn finish(self, panic: Option<Box<dyn Any + Send>>) -> Vec<Arc<PendingTask>> {
        let mut this = ManuallyDrop::new(self);
        // SAFETY: `self` is consumed here; nothing runs the body again.
        let dropped = unsafe { this.drop_body() };
        // SAFETY: the task's reference keeps the block alive up to the
        // `fetch_add`, and the slow path's (if `SLOW`) after it.
        let block = unsafe { this.0.as_ref() };
        let phase = match panic.or(dropped.err()) {
            None => DONE,
            Some(payload) => {
                let message = (payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .or_else(|| payload.downcast_ref::<String>().cloned());
                block.slow().inner.lock().message = message;
                PANICKED
            }
        };
        let prev = block
            .state
            .fetch_add(phase.wrapping_sub(REF), Ordering::AcqRel);
        debug_assert_eq!(prev & PHASE, PENDING, "a task completes once");
        if prev & SLOW == 0 {
            if prev / REF == 1 {
                // SAFETY: that was the last reference (see `release`).
                drop(unsafe { Box::from_raw(this.0.as_ptr()) });
            }
            return Vec::new();
        }
        let dependents = block.drain();
        // SAFETY: the slow path's reference, not touched again.
        unsafe { release(this.0, 1) };
        dependents
    }
}

/// A task dropped unrun (its manager went away, its spec was never
/// spawned) drops its body and its reference; its handles stay pending. It
/// also drops what its slow block holds — dependents it can never release,
/// its own dependency edges — which would otherwise keep cycles alive.
impl Drop for TaskBody {
    fn drop(&mut self) {
        // SAFETY: `self` is being dropped; nothing runs the body again.
        let _ = unsafe { self.drop_body() };
        // SAFETY: the task's reference keeps the block alive.
        let block = unsafe { self.0.as_ref() };
        // `SLOW` set here keeps a later registrant from adding a slow-path
        // reference nobody would drop; the drain's mutex waits out one still
        // adding it.
        let slow = block.state.fetch_or(SLOW, Ordering::AcqRel) & SLOW != 0;
        if slow {
            drop(block.drain());
        }
        // SAFETY: the task's reference, and the slow path's if there is one.
        unsafe { release(self.0, 1 + usize::from(slow)) };
    }
}

/// Handle to a submitted task.
///
/// Cloneable; all clones observe the same completion. Dropping handles does
/// not cancel the task.
pub struct TaskHandle {
    ptr: NonNull<Block<Body>>,
}

// SAFETY: a handle touches only the header — an atomic word and a mutex
// over `Send` contents — never the body, and frees the block only as its
// last reference, once the body is gone.
unsafe impl Send for TaskHandle {}
// SAFETY: as for `Send`; every header access goes through `&self`.
unsafe impl Sync for TaskHandle {}
// The body's `UnsafeCell` is out of a handle's reach, and the header is
// atomics and mutexes, which an unwinding panic leaves consistent.
impl std::panic::UnwindSafe for TaskHandle {}
impl std::panic::RefUnwindSafe for TaskHandle {}

impl Clone for TaskHandle {
    fn clone(&self) -> Self {
        // Relaxed: this handle's reference keeps the block alive.
        self.block().state.fetch_add(REF, Ordering::Relaxed);
        TaskHandle { ptr: self.ptr }
    }
}

impl Drop for TaskHandle {
    fn drop(&mut self) {
        // SAFETY: this handle's reference, not touched again.
        unsafe { release(self.ptr, 1) };
    }
}

impl TaskHandle {
    fn block(&self) -> &Block<Body> {
        // SAFETY: this handle's reference keeps the block alive.
        unsafe { self.ptr.as_ref() }
    }

    /// The block's address: equal for handles to the same task.
    pub(crate) fn addr(&self) -> *const u8 {
        self.ptr.as_ptr().cast()
    }

    /// Registers a dependent to be released when this task completes.
    /// Returns `false` if this task is already complete — the caller must
    /// satisfy the dependency directly (the waiter will never be drained).
    pub(crate) fn add_waiter(&self, waiter: Arc<PendingTask>) -> bool {
        match self.block().register() {
            Some(mut slow) => {
                slow.dependents.push(waiter);
                true
            }
            None => false,
        }
    }

    /// Records the dependency edges of this task (spawn-time bookkeeping
    /// for the cycle check).
    pub(crate) fn set_deps(&self, deps: Vec<TaskHandle>) {
        if let Some(mut slow) = self.block().register() {
            slow.deps = deps;
        }
    }

    /// Snapshot of the pending dependency edges (empty once complete).
    pub(crate) fn deps_snapshot(&self) -> Vec<TaskHandle> {
        self.block()
            .slow
            .get()
            .map(|slow| slow.inner.lock().deps.clone())
            .unwrap_or_default()
    }

    /// `true` once the task has run to completion (or panicked).
    pub fn is_complete(&self) -> bool {
        self.block().phase() != PENDING
    }

    /// Non-blocking check: `None` while pending, otherwise the outcome.
    pub fn poll(&self) -> Option<Result<(), TaskError>> {
        self.block().result_now()
    }

    /// Blocks the calling thread until completion.
    ///
    /// This is the *passive* wait — the paper's receiving threads "wait
    /// their data using a blocking condition" while idle cores make the
    /// progress (§V-B). Somebody else must run the task; see
    /// [`TaskHandle::wait_active`] for the self-progressing variant.
    pub fn wait(&self) -> Result<(), TaskError> {
        let block = self.block();
        if let Some(r) = block.result_now() {
            return r;
        }
        if let Some(mut slow) = block.register() {
            // `register` announced this waiter while holding the slow
            // mutex, which `Condvar::wait` releases only once parked: the
            // completer's notify (under that mutex) cannot fall in between.
            let condvar = &block.slow().condvar;
            while block.phase() == PENDING {
                condvar.wait(&mut slow);
            }
        }
        block.result_now().expect("phase is final")
    }

    /// Actively waits: repeatedly runs the scheduler for `core` until this
    /// task completes. This mirrors the paper's §IV-B: "a thread waits for
    /// the end of the communication — the task is processed and the
    /// communication may overlap".
    pub fn wait_active(&self, manager: &crate::TaskManager, core: usize) -> Result<(), TaskError> {
        loop {
            if let Some(r) = self.block().result_now() {
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
    use crate::task::{Task, TaskOptions, TaskSet};
    use crate::TaskManager;
    use piom_cpuset::CpuSet;
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    /// How long a test waits for threads that can only be late if a wake
    /// or a release was lost.
    const DEADLINE: Duration = Duration::from_secs(60);

    /// A block with a zero-sized body: the header alone.
    fn block() -> (TaskBody, TaskHandle) {
        TaskBody::new(|_| TaskStatus::Done)
    }

    fn panic_payload(message: &'static str) -> Option<Box<dyn Any + Send>> {
        Some(Box::new(message))
    }

    /// References the block counts: tasks, handles and the slow path's.
    fn refs(h: &TaskHandle) -> usize {
        h.block().state.load(Ordering::Relaxed) / REF
    }

    /// A dependent parked on one predecessor.
    fn dependent() -> Arc<PendingTask> {
        let task = Task {
            body: block().0,
            options: TaskOptions::oneshot(),
            cpuset: TaskSet::new(&CpuSet::single(0)),
            home: QueueId(0),
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
        let (body, h) = block();
        assert!(!h.is_complete());
        assert!(h.poll().is_none());
        assert!(body.finish(None).is_empty());
        assert!(h.is_complete());
        assert_eq!(h.poll(), Some(Ok(())));
        assert_eq!(h.wait(), Ok(()));
    }

    #[test]
    fn no_waiter_completion_is_one_word_and_no_slow_block() {
        assert!(core::mem::size_of::<Block<()>>() <= 24, "a body-less block");
        assert!(core::mem::size_of::<Task>() <= 88, "a task moves by value");
        let (body, h) = block();
        assert_eq!(refs(&h), 2, "the task's and the handle's");
        assert!(h.poll().is_none() && !h.is_complete());
        assert!(h.deps_snapshot().is_empty());
        assert!(body.finish(None).is_empty());
        assert_eq!(h.poll(), Some(Ok(())));
        // Waiting on, or registering with, a finished task needs no slow
        // block either way; only the first one may not have created it.
        assert_eq!(h.wait(), Ok(()));
        assert!(
            h.block().slow.get().is_none(),
            "the fast path allocated a slow block"
        );
        assert_eq!(h.block().state.load(Ordering::Relaxed), DONE | REF);
    }

    #[test]
    fn a_handle_keeps_its_auto_traits() {
        fn shareable<T: Send + Sync + std::panic::UnwindSafe + std::panic::RefUnwindSafe>() {}
        shareable::<TaskHandle>();
    }

    #[test]
    fn panic_message_reaches_wait_and_poll() {
        let (body, h) = block();
        assert!(body.finish(panic_payload("boom")).is_empty());
        let err = h.wait().unwrap_err();
        assert_eq!(err.message, "boom");
        assert!(err.to_string().contains("boom"));
        assert_eq!(h.poll(), Some(Err(err)));
    }

    #[test]
    fn clones_share_state() {
        let (body, h1) = block();
        let h2 = h1.clone();
        assert_eq!(refs(&h1), 3);
        let _ = body.finish(None);
        assert!(h1.is_complete() && h2.is_complete());
        drop(h2);
        assert_eq!(refs(&h1), 1, "the last handle frees the block");
    }

    #[test]
    fn handle_dropped_before_completion() {
        let (body, h) = block();
        let probe = h.clone();
        drop(h);
        assert!(body.finish(None).is_empty());
        assert_eq!(refs(&probe), 1);
        assert!(probe.block().slow.get().is_none());
    }

    #[test]
    fn registered_dependent_is_drained_by_done_and_by_panic() {
        for panicked in [false, true] {
            let (body, h) = block();
            let d = dependent();
            assert!(h.add_waiter(d.clone()));
            assert_eq!(refs(&h), 3, "the registrant added the slow path's");
            let drained = body.finish(if panicked {
                panic_payload("stage failed")
            } else {
                None
            });
            assert_eq!(refs(&h), 1, "the slow path dropped its reference");
            assert_eq!(drained.len(), 1);
            assert!(Arc::ptr_eq(&drained[0], &d));
            assert!(drained[0].satisfy_one().is_some());
            // The registrant-loses arm: told "already complete", never
            // drained.
            assert!(!h.add_waiter(dependent()));
            assert!(h.block().slow().inner.lock().dependents.is_empty());
            assert_eq!(refs(&h), 1);
        }
    }

    #[test]
    fn dependency_edges_are_freed_on_completion() {
        let (_pred_body, pred) = block();
        let (body, h) = block();
        h.set_deps(vec![pred.clone()]);
        assert_eq!(h.deps_snapshot().len(), 1);
        assert_eq!(refs(&pred), 3);
        assert!(body.finish(None).is_empty());
        assert!(h.deps_snapshot().is_empty());
        assert_eq!(refs(&pred), 2, "the edge was dropped");
    }

    #[test]
    fn a_task_dropped_unrun_releases_its_dependents_and_edges() {
        let (pred_body, pred) = block();
        let (body, h) = block();
        let d = dependent();
        assert!(h.add_waiter(d.clone()));
        h.set_deps(vec![pred.clone()]);
        drop(body);
        assert!(!h.is_complete(), "a dropped task is not complete");
        assert_eq!(Arc::strong_count(&d), 1, "the dependent was let go");
        assert_eq!(refs(&pred), 2, "the edge was dropped");
        assert_eq!(refs(&h), 1, "the task's and the slow path's went");
        // A later registrant adds no reference nobody would drop.
        assert!(h.add_waiter(dependent()));
        assert_eq!(refs(&h), 1);
        drop(pred_body);
        assert_eq!(refs(&pred), 1);
    }

    #[test]
    fn parked_waiter_is_woken() {
        let (body, h) = block();
        let probe = h.clone();
        let (tx, rx) = mpsc::channel();
        let waiter = thread::spawn(move || tx.send(h.wait()).unwrap());
        // Force the waiter-first arm: `SLOW` appears while the waiter holds
        // the slow mutex, which `finish` can only take once the waiter is
        // parked in `Condvar::wait`.
        while probe.block().state.load(Ordering::Acquire) & SLOW == 0 {
            thread::yield_now();
        }
        assert!(body.finish(None).is_empty());
        assert_eq!(rx.recv_timeout(DEADLINE), Ok(Ok(())), "lost wake");
        waiter.join().unwrap();
        assert_eq!(refs(&probe), 1);
    }

    #[test]
    fn blocking_waiters_racing_complete_never_miss_the_wake() {
        const WAITERS: usize = 3;
        let rounds = if cfg!(miri) { 20 } else { 2_000 };
        let (bodies, handles): (Vec<_>, Vec<_>) = (0..rounds).map(|_| block()).unzip();
        let handles = Arc::new(handles);
        let (tx, rx) = mpsc::channel();
        // One rendezvous counter per waiter, each paired with the completer.
        let arrived: Arc<Vec<AtomicUsize>> =
            Arc::new((0..WAITERS).map(|_| AtomicUsize::new(0)).collect());
        let mut threads = Vec::new();
        for w in 0..WAITERS {
            let (hs, arrived, tx) = (handles.clone(), arrived.clone(), tx.clone());
            threads.push(thread::spawn(move || {
                for (round, h) in hs.iter().enumerate() {
                    rendezvous(&arrived[w], round);
                    assert_eq!(h.clone().wait().is_err(), round % 2 == 1);
                }
                tx.send(()).unwrap();
            }));
        }
        for (round, body) in bodies.into_iter().enumerate() {
            for a in arrived.iter() {
                rendezvous(a, round);
            }
            // Sweep the completer's offset across the waiters' entry.
            for _ in 0..round % 8 {
                core::hint::spin_loop();
            }
            let _ = body.finish((round % 2 == 1).then(|| Box::new("odd") as Box<dyn Any + Send>));
        }
        for _ in 0..WAITERS {
            rx.recv_timeout(DEADLINE)
                .expect("a blocked waiter was never woken");
        }
        for t in threads {
            t.join().unwrap();
        }
        assert!(handles.iter().all(|h| refs(h) == 1), "a reference leaked");
    }

    #[test]
    fn dependent_registration_racing_completion_is_released_exactly_once() {
        let rounds = if cfg!(miri) { 50 } else { 10_000 };
        let (bodies, preds): (Vec<_>, Vec<_>) = (0..rounds).map(|_| block()).unzip();
        let preds = Arc::new(preds);
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
        for (round, body) in bodies.into_iter().enumerate() {
            rendezvous(&arrived, round);
            // Sweep the completer across the registrant's lock + fetch_or.
            for _ in 0..round % 64 {
                core::hint::spin_loop();
            }
            for d in body.finish(None) {
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
            if let Some(slow) = pred.block().slow.get() {
                assert!(slow.inner.lock().dependents.is_empty(), "stranded");
            }
            assert_eq!(refs(pred), 1, "a reference leaked");
        }
        if !cfg!(miri) {
            assert!(
                drained > 0 && direct > 0,
                "{drained} drained, {direct} direct"
            );
        }
    }

    /// A kwak manager and a thread running its tasks until `stop`.
    fn with_runner(f: impl FnOnce(&TaskManager)) {
        let mgr = TaskManager::new(piom_topology::presets::kwak().into());
        let stop = core::sync::atomic::AtomicBool::new(false);
        thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Acquire) {
                    mgr.schedule(0);
                }
            });
            f(&mgr);
            stop.store(true, Ordering::Release);
        });
    }

    #[test]
    fn a_handle_that_sees_done_finds_the_body_dropped() {
        let rounds = if cfg!(miri) { 5 } else { 1_000 };
        with_runner(|mgr| {
            for _ in 0..rounds {
                let token = Arc::new(());
                let captured = token.clone();
                let h = mgr
                    .task(move |_| {
                        let _ = &captured;
                        TaskStatus::Done
                    })
                    .cpuset(CpuSet::single(0))
                    .spawn();
                while !h.is_complete() {
                    core::hint::spin_loop();
                }
                assert_eq!(Arc::strong_count(&token), 1, "body outlived Done");
            }
        });
    }

    #[test]
    fn a_repeat_body_survives_its_again_runs() {
        let mgr = TaskManager::new(piom_topology::presets::kwak().into());
        let token = Arc::new(());
        let captured = token.clone();
        let mut runs = 0;
        let h = mgr
            .task(move |_| {
                let _ = &captured;
                runs += 1;
                if runs == 3 {
                    TaskStatus::Done
                } else {
                    TaskStatus::Again
                }
            })
            .cpuset(CpuSet::single(0))
            .repeat()
            .spawn();
        for _ in 0..2 {
            assert!(mgr.schedule_batch(0, 1) == 1 && !h.is_complete());
            assert_eq!(
                Arc::strong_count(&token),
                2,
                "an Again run dropped the body"
            );
        }
        assert_eq!(mgr.schedule_batch(0, 1), 1);
        assert_eq!(h.poll(), Some(Ok(())), "the state survived: third run");
        assert_eq!(Arc::strong_count(&token), 1);
    }

    #[test]
    fn a_panic_in_the_body_drop_is_reported_like_a_body_panic() {
        struct PanicsOnDrop;
        impl Drop for PanicsOnDrop {
            fn drop(&mut self) {
                panic!("drop failed");
            }
        }
        let mgr = TaskManager::new(piom_topology::presets::kwak().into());
        let guard = PanicsOnDrop;
        let doomed = mgr
            .task(move |_| {
                let _ = &guard;
                TaskStatus::Done
            })
            .cpuset(CpuSet::single(0))
            .spawn();
        let dependent = mgr
            .task(|_| TaskStatus::Done)
            .cpuset(CpuSet::single(0))
            .after(&doomed)
            .spawn();
        assert_eq!(mgr.schedule_batch(0, 1), 1);
        assert_eq!(doomed.wait().unwrap_err().message, "drop failed");
        assert_eq!(mgr.schedule_batch(0, 1), 1);
        assert_eq!(dependent.poll(), Some(Ok(())), "released despite the panic");
    }
}
