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
use crate::pool;
use crate::sync::{AtomicUsize, Condvar, Mutex, MutexGuard, Ordering};
use crate::task::{TaskContext, TaskStatus};
use core::alloc::Layout;
use core::cell::UnsafeCell;
use core::mem::{take, ManuallyDrop};
use core::ptr::NonNull;
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
/// The unused phase: debug builds stamp it on a freed block, so an access
/// after the last reference, or a second release, reads it.
const FREED: usize = 0b11;

/// Debug builds: fails `access` unless `word` is a live block's. A thread
/// that is already unwinding from such a failure does not fail again in
/// its handles' drops, which would abort the process instead of reporting
/// the first.
#[inline]
fn live(word: usize, access: &str) {
    debug_assert!(
        word & PHASE != FREED || std::thread::panicking(),
        "{access} of a freed block"
    );
}

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
/// zero-sized `F` leaves the header alone), recycled through [`pool`]. The
/// task ([`TaskBody`], the only way to the body) and each [`TaskHandle`]
/// hold one reference, counted in `state`; the last one out frees the
/// block. The body is dropped before completion is published. A task
/// nobody waits on or depends on completes with one `fetch_add` — no lock,
/// no syscall, no allocation; the slow block exists only once somebody
/// registers (a blocking `wait` or an `.after()` dependent) or a body
/// panics.
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
        live(prev, "a registration");
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

    /// Wakes blocked handles and hands back the dependents.
    fn drain(&self) -> Vec<Arc<PendingTask>> {
        let slow = self.slow();
        let mut inner = slow.inner.lock();
        slow.condvar.notify_all();
        take(&mut inner.dependents)
    }

    fn phase(&self) -> usize {
        let word = self.state.load(Ordering::Acquire);
        live(word, "a read");
        word & PHASE
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
    live(prev, "a release");
    if prev / REF == n {
        // SAFETY: those were the last references, and the body is already
        // dropped (the task's reference goes only after it).
        unsafe { free(block) };
    }
}

/// Drops the header of `block` in place and gives its memory back to the
/// pool.
///
/// # Safety
///
/// The caller dropped the last reference, after the body, and touches the
/// block no more.
unsafe fn free(block: NonNull<Block<Body>>) {
    // SAFETY: the block is alive, and nobody else reaches it, per the
    // caller.
    let layout = Layout::for_value(unsafe { block.as_ref() });
    // SAFETY: as above; this drops the slow block, while the `ManuallyDrop`
    // keeps the body from being dropped twice.
    unsafe { block.as_ptr().drop_in_place() };
    if cfg!(debug_assertions) {
        // SAFETY: the block is still allocated, and its word, which has no
        // destructor, is still an atomic.
        unsafe { (*block.as_ptr()).state.store(FREED, Ordering::Relaxed) };
    }
    // SAFETY: `TaskBody::new` took it from `pool::alloc` with the layout of
    // its `Block<F>`, which `for_value` reads back through the vtable.
    unsafe { pool::free(block.cast(), layout) };
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
        // SAFETY: the state word alone makes the layout non-zero-sized.
        let block = unsafe { pool::alloc(Layout::new::<Block<F>>()) }.cast::<Block<F>>();
        // SAFETY: `pool::alloc` returned memory fit for a `Block<F>` that
        // nothing else references.
        unsafe {
            block.as_ptr().write(Block {
                state: AtomicUsize::new(PENDING | (2 * REF)),
                slow: OnceLock::new(),
                body: UnsafeCell::new(ManuallyDrop::new(body)),
            })
        };
        let ptr: NonNull<Block<Body>> = block;
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
    /// if somebody registered does it wake blocked handles and drain the
    /// dependents, which go to the caller, to be dispatched even after a
    /// panic (a dependency orders, it does not gate).
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
                unsafe { free(this.0) };
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
/// also lets go of the dependents parked on it, which it can never release:
/// a dependent's body may hold this task's handle, and would otherwise keep
/// the block alive through its own slow block.
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
        let prev = self.block().state.fetch_add(REF, Ordering::Relaxed);
        live(prev, "a clone");
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
pub(crate) mod tests {
    use super::*;
    use crate::queue::QueueId;
    use crate::task::{Task, TaskClass, TaskSet};
    use crate::{SubmitSpec, TaskManager};
    use piom_cpuset::CpuSet;
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    /// How long a test waits for threads that can only be late if a wake
    /// or a release was lost.
    const DEADLINE: Duration = Duration::from_secs(60);

    /// `body` with an over-aligned capture, which keeps its block out of the
    /// pool: Miri and AddressSanitizer then see the block's allocation and
    /// free, so a use after its last reference or a second free fails them.
    pub(crate) fn unpooled<F>(mut body: F) -> impl FnMut(&TaskContext<'_>) -> TaskStatus + Send
    where
        F: FnMut(&TaskContext<'_>) -> TaskStatus + Send + 'static,
    {
        #[repr(align(16))]
        struct Unpooled;
        let unpooled = Unpooled;
        move |ctx| {
            let _ = &unpooled;
            body(ctx)
        }
    }

    /// A block outside the pool, so the sanitizers check its references.
    fn block() -> (TaskBody, TaskHandle) {
        TaskBody::new(unpooled(|_| TaskStatus::Done))
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
        dependent_running(|_| TaskStatus::Done)
    }

    /// A dependent with `body`, parked on one predecessor.
    fn dependent_running(
        body: impl FnMut(&TaskContext<'_>) -> TaskStatus + Send + 'static,
    ) -> Arc<PendingTask> {
        let task = Task {
            body: TaskBody::new(unpooled(body)).0,
            repeat: false,
            class: TaskClass::Interactive,
            cpuset: TaskSet::new(&CpuSet::single(0)),
            home: QueueId(0),
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
        assert!(core::mem::size_of::<Task>() <= 64, "a task moves by value");
        let (body, h) = block();
        assert_eq!(refs(&h), 2, "the task's and the handle's");
        assert!(h.poll().is_none() && !h.is_complete());
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

    /// Exact layouts of the structures every round trip touches: a change
    /// here moves cache lines under the benchmark, so it must be on purpose.
    #[test]
    fn hot_layouts_are_pinned() {
        use crate::queue::TaskQueue;
        use core::mem::{align_of, size_of};
        assert_eq!(
            (size_of::<TaskQueue>(), align_of::<TaskQueue>()),
            (384, 128)
        );
        assert_eq!((size_of::<Task>(), align_of::<Task>()), (48, 8));
        assert_eq!((size_of::<Block<()>>(), align_of::<Block<()>>()), (24, 8));
        assert_eq!(
            (size_of::<TaskManager>(), align_of::<TaskManager>()),
            (384, 128)
        );
        // The builder moves by value through every chained call; its set
        // is the task's two-word window, not a 128-B `CpuSet`.
        assert_eq!(
            (size_of::<SubmitSpec>(), align_of::<SubmitSpec>()),
            (112, 8)
        );
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
        // A dependent holds no reference to its predecessor: the one edge
        // is the waiter entry in the predecessor's slow block, which the
        // drain drops. The dependent registers nothing, so it completes on
        // the one-`fetch_add` path with no slow block of its own.
        let mgr = TaskManager::new(piom_topology::presets::kwak().into());
        let pred = mgr
            .task(|_| TaskStatus::Done)
            .cpuset(CpuSet::single(0))
            .spawn();
        let dependent = mgr
            .task(|_| TaskStatus::Done)
            .cpuset(CpuSet::single(0))
            .after(&pred)
            .spawn();
        assert_eq!(refs(&pred), 3, "the task's, the handle's, the slow path's");
        assert!(dependent.block().slow.get().is_none());
        assert_eq!(mgr.schedule_batch(0, 1), 1);
        assert_eq!(refs(&pred), 1, "the edge was dropped");
        assert_eq!(mgr.schedule_batch(0, 1), 1);
        assert_eq!(dependent.poll(), Some(Ok(())));
        assert!(dependent.block().slow.get().is_none());
        assert_eq!(refs(&dependent), 1);
    }

    #[test]
    fn a_task_dropped_unrun_releases_its_dependents_and_edges() {
        // The dependent's body holds the dropped task's handle: a reference
        // loop through the slow block that the drop must break.
        let (body, h) = block();
        let captured = h.clone();
        let d = dependent_running(move |_| {
            let _ = &captured;
            TaskStatus::Done
        });
        assert!(h.add_waiter(d.clone()));
        assert_eq!(refs(&h), 4, "task, two handles, slow path");
        drop(body);
        assert!(!h.is_complete(), "a dropped task is not complete");
        assert_eq!(Arc::strong_count(&d), 1, "the dependent was let go");
        assert_eq!(refs(&h), 2, "the task's and the slow path's went");
        drop(d);
        assert_eq!(refs(&h), 1, "the dependent's edge back went with it");
        // A later registrant adds no reference nobody would drop.
        assert!(h.add_waiter(dependent()));
        assert_eq!(refs(&h), 1);
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

    /// Where a task's block lies.
    pub(crate) fn addr(h: &TaskHandle) -> usize {
        h.ptr.as_ptr().cast::<u8>().addr()
    }

    #[test]
    fn bodies_outside_the_pool_round_trip() {
        #[repr(align(64))]
        struct Aligned(u64);
        let mgr = TaskManager::new(piom_topology::presets::kwak().into());
        let (big, aligned) = ([7u8; 256], Aligned(9));
        let handles = [
            mgr.task(move |_| {
                assert!(big.iter().all(|&b| b == 7));
                TaskStatus::Done
            })
            .cpuset(CpuSet::single(0))
            .spawn(),
            mgr.task(move |_| {
                assert_eq!(core::ptr::from_ref(&aligned).addr() % 64, 0);
                assert_eq!(aligned.0, 9);
                TaskStatus::Done
            })
            .cpuset(CpuSet::single(0))
            .spawn(),
        ];
        // So are the blocks of these tests' `block()` and dependents.
        let (body, h) = block();
        assert_eq!(Layout::for_value(h.block()).align(), 16);
        assert!(body.finish(None).is_empty());
        assert!(Layout::for_value(handles[0].block()).size() > 128);
        assert_eq!(Layout::for_value(handles[1].block()).align(), 64);
        assert_eq!(addr(&handles[1]) % 64, 0);
        assert_eq!(mgr.schedule_batch(0, 2), 2);
        assert!(handles.iter().all(|h| h.poll() == Some(Ok(()))));
    }

    #[test]
    fn a_pooled_block_whose_body_drop_panics_is_reused() {
        struct PanicsOnDrop;
        impl Drop for PanicsOnDrop {
            fn drop(&mut self) {
                panic!("drop failed");
            }
        }
        for run in [true, false] {
            let mgr = TaskManager::new(piom_topology::presets::kwak().into());
            let guard = PanicsOnDrop;
            let doomed = mgr
                .task(move |_| {
                    let _ = &guard;
                    TaskStatus::Done
                })
                .cpuset(CpuSet::single(0))
                .spawn();
            let freed = addr(&doomed);
            if run {
                assert_eq!(mgr.schedule_batch(0, 1), 1);
                assert_eq!(doomed.wait().unwrap_err().message, "drop failed");
            }
            // Unrun, the task goes with its manager, swallowing the panic.
            drop(mgr);
            drop(doomed);
            // The last reference gave the block to this thread's cache,
            // whose top serves the next pooled block.
            let (body, next) = TaskBody::new(|_| TaskStatus::Done);
            assert_eq!(addr(&next), freed, "the block was not reused");
            assert!(body.finish(None).is_empty());
            assert_eq!(next.poll(), Some(Ok(())));
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already on this thread's stack")]
    fn a_pooled_block_freed_twice_panics() {
        let (body, h) = TaskBody::new(|_| TaskStatus::Done);
        let block = h.ptr;
        assert!(body.finish(None).is_empty());
        drop(h);
        // SAFETY: none: the handle's drop freed the block. Without the
        // debug check the pool holds it twice, and two later tasks share
        // it.
        unsafe { free(block) };
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a release of a freed block")]
    fn a_reference_released_after_the_free_panics() {
        let (body, h) = TaskBody::new(|_| TaskStatus::Done);
        let block = h.ptr;
        assert!(body.finish(None).is_empty());
        drop(h);
        // SAFETY: none: the handle's reference went with it. Without the
        // debug check the stray RMW lands, unseen, in a block of the pool.
        unsafe { release(block, 1) };
    }
}
