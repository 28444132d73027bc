//! Submission: the [`SubmitSpec`] builder, dispatch onto the home queue, and
//! the dependency waitlist ([`PendingTask`]) behind [`SubmitSpec::after`].

use super::*;

/// A task parked on the **dependency waitlist**: submitted with
/// [`SubmitSpec::after`] while at least one predecessor was still pending.
///
/// One `PendingTask` is registered as a waiter on *every* pending
/// predecessor's completion; each completion drain calls
/// [`satisfy_one`](Self::satisfy_one), and the call that observes the last
/// outstanding predecessor takes the task out of the slot — exactly once,
/// however the predecessor completions race.
pub(crate) struct PendingTask {
    /// Predecessors not yet known complete. The releasing decrement is the
    /// one that brings this to zero.
    remaining: AtomicUsize,
    /// The parked task, taken by the single releasing decrement.
    slot: Mutex<Option<Task>>,
}

impl PendingTask {
    /// Parks `task` until `predecessors` satisfactions have arrived.
    pub(crate) fn new(task: Task, predecessors: usize) -> Arc<Self> {
        Arc::new(PendingTask {
            remaining: AtomicUsize::new(predecessors),
            slot: Mutex::new(Some(task)),
        })
    }

    /// Records that one predecessor completed. Returns the parked task iff
    /// this was the last outstanding predecessor.
    ///
    /// `AcqRel`: the decrement that wins publication-wise also acquires
    /// every earlier decrementer's view, so the released task observes all
    /// of its predecessors' side effects.
    pub(crate) fn satisfy_one(&self) -> Option<Task> {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.slot.lock().take()
        } else {
            None
        }
    }
}

impl core::fmt::Debug for PendingTask {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PendingTask")
            .field("remaining", &self.remaining.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl TaskManager {
    /// Starts building a task submission: the one entry point behind every
    /// submission shape (see [`SubmitSpec`]).
    ///
    /// The default spec is an [`Interactive`](TaskClass::Interactive)
    /// one-shot task runnable on every core, enqueued — as the paper's
    /// §III-A prescribes — on the smallest topology node covering its CPU
    /// set; every knob is a chained method:
    ///
    /// ```
    /// use pioman::{TaskClass, TaskManager, TaskStatus};
    /// use piom_cpuset::CpuSet;
    /// use piom_topology::presets;
    ///
    /// let mgr = TaskManager::new(presets::kwak().into());
    /// let first = mgr
    ///     .task(|_| TaskStatus::Done)
    ///     .cpuset(CpuSet::range(0..4))
    ///     .class(TaskClass::Bulk)
    ///     .spawn();
    /// // Runs only after `first` completes, on core 2's own queue.
    /// let second = mgr
    ///     .task(|_| TaskStatus::Done)
    ///     .cpuset(CpuSet::range(0..4))
    ///     .on_core(2)
    ///     .after(&first)
    ///     .spawn();
    /// while !second.is_complete() {
    ///     mgr.schedule(2);
    /// }
    /// ```
    pub fn task<F>(&self, body: F) -> SubmitSpec<'_>
    where
        F: FnMut(&TaskContext<'_>) -> TaskStatus + Send + 'static,
    {
        let (body, handle) = TaskBody::new(body);
        SubmitSpec {
            mgr: self,
            body,
            cpuset: None,
            home: None,
            repeat: false,
            class: TaskClass::Interactive,
            deps: Vec::new(),
            handle,
        }
    }

    /// Common submission tail: enqueue the built task on its home queue and
    /// wake the cores that may run it. Shared by [`SubmitSpec::spawn`], the
    /// waitlist release path, and nothing else — requeues of *running*
    /// tasks go through [`TaskQueue::requeue`] directly.
    fn dispatch(&self, task: Task) {
        let set = task.cpuset.local();
        let home = task.home;
        let depth = self.queues[home.index()].enqueue(task);
        // Spill escalation: a queue *below* its socket node that out-runs
        // the spill threshold moves half its backlog (lowest class first)
        // into the socket overflow, where every member core's hierarchy
        // walk — not just thieves — can drain it.
        if self.socket_overflow_active && depth >= self.config.spill_threshold {
            if let Some(s) = self.queue_socket[home.index()] {
                if home.index() as u32 != self.sockets[s as usize].node {
                    self.spill(home, s as usize, depth);
                }
            }
        }
        self.wake_cores(&set);
    }

    /// Parks `task` on the waitlist until every one of `deps` completes:
    /// the submission half of [`SubmitSpec::after`].
    fn waitlist(&self, task: Task, deps: Vec<TaskHandle>) {
        let pending = PendingTask::new(task, deps.len());
        // A predecessor already complete at registration time will never
        // drain this waiter; satisfy its share here. Wherever the *last*
        // satisfaction lands — here or on a completion path — it releases
        // the task exactly once.
        let already_complete = deps
            .iter()
            .filter(|dep| !dep.add_waiter(pending.clone()))
            .count();
        if already_complete > 0 {
            self.release_waiters(vec![pending; already_complete]);
        }
    }

    /// Dispatches every waitlisted task whose last outstanding predecessor
    /// just completed: the release half of [`SubmitSpec::after`], called
    /// with the waiter list drained by the predecessor's completion.
    pub(super) fn release_waiters(&self, waiters: Vec<Arc<PendingTask>>) {
        for waiter in waiters {
            if let Some(task) = waiter.satisfy_one() {
                self.released.fetch_add(1, Ordering::Relaxed);
                self.dispatch(task);
            }
        }
    }
}

/// A task submission being built: created by [`TaskManager::task`],
/// finished by [`spawn`](Self::spawn).
///
/// Defaults: runnable on **every** core (the Global Queue shape), placed on
/// the smallest topology node covering its CPU set, one-shot,
/// [`TaskClass::Interactive`], no dependencies. Each method
/// overrides one knob.
#[must_use = "a SubmitSpec does nothing until `.spawn()` is called"]
pub struct SubmitSpec<'m> {
    mgr: &'m TaskManager,
    body: TaskBody,
    /// The set the task is queued with, resolved by
    /// [`cpuset`](Self::cpuset): already within the machine's cores.
    cpuset: Option<TaskSet>,
    home: Option<usize>,
    repeat: bool,
    class: TaskClass,
    deps: Vec<TaskHandle>,
    /// Handed out only by [`spawn`](Self::spawn), so every
    /// [`after`](Self::after) edge points at a task already spawned and the
    /// dependency graph is acyclic by construction.
    handle: TaskHandle,
}

impl SubmitSpec<'_> {
    /// Restricts execution to `cpuset` ("a CPU set is attached to the task
    /// so as to avoid unwanted cores to execute it", paper §III). The set
    /// is intersected with the machine's cores; the task is enqueued on
    /// the smallest topology node covering the result unless
    /// [`on_core`](Self::on_core) pins a home.
    ///
    /// The set is resolved here, once, into the two words (a window of
    /// 128 cores) the task is queued with; a set wider than that, on a
    /// machine of more than 128 cores, is boxed. Spawn, dispatch and spill
    /// read only that.
    #[inline]
    pub fn cpuset(mut self, cpuset: CpuSet) -> Self {
        self.cpuset = Some(TaskSet::within(&cpuset, self.mgr.topo.n_cores()));
        self
    }

    /// Pins the task's *home* to `core`'s Per-Core Queue instead of the
    /// smallest node covering its CPU set.
    ///
    /// `core` names the core expected to run the task (it dequeues from
    /// its local queue with an uncontended lock), while the CPU set names
    /// every core *allowed* to — if the home falls behind, those cores
    /// steal the backlog in [`Topology::steal_order_with_distance`] (nearest sibling
    /// first). Without a home, a multi-core cpuset lands in a shared queue
    /// whose lock every allowed core hits on the fast path; a home keeps
    /// the fast path private and pays the shared-lock cost only when
    /// stealing actually happens.
    ///
    /// A repeat task re-enqueues on its home queue after every run, even a
    /// stolen one, so a transient imbalance does not permanently migrate
    /// polling work away from its preferred core.
    #[inline]
    pub fn on_core(mut self, core: usize) -> Self {
        self.home = Some(core);
        self
    }

    /// Sets the QoS class lane (default [`TaskClass::Interactive`]; see
    /// [`TaskClass`] for the service order and the starvation bound).
    #[inline]
    pub fn class(mut self, class: TaskClass) -> Self {
        self.class = class;
        self
    }

    /// Marks the task repetitive: re-enqueued after each run until the
    /// body returns [`TaskStatus::Done`] (the paper's polling option).
    #[inline]
    pub fn repeat(mut self) -> Self {
        self.repeat = true;
        self
    }

    /// Adds a dependency: the task stays parked on the **waitlist** until
    /// `predecessor` completes (or panics — a dependency is an ordering
    /// constraint, not a success gate; see `docs/SCHEDULER.md`). May be
    /// chained to wait on several predecessors; the task is released by
    /// the last one to finish.
    #[inline]
    pub fn after(mut self, predecessor: &TaskHandle) -> Self {
        self.deps.push(predecessor.clone());
        self
    }

    /// Builds the task and hands it to the scheduler: enqueued immediately
    /// when it has no pending dependencies, parked on the waitlist
    /// otherwise. Returns the task's handle.
    ///
    /// The set was resolved by [`cpuset`](Self::cpuset) (every core, if
    /// it was not called): a home is checked against its words, and
    /// without one the queue is found from them
    /// ([`Topology::smallest_covering_words`]).
    ///
    /// # Panics
    ///
    /// Panics if the CPU set selects no core of this machine, or if
    /// [`on_core`](Self::on_core) named a core outside the topology or
    /// outside the CPU set. A message prints the set within the machine.
    #[inline]
    pub fn spawn(self) -> TaskHandle {
        let mgr = self.mgr;
        let topo = &mgr.topo;
        let cpuset = self
            .cpuset
            .unwrap_or_else(|| TaskSet::within(&CpuSet::FULL, topo.n_cores()));
        let home = match self.home {
            Some(core) if core < topo.n_cores() && cpuset.contains(core) => {
                QueueId(topo.core_node(core).index() as u32)
            }
            Some(core) => bad_home(core, topo.n_cores(), &cpuset),
            None => {
                let (first, words) = cpuset.words();
                match topo.smallest_covering_words(first, words) {
                    Some(node) => QueueId(node.index() as u32),
                    None => no_core(&cpuset),
                }
            }
        };
        let task = Task {
            body: self.body,
            repeat: self.repeat,
            class: self.class,
            cpuset,
            home,
        };
        if self.deps.is_empty() {
            mgr.dispatch(task);
        } else {
            mgr.waitlist(task, self.deps);
        }
        self.handle
    }
}

/// [`SubmitSpec::spawn`]'s refusal of a home, out of its inlined body.
#[cold]
#[inline(never)]
fn bad_home(core: usize, n_cores: usize, cpuset: &TaskSet) -> ! {
    assert!(core < n_cores, "home core {core} outside topology");
    panic!("home core {core} not in cpuset {}", cpuset.to_cpuset());
}

/// [`SubmitSpec::spawn`]'s refusal of an empty set, out of its inlined
/// body.
#[cold]
#[inline(never)]
fn no_core(cpuset: &TaskSet) -> ! {
    panic!(
        "cpuset {} selects no core of this machine",
        cpuset.to_cpuset()
    );
}

impl core::fmt::Debug for SubmitSpec<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SubmitSpec")
            .field("cpuset", &self.cpuset.as_ref().map(TaskSet::to_cpuset))
            .field("home", &self.home)
            .field("repeat", &self.repeat)
            .field("class", &self.class)
            .field("deps", &self.deps.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::kwak_mgr;
    use super::*;
    use crate::completion::unpooled;

    #[test]
    #[should_panic(expected = "selects no core")]
    fn empty_cpuset_panics() {
        let mgr = kwak_mgr();
        let _ = mgr.task(|_| TaskStatus::Done).cpuset(CpuSet::EMPTY).spawn();
    }

    #[test]
    fn foreign_cores_are_masked() {
        let mgr = kwak_mgr();
        // Core 100 does not exist on kwak; the effective set is {1}.
        let h = mgr
            .task(|_| TaskStatus::Done)
            .cpuset(CpuSet::from_iter([1, 100]))
            .spawn();
        assert!(mgr.schedule(1));
        assert!(h.is_complete());
    }

    #[test]
    #[should_panic(expected = "not in cpuset")]
    fn submit_on_rejects_home_outside_cpuset() {
        let mgr = kwak_mgr();
        let _ = mgr
            .task(|_| TaskStatus::Done)
            .cpuset(CpuSet::single(3))
            .on_core(2)
            .spawn();
    }

    #[test]
    fn dependent_task_waits_for_its_predecessor() {
        let mgr = kwak_mgr();
        let first = mgr
            .task(unpooled(|_| TaskStatus::Done))
            .cpuset(CpuSet::single(0))
            .spawn();
        let second = mgr
            .task(unpooled(|_| TaskStatus::Done))
            .cpuset(CpuSet::single(0))
            .after(&first)
            .spawn();
        // Only the predecessor is enqueued; the dependent is parked.
        assert_eq!(mgr.pending_tasks(), 1);
        assert_eq!(mgr.schedule_batch(0, 1), 1, "runs the predecessor");
        assert!(first.is_complete());
        assert!(!second.is_complete());
        assert_eq!(mgr.pending_tasks(), 1, "release re-enqueued the dependent");
        assert_eq!(mgr.schedule_batch(0, 1), 1);
        assert!(second.is_complete());
        assert_eq!(mgr.stats().total_waitlist_released(), 1);
    }

    #[test]
    fn dependent_on_completed_predecessor_dispatches_immediately() {
        let mgr = kwak_mgr();
        let first = mgr
            .task(unpooled(|_| TaskStatus::Done))
            .cpuset(CpuSet::single(0))
            .spawn();
        mgr.schedule(0);
        assert!(first.is_complete());
        let second = mgr
            .task(unpooled(|_| TaskStatus::Done))
            .cpuset(CpuSet::single(0))
            .after(&first)
            .spawn();
        assert_eq!(mgr.pending_tasks(), 1, "no parking on a finished task");
        mgr.schedule(0);
        assert!(second.is_complete());
        assert_eq!(mgr.stats().total_waitlist_released(), 1);
    }

    #[test]
    fn dependent_waits_for_every_predecessor() {
        let mgr = kwak_mgr();
        let a = mgr
            .task(unpooled(|_| TaskStatus::Done))
            .cpuset(CpuSet::single(0))
            .spawn();
        let b = mgr
            .task(unpooled(|_| TaskStatus::Done))
            .cpuset(CpuSet::single(1))
            .spawn();
        let joined = mgr
            .task(unpooled(|_| TaskStatus::Done))
            .cpuset(CpuSet::from_iter([0, 1]))
            .after(&a)
            .after(&b)
            .spawn();
        mgr.schedule(0);
        assert!(a.is_complete());
        assert!(!joined.is_complete());
        assert!(
            !mgr.has_work_for(0),
            "one of two predecessors done: still parked"
        );
        // Running b releases the join; the same keypoint's upward scan may
        // already execute it (the release re-enqueues on the {0,1} queue,
        // which is on core 1's path above its per-core queue).
        mgr.schedule(1);
        assert!(b.is_complete());
        let _ = mgr.schedule(0) || mgr.schedule(1);
        assert!(joined.is_complete());
        assert_eq!(mgr.stats().total_waitlist_released(), 1);
    }

    #[test]
    fn panicked_predecessor_still_releases_dependents() {
        // A dependency is an ordering constraint, not a success gate:
        // pipelines drain even when a stage fails.
        let mgr = kwak_mgr();
        let doomed = mgr
            .task(unpooled(|_| panic!("stage failed")))
            .cpuset(CpuSet::single(0))
            .spawn();
        let dependent = mgr
            .task(unpooled(|_| TaskStatus::Done))
            .cpuset(CpuSet::single(0))
            .after(&doomed)
            .spawn();
        mgr.schedule(0);
        assert!(doomed.wait().is_err());
        mgr.schedule(0);
        assert_eq!(dependent.wait(), Ok(()), "released despite the panic");
    }

    #[test]
    fn dependents_spawned_against_a_running_scheduler_all_run_once() {
        // The spawn-side registration races the predecessor's completion on
        // another thread: whichever side wins, the dependent is released —
        // by the drain or by `spawn` itself — exactly once.
        let mgr = kwak_mgr();
        let rounds = if cfg!(miri) { 20 } else { 2_000 };
        let runs = Arc::new(AtomicUsize::new(0));
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Acquire) {
                    mgr.schedule(0);
                }
            });
            for _ in 0..rounds {
                let pred = mgr
                    .task(unpooled(|_| TaskStatus::Done))
                    .cpuset(CpuSet::single(0))
                    .spawn();
                let runs = runs.clone();
                mgr.task(unpooled(move |_| {
                    runs.fetch_add(1, Ordering::Relaxed);
                    TaskStatus::Done
                }))
                .cpuset(CpuSet::single(0))
                .after(&pred)
                .spawn();
                // Dropping both handles here must not matter.
            }
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
            while runs.load(Ordering::Relaxed) < rounds && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Release);
        });
        assert_eq!(
            runs.load(Ordering::Relaxed),
            rounds,
            "a dependent was stranded"
        );
        assert_eq!(mgr.stats().total_waitlist_released(), rounds as u64);
    }

    #[test]
    fn repeat_predecessor_releases_only_on_done() {
        let mgr = kwak_mgr();
        let mut polls = 0;
        let poll = mgr
            .task(unpooled(move |_| {
                polls += 1;
                if polls == 3 {
                    TaskStatus::Done
                } else {
                    TaskStatus::Again
                }
            }))
            .cpuset(CpuSet::single(0))
            .repeat()
            .spawn();
        let dependent = mgr
            .task(unpooled(|_| TaskStatus::Done))
            .cpuset(CpuSet::single(0))
            .after(&poll)
            .spawn();
        mgr.schedule(0); // poll 1: Again — no release
        mgr.schedule(0); // poll 2: Again — no release
        assert!(!dependent.is_complete());
        assert_eq!(mgr.stats().total_waitlist_released(), 0);
        mgr.schedule(0); // poll 3: Done — release
        mgr.schedule(0);
        assert!(dependent.is_complete());
        assert_eq!(mgr.stats().total_waitlist_released(), 1);
    }
}
