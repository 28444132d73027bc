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
    ///     .deadline(7)
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
            options: TaskOptions::oneshot(),
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

    /// Dispatches every waitlisted task whose last outstanding predecessor
    /// just completed: the release half of [`SubmitSpec::after`], called
    /// with the waiter list drained by the predecessor's completion.
    pub(super) fn release_waiters(&self, waiters: Vec<Arc<PendingTask>>) {
        for waiter in waiters {
            if let Some(mut task) = waiter.satisfy_one() {
                self.released_class[task.options.class.index()].fetch_add(1, Ordering::Relaxed);
                // Queueing delay starts now: while parked the task was not
                // schedulable, so the wait on predecessors is not charged
                // to the queues.
                task.submitted_at = self.latency.is_some().then(std::time::Instant::now);
                self.dispatch(task);
            }
        }
    }

    /// Panics iff making `new` depend on `deps` would close a dependency
    /// cycle: depth-first walk of the recorded dependency edges
    /// ([`TaskHandle::deps_snapshot`]) looking for `new` itself. Called at
    /// spawn time, before any waiter is registered, so a rejected
    /// submission has no side effects on its predecessors.
    fn assert_acyclic(new: &TaskHandle, deps: &[TaskHandle]) {
        let mut visited = Vec::new();
        let mut stack = deps.to_vec();
        while let Some(h) = stack.pop() {
            if h.addr() == new.addr() {
                panic!("dependency cycle: a task cannot (transitively) run after itself");
            }
            if visited.contains(&h.addr()) {
                continue;
            }
            visited.push(h.addr());
            // Completed predecessors have empty snapshots: the walk only
            // follows edges that can still delay anything.
            stack.extend(h.deps_snapshot());
        }
    }
}

/// A task submission being built: created by [`TaskManager::task`],
/// finished by [`spawn`](Self::spawn).
///
/// Defaults: runnable on **every** core (the Global Queue shape), placed on
/// the smallest topology node covering its CPU set, one-shot,
/// [`TaskClass::Interactive`], no deadline, no dependencies. Each method
/// overrides one knob.
#[must_use = "a SubmitSpec does nothing until `.spawn()` is called"]
pub struct SubmitSpec<'m> {
    mgr: &'m TaskManager,
    body: TaskBody,
    cpuset: Option<CpuSet>,
    home: Option<usize>,
    options: TaskOptions,
    deps: Vec<TaskHandle>,
    /// Created with the spec (not at spawn) so [`handle`](Self::handle) can
    /// hand out references to the not-yet-spawned task — which is what
    /// makes dependency cycles *expressible*, and why
    /// [`spawn`](Self::spawn) checks for them.
    handle: TaskHandle,
}

impl SubmitSpec<'_> {
    /// Restricts execution to `cpuset` ("a CPU set is attached to the task
    /// so as to avoid unwanted cores to execute it", paper §III). The set
    /// is intersected with the machine's cores; the task is enqueued on
    /// the smallest topology node covering the result unless
    /// [`on_core`](Self::on_core) pins a home.
    pub fn cpuset(mut self, cpuset: CpuSet) -> Self {
        self.cpuset = Some(cpuset);
        self
    }

    /// Pins the task's *home* to `core`'s Per-Core Queue instead of the
    /// smallest node covering its CPU set.
    ///
    /// `core` names the core expected to run the task (it dequeues from
    /// its local queue with an uncontended lock), while the CPU set names
    /// every core *allowed* to — if the home falls behind, those cores
    /// steal the backlog in [`Topology::steal_order`] (nearest sibling
    /// first). Without a home, a multi-core cpuset lands in a shared queue
    /// whose lock every allowed core hits on the fast path; a home keeps
    /// the fast path private and pays the shared-lock cost only when
    /// stealing actually happens.
    ///
    /// A repeat task re-enqueues on its home queue after every run, even a
    /// stolen one, so a transient imbalance does not permanently migrate
    /// polling work away from its preferred core.
    pub fn on_core(mut self, core: usize) -> Self {
        self.home = Some(core);
        self
    }

    /// Sets the QoS class lane (default [`TaskClass::Interactive`]; see
    /// [`TaskClass`] for the service order and the starvation bound).
    pub fn class(mut self, class: TaskClass) -> Self {
        self.options.class = class;
        self
    }

    /// Sets the deadline tick: within its class the task drains
    /// earliest-deadline-first, ahead of the class's no-deadline tasks
    /// (see [`TaskOptions::deadline`]). Never overrides class priority.
    pub fn deadline(mut self, tick: u64) -> Self {
        self.options.deadline = Some(tick);
        self
    }

    /// Marks the task repetitive: re-enqueued after each run until the
    /// body returns [`TaskStatus::Done`] (the paper's polling option).
    pub fn repeat(mut self) -> Self {
        self.options.repeat = true;
        self
    }

    /// Replaces the whole option block at once (repeat + class +
    /// deadline), for callers that already hold a [`TaskOptions`].
    pub fn options(mut self, options: TaskOptions) -> Self {
        self.options = options;
        self
    }

    /// Adds a dependency: the task stays parked on the **waitlist** until
    /// `predecessor` completes (or panics — a dependency is an ordering
    /// constraint, not a success gate; see `docs/SCHEDULER.md`). May be
    /// chained to wait on several predecessors; the task is released by
    /// the last one to finish.
    pub fn after(mut self, predecessor: &TaskHandle) -> Self {
        self.deps.push(predecessor.clone());
        self
    }

    /// The handle of the task being built, available *before*
    /// [`spawn`](Self::spawn). Useful for wiring graphs where a
    /// predecessor's body needs the successor's handle.
    pub fn handle(&self) -> TaskHandle {
        self.handle.clone()
    }

    /// Builds the task and hands it to the scheduler: enqueued immediately
    /// when it has no pending dependencies, parked on the waitlist
    /// otherwise. Returns the same handle as [`handle`](Self::handle).
    ///
    /// # Panics
    ///
    /// Panics if the CPU set selects no core of this machine, if
    /// [`on_core`](Self::on_core) named a core outside the topology or
    /// outside the CPU set, or if the [`after`](Self::after) edges would
    /// close a dependency cycle (checked before any waiter is registered,
    /// so a rejected spawn leaves its predecessors untouched).
    pub fn spawn(self) -> TaskHandle {
        let mgr = self.mgr;
        let requested = self.cpuset.unwrap_or_else(|| mgr.topo.all_cores());
        let effective = requested & mgr.topo.all_cores();
        let home = if let Some(core) = self.home {
            assert!(
                core < mgr.topo.n_cores(),
                "home core {core} outside topology"
            );
            assert!(
                effective.contains(core),
                "home core {core} not in cpuset {requested}"
            );
            QueueId(mgr.topo.core_node(core).index() as u32)
        } else {
            let node = mgr
                .topo
                .smallest_covering(&effective)
                .unwrap_or_else(|| panic!("cpuset {requested} selects no core of this machine"));
            QueueId(node.index() as u32)
        };
        let task = Task {
            body: self.body,
            options: self.options,
            cpuset: TaskSet::new(&effective),
            home,
            submitted_at: mgr.latency.is_some().then(std::time::Instant::now),
        };
        if self.deps.is_empty() {
            mgr.dispatch(task);
            return self.handle;
        }
        let deps = self.deps;
        TaskManager::assert_acyclic(&self.handle, &deps);
        self.handle.set_deps(deps.clone());
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
            mgr.release_waiters(vec![pending; already_complete]);
        }
        self.handle
    }
}

impl core::fmt::Debug for SubmitSpec<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SubmitSpec")
            .field("cpuset", &self.cpuset)
            .field("home", &self.home)
            .field("options", &self.options)
            .field("deps", &self.deps.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::kwak_mgr;
    use super::*;

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
            .task(|_| TaskStatus::Done)
            .cpuset(CpuSet::single(0))
            .spawn();
        let second = mgr
            .task(|_| TaskStatus::Done)
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
        assert_eq!(mgr.stats().waitlist_released_by_class, [0, 1, 0, 0]);
    }

    #[test]
    fn dependent_on_completed_predecessor_dispatches_immediately() {
        let mgr = kwak_mgr();
        let first = mgr
            .task(|_| TaskStatus::Done)
            .cpuset(CpuSet::single(0))
            .spawn();
        mgr.schedule(0);
        assert!(first.is_complete());
        let second = mgr
            .task(|_| TaskStatus::Done)
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
            .task(|_| TaskStatus::Done)
            .cpuset(CpuSet::single(0))
            .spawn();
        let b = mgr
            .task(|_| TaskStatus::Done)
            .cpuset(CpuSet::single(1))
            .spawn();
        let joined = mgr
            .task(|_| TaskStatus::Done)
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
            .task(|_| panic!("stage failed"))
            .cpuset(CpuSet::single(0))
            .spawn();
        let dependent = mgr
            .task(|_| TaskStatus::Done)
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
                    .task(|_| TaskStatus::Done)
                    .cpuset(CpuSet::single(0))
                    .spawn();
                let runs = runs.clone();
                mgr.task(move |_| {
                    runs.fetch_add(1, Ordering::Relaxed);
                    TaskStatus::Done
                })
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
            .task(move |_| {
                polls += 1;
                if polls == 3 {
                    TaskStatus::Done
                } else {
                    TaskStatus::Again
                }
            })
            .cpuset(CpuSet::single(0))
            .repeat()
            .spawn();
        let dependent = mgr
            .task(|_| TaskStatus::Done)
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

    #[test]
    #[should_panic(expected = "dependency cycle")]
    fn dependency_cycle_rejected_at_spawn() {
        let mgr = kwak_mgr();
        // `handle()` makes the cycle expressible: b waits on a's future
        // handle, then a tries to wait on b.
        let spec_a = mgr.task(|_| TaskStatus::Done).cpuset(CpuSet::single(0));
        let ha = spec_a.handle();
        let hb = mgr
            .task(|_| TaskStatus::Done)
            .cpuset(CpuSet::single(0))
            .after(&ha)
            .spawn();
        let _ = spec_a.after(&hb).spawn();
    }

    #[test]
    #[should_panic(expected = "dependency cycle")]
    fn self_dependency_rejected_at_spawn() {
        let mgr = kwak_mgr();
        let spec = mgr.task(|_| TaskStatus::Done).cpuset(CpuSet::single(0));
        let own = spec.handle();
        let _ = spec.after(&own).spawn();
    }

    #[test]
    fn spec_handle_is_the_spawned_handle() {
        let mgr = kwak_mgr();
        let spec = mgr.task(|_| TaskStatus::Done).cpuset(CpuSet::single(0));
        let early = spec.handle();
        let spawned = spec.spawn();
        assert!(!early.is_complete());
        mgr.schedule(0);
        assert!(early.is_complete() && spawned.is_complete());
    }
}
