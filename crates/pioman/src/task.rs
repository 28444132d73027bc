//! Tasks: the unit of work delegated to the task manager.
//!
//! "A task consists in running a function with a given parameter. A CPU set
//! is attached to the task so as to avoid unwanted cores to execute it. As
//! some treatments need to be performed repeatedly (polling a network for
//! example), an option is also added to a task." (paper §III)

use crate::completion::Completion;
use crate::manager::TaskManager;
use crate::queue::QueueId;
use piom_cpuset::CpuSet;
use std::sync::Arc;

/// What a task body reports after one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStatus {
    /// The task completed; notify waiters, never run again.
    Done,
    /// The task made no conclusive progress (e.g. the network poll found
    /// nothing). A *repeat* task returning `Again` is re-enqueued into the
    /// same queue, exactly as Algorithm 1's `Enqueue(Queue, Task)`.
    /// A one-shot task returning `Again` is treated as `Done`.
    Again,
}

/// QoS class of a task: which per-queue lane it lives in and how soon
/// keypoints drain it relative to other classes.
///
/// Classes are served in **strict priority order** ([`TaskClass::Urgent`]
/// first, [`TaskClass::Background`] last) with one bounded exception: after
/// [`crate::BACKGROUND_BYPASS_LIMIT`] higher-class pops that
/// bypassed a waiting `Background` task, the next pop serves `Background` —
/// the starvation bound stated in docs/SCHEDULER.md ("QoS tiers"). Within a
/// class, tasks drain FIFO, except that tasks carrying a
/// [`TaskOptions::deadline`] drain earliest-deadline-first ahead of the
/// class's no-deadline tasks (a missing deadline reads as "infinitely
/// late").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum TaskClass {
    /// Preemptive work (paper §VI future work: "tasks that can be executed
    /// immediately, even on a distant CPU where a thread is computing"):
    /// rendezvous unlocks, completion signals. Served before everything
    /// else; progression workers are woken eagerly on submission.
    Urgent = 0,
    /// The default class: ordinary request/response progression work.
    #[default]
    Interactive = 1,
    /// Throughput work that tolerates queueing — bulk packing, large
    /// transfers.
    Bulk = 2,
    /// Best-effort maintenance. Only served when no higher class has work,
    /// except for the anti-starvation credit documented on this enum.
    Background = 3,
}

/// Number of QoS classes ([`TaskClass`] variants).
pub const CLASS_COUNT: usize = 4;

impl TaskClass {
    /// All classes in strict priority order (highest first).
    pub const ALL: [TaskClass; CLASS_COUNT] = [
        TaskClass::Urgent,
        TaskClass::Interactive,
        TaskClass::Bulk,
        TaskClass::Background,
    ];

    /// Lane index of this class: 0 (highest priority) … 3 (lowest).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Short lowercase label, used in stats exports.
    pub const fn label(self) -> &'static str {
        match self {
            TaskClass::Urgent => "urgent",
            TaskClass::Interactive => "interactive",
            TaskClass::Bulk => "bulk",
            TaskClass::Background => "background",
        }
    }
}

/// Options attached to a task at submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TaskOptions {
    /// Repetitive task: re-enqueue after each run until the body returns
    /// [`TaskStatus::Done`]. This is the paper's polling option — "it is
    /// considered completed once the corresponding network polling succeeds"
    /// (§IV-B).
    pub repeat: bool,
    /// QoS class: which per-queue lane the task is enqueued into and how
    /// soon keypoints drain it relative to other classes. Defaults to
    /// [`TaskClass::Interactive`].
    pub class: TaskClass,
    /// Optional deadline in integer ticks (caller-defined clock). Within a
    /// class, tasks carrying a deadline drain earliest-deadline-first ahead
    /// of the class's FIFO tasks; `None` reads as "infinitely late".
    /// Deadlines never override class priority.
    pub deadline: Option<u64>,
}

impl TaskOptions {
    /// A task executed at most once.
    pub const fn oneshot() -> Self {
        TaskOptions {
            repeat: false,
            class: TaskClass::Interactive,
            deadline: None,
        }
    }

    /// A repetitive (polling) task: re-run until it reports `Done`.
    pub const fn repeat() -> Self {
        TaskOptions {
            repeat: true,
            class: TaskClass::Interactive,
            deadline: None,
        }
    }

    /// Sets the QoS class (see [`TaskClass`]).
    pub const fn class(mut self, class: TaskClass) -> Self {
        self.class = class;
        self
    }

    /// Sets the deadline tick (see [`TaskOptions::deadline`]).
    pub const fn deadline(mut self, tick: u64) -> Self {
        self.deadline = Some(tick);
        self
    }
}

/// Execution context handed to a task body.
///
/// Carries the executing core and the manager, so bodies can submit
/// follow-up tasks (e.g. a request submission that did not complete
/// immediately submits a polling task, §IV-B).
pub struct TaskContext<'a> {
    /// The (virtual) core executing this task.
    pub core: usize,
    /// The manager running the task.
    pub manager: &'a TaskManager,
}

/// The boxed task body type.
///
/// `FnMut` because repetitive tasks carry state between attempts (e.g. a
/// countdown until a poll succeeds).
pub type TaskFn = Box<dyn FnMut(&TaskContext<'_>) -> TaskStatus + Send>;

/// A schedulable task, as stored in the hierarchical queues.
pub struct Task {
    pub(crate) body: TaskFn,
    pub(crate) options: TaskOptions,
    pub(crate) cpuset: CpuSet,
    /// Queue the task lives in; repeat tasks re-enqueue here.
    pub(crate) home: QueueId,
    pub(crate) completion: Arc<Completion>,
    /// Enqueue timestamp, set only when the manager's submit→execute
    /// latency histogram is enabled
    /// ([`ManagerConfig::latency_histogram`](crate::ManagerConfig)) —
    /// `None` keeps the disabled hot path free of clock reads. Taken (and
    /// for repeat tasks re-stamped) at execution time, so each *run*
    /// measures its own queueing delay.
    pub(crate) submitted_at: Option<std::time::Instant>,
}

impl Task {
    /// The CPU set the submitter attached.
    pub fn cpuset(&self) -> CpuSet {
        self.cpuset
    }

    /// The options the submitter attached.
    pub fn options(&self) -> TaskOptions {
        self.options
    }
}

impl crate::queue::Classed for Task {
    fn class(&self) -> TaskClass {
        self.options.class
    }
    fn deadline(&self) -> Option<u64> {
        self.options.deadline
    }
}

impl core::fmt::Debug for Task {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Task")
            .field("options", &self.options)
            .field("cpuset", &self.cpuset)
            .field("home", &self.home)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_constructors() {
        assert!(!TaskOptions::oneshot().repeat);
        assert!(TaskOptions::repeat().repeat);
        assert_eq!(TaskOptions::default(), TaskOptions::oneshot());
        assert_eq!(TaskOptions::default().class, TaskClass::Interactive);
        assert_eq!(TaskOptions::default().deadline, None);
        let o = TaskOptions::oneshot().class(TaskClass::Bulk).deadline(17);
        assert_eq!(o.class, TaskClass::Bulk);
        assert_eq!(o.deadline, Some(17));
    }

    #[test]
    fn class_priority_order_matches_indices() {
        for (i, c) in TaskClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert!(TaskClass::Urgent < TaskClass::Interactive);
        assert!(TaskClass::Bulk < TaskClass::Background);
        assert_eq!(TaskClass::default(), TaskClass::Interactive);
    }
}
