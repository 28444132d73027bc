//! Tasks: the unit of work delegated to the task manager.
//!
//! "A task consists in running a function with a given parameter. A CPU set
//! is attached to the task so as to avoid unwanted cores to execute it. As
//! some treatments need to be performed repeatedly (polling a network for
//! example), an option is also added to a task." (paper §III)

use crate::completion::TaskBody;
use crate::manager::TaskManager;
use crate::queue::QueueId;
use piom_cpuset::CpuSet;

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

/// A task's CPU set, small because a [`Task`] moves by value: a set within
/// two adjacent mask words (any set on a ≤ 128-core machine) is those two
/// words, any other is boxed once, at submission. What outlives the task's
/// move into a queue is a [`local`](TaskSet::local) copy, `W` = `CpuSet`.
pub(crate) enum TaskSet<W = Box<CpuSet>> {
    /// `(base, bits)`: cores `base..base + 128`, `base` a multiple of 64.
    Window(u16, [u64; 2]),
    Wide(W),
}

impl<W: core::borrow::Borrow<CpuSet> + From<CpuSet>> TaskSet<W> {
    pub(crate) fn new(set: &CpuSet) -> Self {
        let words = set.as_words();
        let w = (set.first().unwrap_or(0) / 64).min(words.len() - 2);
        match set.last() {
            Some(c) if c / 64 > w + 1 => TaskSet::Wide(W::from(*set)),
            _ => TaskSet::Window((w * 64) as u16, [words[w], words[w + 1]]),
        }
    }

    /// The set by value, allocating nothing.
    pub(crate) fn local(&self) -> TaskSet<CpuSet> {
        match self {
            TaskSet::Window(base, bits) => TaskSet::Window(*base, *bits),
            TaskSet::Wide(set) => TaskSet::Wide(*set.borrow()),
        }
    }

    pub(crate) fn contains(&self, core: usize) -> bool {
        let (first, words) = self.words();
        let i = core.wrapping_sub(first * 64);
        i / 64 < words.len() && words[i / 64] & (1 << (i % 64)) != 0
    }

    /// `(index of the first word, the words from it on)`, as span folds read.
    pub(crate) fn words(&self) -> (usize, &[u64]) {
        match self {
            TaskSet::Window(base, bits) => (usize::from(*base) / 64, bits),
            TaskSet::Wide(set) => (0, set.borrow().as_words()),
        }
    }

    /// The set's cores, ascending: the set bits of each word.
    pub(crate) fn cores(&self) -> impl Iterator<Item = usize> + '_ {
        let (first, words) = self.words();
        words.iter().enumerate().flat_map(move |(i, &w)| {
            let next = |w: &u64| Some(w & (w - 1)).filter(|&w| w != 0);
            core::iter::successors(Some(w).filter(|&w| w != 0), next)
                .map(move |w| (first + i) * 64 + w.trailing_zeros() as usize)
        })
    }
}

/// A schedulable task, as stored in the hierarchical queues.
pub struct Task {
    /// The task's reference to its heap block, which holds the body and
    /// the completion its handles observe.
    pub(crate) body: TaskBody,
    pub(crate) options: TaskOptions,
    pub(crate) cpuset: TaskSet,
    /// Queue the task lives in; repeat tasks re-enqueue here.
    pub(crate) home: QueueId,
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
        let (first, words) = self.cpuset.words();
        let mut all = [0; CpuSet::MAX_CPUS / 64];
        all[first..first + words.len()].copy_from_slice(words);
        CpuSet::from_words(all)
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
            .field("cpuset", &self.cpuset())
            .field("home", &self.home)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// Singles, ranges and sparse sets up to 300 ids wide (both arms of
    /// [`TaskSet`]), sets touching words 0 and 15, and random masks.
    fn arb_cpuset() -> impl Strategy<Value = CpuSet> {
        let shape = (0u8..5, 0usize..CpuSet::MAX_CPUS, 1usize..300, any::<u64>());
        shape.prop_map(|(kind, lo, width, seed)| {
            let hi = (lo + width).min(CpuSet::MAX_CPUS);
            match kind {
                0 => CpuSet::single(lo),
                1 => CpuSet::range(lo..hi),
                2 => (lo..hi)
                    .filter(|&c| seed.rotate_left(c as u32) & 1 == 1)
                    .collect(),
                3 => CpuSet::from_iter([lo % 64, CpuSet::MAX_CPUS - 1 - width % 64]),
                _ => CpuSet::from_words(core::array::from_fn(|i| seed.rotate_left(7 * i as u32))),
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn task_set_is_the_cpuset(s in arb_cpuset()) {
            let task = Task {
                body: TaskBody::new(|_| TaskStatus::Done).0,
                options: TaskOptions::oneshot(),
                cpuset: TaskSet::new(&s),
                home: QueueId(0),
                submitted_at: None,
            };
            prop_assert_eq!(task.cpuset(), s);
            let set = &task.cpuset;
            for c in 0..CpuSet::MAX_CPUS + 64 {
                prop_assert_eq!(set.contains(c), s.contains(c), "core {}", c);
            }
            // Folds and the wake walk read the copy kept past the task's move.
            let local = set.local();
            prop_assert_eq!(local.words(), set.words());
            let span = crate::queue::Span::default();
            span.fold(local.words());
            prop_assert_eq!(span.snapshot(), s, "a span fold sees the whole set");
            let woken: Vec<usize> = local.cores().collect();
            prop_assert_eq!(woken, s.iter().collect::<Vec<_>>());
            let base_word = (s.first().unwrap_or(0) / 64).min(CpuSet::MAX_CPUS / 64 - 2);
            let window = s.last().is_none_or(|l| l / 64 <= base_word + 1);
            prop_assert_eq!(matches!(set, TaskSet::Window(..)), window);
        }
    }
}
