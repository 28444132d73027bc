//! `piom-harness stats`: a live [`ManagerStats`] snapshot rendered as
//! Prometheus-text-shaped JSON.
//!
//! The layout mirrors what a Prometheus text exposition would carry — one
//! entry per metric *family* with a `type`, a `help` string, and labelled
//! `samples` — but stays JSON so `piom-harness` needs no exposition-format
//! parser on the read side and the existing [`crate::schema`] validator
//! can gate it in tests. Keys are emitted in a fixed order so snapshots
//! diff cleanly.

use pioman::{presets, CpuSet, ManagerStats, TaskClass, TaskManager, TaskStatus};
use std::fmt::Write as _;

/// Renders `stats` as Prometheus-text-shaped JSON (see module docs).
pub fn render_stats_json(stats: &ManagerStats) -> String {
    let mut out = String::new();
    out.push_str("{\n");

    // Per-queue counter families.
    queue_family(
        &mut out,
        stats,
        "piom_queue_submitted_total",
        "Tasks submitted directly to this queue.",
        |q| q.submitted,
    );
    queue_family(
        &mut out,
        stats,
        "piom_queue_executed_total",
        "Task executions drawn from this queue (repeat runs count each time).",
        |q| q.executed,
    );
    queue_family(
        &mut out,
        stats,
        "piom_queue_lock_contended_total",
        "Spinlock acquisitions that found the lock held.",
        |q| q.lock_contended,
    );

    // Per-socket overflow-tier families: depth, then the overflow lock.
    socket_family(
        &mut out,
        stats,
        "piom_socket_overflow_pending",
        "gauge",
        "Tasks currently in the socket's overflow queue.",
        |s| s.overflow_pending as u64,
    );
    socket_family(
        &mut out,
        stats,
        "piom_socket_overflow_lock_acquisitions_total",
        "counter",
        "Overflow spinlock acquisitions (one per spill batch, claim keypoint or overflow steal).",
        |s| s.overflow_lock_acquisitions,
    );
    socket_family(
        &mut out,
        stats,
        "piom_socket_overflow_lock_contended_total",
        "counter",
        "Overflow spinlock acquisitions that found the lock held.",
        |s| s.overflow_lock_contended,
    );

    // Per-core counter families.
    core_family(
        &mut out,
        "piom_core_executed_total",
        "Task executions per core.",
        &stats.executed_by_core,
    );
    core_family(
        &mut out,
        "piom_core_stolen_total",
        "Tasks stolen from outside the core's hierarchy path.",
        &stats.stolen_by_core,
    );
    core_family(
        &mut out,
        "piom_core_steal_attempts_total",
        "Steal probes per core, successful or not.",
        &stats.steal_attempts_by_core,
    );

    // Per-QoS-class counter families (label set: `class`).
    class_family(
        &mut out,
        "piom_class_executed_total",
        "Task executions per QoS class.",
        &stats.executed_by_class,
    );
    class_family(
        &mut out,
        "piom_class_stolen_total",
        "Stolen-task executions per QoS class.",
        &stats.stolen_by_class,
    );
    class_family(
        &mut out,
        "piom_class_waitlist_released_total",
        "Dependency-waitlist releases per QoS class.",
        &stats.waitlist_released_by_class,
    );

    // Every family above ends `},`; JSON wants none after the last.
    out.truncate(out.len() - ",\n".len());
    out.push_str("\n}\n");
    out
}

fn queue_family(
    out: &mut String,
    stats: &ManagerStats,
    name: &str,
    help: &str,
    value: impl Fn(&pioman::QueueStats) -> u64,
) {
    let _ = writeln!(
        out,
        "  \"{name}\": {{ \"type\": \"counter\", \"help\": \"{help}\", \"samples\": ["
    );
    let last = stats.queues.len().saturating_sub(1);
    for (i, q) in stats.queues.iter().enumerate() {
        let sep = if i == last { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{ \"labels\": {{ \"queue\": \"{}\", \"level\": \"{:?}\" }}, \"value\": {} }}{sep}",
            q.id.index(),
            q.level,
            value(q)
        );
    }
    out.push_str("  ] },\n");
}

fn socket_family(
    out: &mut String,
    stats: &ManagerStats,
    name: &str,
    kind: &str,
    help: &str,
    value: impl Fn(&pioman::SocketStats) -> u64,
) {
    let _ = writeln!(
        out,
        "  \"{name}\": {{ \"type\": \"{kind}\", \"help\": \"{help}\", \"samples\": ["
    );
    let last = stats.sockets.len().saturating_sub(1);
    for (i, s) in stats.sockets.iter().enumerate() {
        let sep = if i == last { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{ \"labels\": {{ \"socket\": \"{i}\", \"node\": \"{}\" }}, \"value\": {} }}{sep}",
            s.node,
            value(s)
        );
    }
    out.push_str("  ] },\n");
}

fn class_family(out: &mut String, name: &str, help: &str, values: &[u64; pioman::CLASS_COUNT]) {
    let _ = writeln!(
        out,
        "  \"{name}\": {{ \"type\": \"counter\", \"help\": \"{help}\", \"samples\": ["
    );
    for (i, (class, v)) in TaskClass::ALL.iter().zip(values).enumerate() {
        let sep = if i == pioman::CLASS_COUNT - 1 {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            out,
            "    {{ \"labels\": {{ \"class\": \"{}\" }}, \"value\": {v} }}{sep}",
            class.label()
        );
    }
    out.push_str("  ] },\n");
}

fn core_family(out: &mut String, name: &str, help: &str, values: &[u64]) {
    let _ = writeln!(
        out,
        "  \"{name}\": {{ \"type\": \"counter\", \"help\": \"{help}\", \"samples\": ["
    );
    let last = values.len().saturating_sub(1);
    for (core, v) in values.iter().enumerate() {
        let sep = if core == last { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{ \"labels\": {{ \"core\": \"{core}\" }}, \"value\": {v} }}{sep}"
        );
    }
    out.push_str("  ] },\n");
}

/// Human-readable rendering of the same snapshot for the bare `stats`
/// subcommand: the totals.
pub fn render_stats_text(stats: &ManagerStats) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "tasks submitted       {}", stats.total_submitted());
    let _ = writeln!(out, "tasks executed        {}", stats.total_executed());
    let _ = writeln!(out, "tasks stolen          {}", stats.total_stolen());
    let by_class = stats.executed_by_class;
    let _ = writeln!(
        out,
        "executed by class     urgent={} interactive={} bulk={} background={}",
        by_class[0], by_class[1], by_class[2], by_class[3]
    );
    let _ = writeln!(
        out,
        "waitlist releases     {}",
        stats.total_waitlist_released()
    );
    out
}

/// Runs a small deterministic workload and returns the resulting stats —
/// the data source for `piom-harness stats`. Mixes direct submissions, a
/// repeat (polling) task, and keypoint scheduling across the 8-core kwak
/// preset so every counter family in the export carries non-trivial
/// values.
pub fn demo_stats() -> ManagerStats {
    let topo = std::sync::Arc::new(presets::kwak());
    let mgr = TaskManager::new(topo.clone());
    let n = topo.n_cores();
    // A polling task that needs three passes, as in the paper's §IV-B
    // network-poll shape.
    let mut polls_left = 3u32;
    let poll = mgr
        .task(move |_| {
            polls_left -= 1;
            if polls_left == 0 {
                TaskStatus::Done
            } else {
                TaskStatus::Again
            }
        })
        .cpuset(CpuSet::single(0))
        .repeat()
        .spawn();
    // The QoS tiers + a dependency, so every per-class family carries
    // values: an Urgent task, a Bulk follow-up parked on the waitlist
    // until the poll completes, and a Background sweep.
    let urgent = mgr
        .task(|_| TaskStatus::Done)
        .cpuset(CpuSet::single(1))
        .class(TaskClass::Urgent)
        .spawn();
    let bulk_after = mgr
        .task(|_| TaskStatus::Done)
        .cpuset(CpuSet::single(0))
        .class(TaskClass::Bulk)
        .after(&poll)
        .spawn();
    let background = mgr
        .task(|_| TaskStatus::Done)
        .cpuset(CpuSet::single(2))
        .class(TaskClass::Background)
        .spawn();
    // One oneshot per core, then a keypoint on every core.
    let handles: Vec<_> = (0..n)
        .map(|c| {
            mgr.task(|_| TaskStatus::Done)
                .cpuset(CpuSet::single(c))
                .spawn()
        })
        .collect();
    for c in 0..n {
        mgr.schedule(c);
    }
    while !poll.is_complete() {
        mgr.schedule(0);
    }
    // The poll's completion released the Bulk dependent onto core 0.
    mgr.schedule(0);
    mgr.schedule(1);
    assert!(handles.iter().all(|h| h.is_complete()));
    for h in [urgent, bulk_after, background] {
        assert!(h.is_complete());
    }
    mgr.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::validate_json;

    #[test]
    fn demo_stats_json_is_valid_and_prometheus_shaped() {
        let stats = demo_stats();
        let json = render_stats_json(&stats);
        validate_json(&json).expect("stats export must be well-formed JSON");
        // The demo ran one oneshot per core + 3 polling passes + the
        // three QoS-tier tasks.
        let expected = presets::kwak().n_cores() as u64 + 3 + 3;
        assert_eq!(stats.total_executed(), expected);
        // Every advertised family made it out.
        for family in [
            "piom_queue_submitted_total",
            "piom_queue_executed_total",
            "piom_socket_overflow_pending",
            "piom_socket_overflow_lock_acquisitions_total",
            "piom_socket_overflow_lock_contended_total",
            "piom_core_executed_total",
            "piom_class_executed_total",
            "piom_class_stolen_total",
            "piom_class_waitlist_released_total",
        ] {
            assert!(json.contains(family), "missing family {family}");
        }
        // The per-class samples carry the tier labels and the demo's
        // known per-class values: one Urgent, one Bulk, one Background,
        // everything else Interactive; exactly one waitlist release
        // (the Bulk dependent).
        for label in ["urgent", "interactive", "bulk", "background"] {
            assert!(
                json.contains(&format!("\"class\": \"{label}\"")),
                "missing class label {label}"
            );
        }
        let stats2 = demo_stats();
        assert_eq!(stats2.executed_by_class[0], 1, "one urgent execution");
        assert_eq!(stats2.executed_by_class[2], 1, "one bulk execution");
        assert_eq!(stats2.executed_by_class[3], 1, "one background execution");
        assert_eq!(
            stats2.waitlist_released_by_class,
            [0, 0, 1, 0],
            "exactly the Bulk dependent flowed through the waitlist"
        );
    }

    #[test]
    fn text_rendering_lists_the_totals() {
        let text = render_stats_text(&demo_stats());
        assert!(text.contains("tasks executed"));
        assert!(text.contains("waitlist releases     1"));
    }
}
