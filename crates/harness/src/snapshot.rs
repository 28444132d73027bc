//! `piom-harness stats`: a live [`ManagerStats`] snapshot rendered as
//! Prometheus-text-shaped JSON.
//!
//! The layout mirrors what a Prometheus text exposition would carry — one
//! entry per metric *family* with a `type`, a `help` string, and labelled
//! `samples`; the latency histogram uses cumulative `le` buckets ending in
//! `"+Inf"` plus `_count`/`_sum`, exactly like a native `histogram` family
//! — but stays JSON so `piom-harness` needs no exposition-format parser on
//! the read side and the existing [`crate::schema`] validator can gate it
//! in tests. Keys are emitted in a fixed order so snapshots diff cleanly.
//!
//! The demo workload behind the CLI subcommand runs the manager with
//! [`ManagerConfig::latency_histogram`](pioman::ManagerConfig) enabled —
//! the flag is off by default precisely so that *only* observability
//! consumers like this one pay for the clock reads.

use pioman::hist::HistSnapshot;
use pioman::{
    presets, CpuSet, HookPoint, ManagerConfig, ManagerStats, TaskClass, TaskManager, TaskStatus,
};
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

    // Hook invocations, labelled by keypoint.
    out.push_str(
        "  \"piom_hook_invocations_total\": { \"type\": \"counter\", \
         \"help\": \"Scheduler keypoint invocations by hook.\", \"samples\": [\n",
    );
    for (i, (hook, v)) in [
        ("idle", stats.hook_idle),
        ("context_switch", stats.hook_context_switch),
        ("timer", stats.hook_timer),
    ]
    .iter()
    .enumerate()
    {
        let sep = if i == 2 { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{ \"labels\": {{ \"hook\": \"{hook}\" }}, \"value\": {v} }}{sep}"
        );
    }
    out.push_str("  ] },\n");

    // The submit→execute latency histogram (always emitted: `null` when
    // the manager was built without the flag, so consumers can tell
    // "disabled" from "no samples yet").
    match &stats.latency {
        Some(snap) => {
            out.push_str("  \"piom_task_latency_ns\": ");
            render_histogram_json(&mut out, snap);
            out.push_str(",\n");
        }
        None => out.push_str("  \"piom_task_latency_ns\": null,\n"),
    }

    // The same histogram split by QoS class: one labelled sample per
    // class, histogram fields flattened into the sample (armed by the
    // same `latency_histogram` flag, `null` when disabled).
    match &stats.latency_by_class {
        Some(snaps) => {
            out.push_str(
                "  \"piom_task_class_latency_ns\": { \"type\": \"histogram\", \
                 \"help\": \"Submit-to-execute queueing delay per task run, by QoS class.\", \
                 \"samples\": [\n",
            );
            let last = snaps.len().saturating_sub(1);
            for (i, snap) in snaps.iter().enumerate() {
                let label = TaskClass::ALL[i].label();
                let _ = write!(
                    out,
                    "    {{ \"labels\": {{ \"class\": \"{label}\" }},\n    "
                );
                render_histogram_fields(&mut out, snap);
                out.push_str(if i == last { "\n" } else { ",\n" });
            }
            out.push_str("  ] }\n");
        }
        None => out.push_str("  \"piom_task_class_latency_ns\": null\n"),
    }

    out.push_str("}\n");
    out
}

/// One `histogram`-typed family: cumulative `le` buckets (inclusive upper
/// bounds, ending `"+Inf"`), `count`, `sum`, and the resolved quantiles.
fn render_histogram_json(out: &mut String, snap: &HistSnapshot) {
    out.push_str("{ \"type\": \"histogram\", ");
    out.push_str("\"help\": \"Submit-to-execute queueing delay per task run.\",\n    ");
    render_histogram_fields(out, snap);
}

/// The label-independent histogram fields (`buckets` through the resolved
/// quantiles), closing the enclosing object — shared between the
/// aggregate family and each per-class labelled sample.
fn render_histogram_fields(out: &mut String, snap: &HistSnapshot) {
    out.push_str("\"buckets\": [\n");
    let mut cumulative = 0u64;
    for (upper, n) in snap.nonzero_buckets() {
        cumulative += n;
        let _ = writeln!(
            out,
            "      {{ \"le\": \"{upper}\", \"cumulative_count\": {cumulative} }},"
        );
    }
    let _ = writeln!(
        out,
        "      {{ \"le\": \"+Inf\", \"cumulative_count\": {} }}",
        snap.count()
    );
    out.push_str("    ],\n");
    let q = |p: f64| snap.quantile(p).unwrap_or(0);
    let _ = writeln!(
        out,
        "    \"count\": {}, \"sum\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {} }}",
        snap.count(),
        snap.sum(),
        q(0.5),
        q(0.99),
        q(0.999),
    );
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
/// subcommand: totals plus the latency percentiles when armed.
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
    let _ = writeln!(
        out,
        "hook invocations      idle={} ctx={} timer={}",
        stats.hook_idle, stats.hook_context_switch, stats.hook_timer
    );
    match &stats.latency {
        Some(snap) => {
            let s = snap.summary();
            let _ = writeln!(
                out,
                "submit→execute ns     count={} mean={:.0} p50={:.0} p99={:.0} p999={:.0} max={:.0}",
                s.count, s.mean, s.p50, s.p99, s.p999, s.max
            );
        }
        None => {
            let _ = writeln!(out, "submit→execute ns     (histogram disabled)");
        }
    }
    out
}

/// Runs a small deterministic workload with the latency histogram armed
/// and returns the resulting stats — the data source for `piom-harness
/// stats`. Mixes direct submissions, a repeat (polling) task, and keypoint
/// scheduling across the 8-core kwak preset so every counter family in the
/// export carries non-trivial values.
pub fn demo_stats() -> ManagerStats {
    let topo = std::sync::Arc::new(presets::kwak());
    let mgr = TaskManager::with_config(
        topo.clone(),
        ManagerConfig {
            latency_histogram: true,
            ..ManagerConfig::default()
        },
    );
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
    // values: an Urgent deadline task, a Bulk follow-up parked on the
    // waitlist until the poll completes, and a Background sweep.
    let urgent = mgr
        .task(|_| TaskStatus::Done)
        .cpuset(CpuSet::single(1))
        .class(TaskClass::Urgent)
        .deadline(7)
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
    // One oneshot per core, then drain via the three keypoint kinds.
    let handles: Vec<_> = (0..n)
        .map(|c| {
            mgr.task(|_| TaskStatus::Done)
                .cpuset(CpuSet::single(c))
                .spawn()
        })
        .collect();
    for c in 0..n {
        mgr.hook(HookPoint::Idle, c);
    }
    while !poll.is_complete() {
        mgr.hook(HookPoint::TimerInterrupt, 0);
    }
    // The poll's completion released the Bulk dependent onto core 0.
    mgr.hook(HookPoint::Idle, 0);
    mgr.hook(HookPoint::ContextSwitch, 1);
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
        // Histogram family present with the exposition-format markers.
        assert!(json.contains("\"piom_task_latency_ns\": { \"type\": \"histogram\""));
        assert!(json.contains("\"le\": \"+Inf\""));
        // The demo ran one oneshot per core + 3 polling passes + the
        // three QoS-tier tasks.
        let expected = presets::kwak().n_cores() as u64 + 3 + 3;
        assert!(json.contains(&format!("\"count\": {expected},")));
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
            "piom_task_class_latency_ns",
            "piom_hook_invocations_total",
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
    fn cumulative_buckets_are_monotone_and_end_at_count() {
        let stats = demo_stats();
        let snap = stats.latency.expect("demo arms the histogram");
        let mut cumulative = 0;
        for (upper, n) in snap.nonzero_buckets() {
            assert!(n > 0);
            cumulative += n;
            assert!(upper >= snap.min().unwrap());
        }
        assert_eq!(cumulative, snap.count());
    }

    #[test]
    fn disabled_histogram_renders_null_but_valid() {
        let mgr = TaskManager::new(std::sync::Arc::new(presets::kwak()));
        let json = render_stats_json(&mgr.stats());
        validate_json(&json).expect("disabled-histogram export still valid");
        assert!(json.contains("\"piom_task_latency_ns\": null"));
        assert!(json.contains("\"piom_task_class_latency_ns\": null"));
    }

    #[test]
    fn text_rendering_mentions_percentiles() {
        let text = render_stats_text(&demo_stats());
        assert!(text.contains("p99="));
        assert!(text.contains("tasks executed"));
    }
}
