//! The metric vocabulary: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` lists the same names (a test holds the
//! two together); the glossary is in `README.md`.

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees; printed by an untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("latency_p50_ns", "ns", "lower"),
    m("throughput_ops_s", "ops/s", "higher"),
    m("peak_rss_mb", "MiB", "lower"),
    m("setup_s", "s", "lower"),
];

/// Single layers; printed by a traced run. Timings come from the probes in
/// `layers.rs` (the same on every workload), counters from the workload's
/// own traced window, `trace.*` and `tail.*` from comparing its two windows.
pub const PER_LAYER: &[MetricDef] = &[
    m("pioman.spawn_ns.core", "ns", "lower"),
    m("pioman.spawn_ns.numa", "ns", "lower"),
    m("pioman.spawn_ns.global", "ns", "lower"),
    m("pioman.schedule_hit_ns.core", "ns", "lower"),
    m("pioman.schedule_hit_ns.numa", "ns", "lower"),
    m("pioman.schedule_hit_ns.global", "ns", "lower"),
    m("pioman.schedule_miss_ns", "ns", "lower"),
    m("pioman.repeat_rerun_ns", "ns", "lower"),
    m("pioman.runs_per_op", "count", "lower"),
    m("pioman.queue_wait_ns", "ns", "lower"),
    m("pioman.complete_notice_ns", "ns", "lower"),
    m("pioman.batch_drain_ns_per_task", "ns", "lower"),
    m("pioman.adaptive_budget_ns", "ns", "lower"),
    m("pioman.steal_ns_per_task", "ns", "lower"),
    m("pioman.steal_hit_ratio", "ratio", "higher"),
    m("pioman.steal_batch_mean", "count", "higher"),
    m("pioman.worker_share", "ratio", "higher"),
    m("pioman.spill_per_ktask", "count", "lower"),
    m("pioman.claim_per_ktask", "count", "lower"),
    m("pioman.spill_claim_ns_per_task", "ns", "lower"),
    m("pioman.after_spawn_ns", "ns", "lower"),
    m("pioman.waitlist_released_per_ktask", "count", "lower"),
    m("pioman.class_wait_p50_ns.urgent", "ns", "lower"),
    m("pioman.class_wait_p50_ns.interactive", "ns", "lower"),
    m("pioman.class_wait_p50_ns.bulk", "ns", "lower"),
    m("pioman.class_wait_p50_ns.background", "ns", "lower"),
    m("pioman.lock_acq_per_op", "count", "lower"),
    m("pioman.lock_contended_ratio", "ratio", "lower"),
    m("pioman.parks_per_kop", "count", "lower"),
    m("pioman.idle_loops_per_op", "count", "lower"),
    m("pioman.wait_wake_ns", "ns", "lower"),
    m("pioman.wait_wake_iqr_ns", "ns", "lower"),
    m("pioman.idle_cpu_pct", "%", "lower"),
    m("pioman.manager_new_ms.kwak", "ms", "lower"),
    m("pioman.manager_new_ms.quad_socket_1024", "ms", "lower"),
    m("pioman.stats_snapshot_us", "us", "lower"),
    m("newmad.isend_ns.eager64", "ns", "lower"),
    m("newmad.isend_ns.eager4k", "ns", "lower"),
    m("newmad.isend_ns.rndv64k", "ns", "lower"),
    m("newmad.isend_ns.rndv1m", "ns", "lower"),
    m("newmad.irecv_ns", "ns", "lower"),
    m("newmad.poll_ns_per_packet", "ns", "lower"),
    m("newmad.wire_encode_ns", "ns", "lower"),
    m("newmad.wire_decode_ns", "ns", "lower"),
    m("newmad.stripe_plan_ns", "ns", "lower"),
    m("newmad.packets_per_msg", "count", "lower"),
    m("newmad.aggregation_ratio", "ratio", "higher"),
    m("newmad.chunks_per_rndv", "count", "lower"),
    m("newmad.pipeline_stalls_per_msg", "count", "lower"),
    m("newmad.payload_bytes_copied", "count", "lower"),
    m("newmad.sim_checksum", "count", "lower"),
    m("des.step_ns", "ns", "lower"),
    m("des.events_per_msg", "count", "lower"),
    m("des.empty_event_ns", "ns", "lower"),
    m("net.send_ns", "ns", "lower"),
    m("bytes.rope_chain_split_ns", "ns", "lower"),
    m("crossbeam.segqueue_push_pop_ns", "ns", "lower"),
    m("topology.smallest_covering_ns", "ns", "lower"),
    m("topology.path_to_root_ns", "ns", "lower"),
    m("cpuset.intersect_ns", "ns", "lower"),
    m("trace.overhead_pct", "%", "lower"),
    m("trace.coverage_pct", "%", "higher"),
    m("trace.clock_pair_ns", "ns", "lower"),
    m("tail.p99_ns", "ns", "lower"),
    m("tail.p999_ns", "ns", "lower"),
];

/// The per-layer metrics a workload counts in its own window. One that the
/// workload's layers never touch reads 0 — which is the bypass check.
pub const WORKLOAD_COUNTERS: &[&str] = &[
    "pioman.runs_per_op",
    "pioman.steal_hit_ratio",
    "pioman.steal_batch_mean",
    "pioman.worker_share",
    "pioman.spill_per_ktask",
    "pioman.claim_per_ktask",
    "pioman.waitlist_released_per_ktask",
    "pioman.lock_acq_per_op",
    "pioman.lock_contended_ratio",
    "pioman.parks_per_kop",
    "pioman.idle_loops_per_op",
    "newmad.packets_per_msg",
    "newmad.aggregation_ratio",
    "newmad.chunks_per_rndv",
    "newmad.pipeline_stalls_per_msg",
    "newmad.payload_bytes_copied",
    "newmad.sim_checksum",
    "des.events_per_msg",
];
