//! Benchmark-only crate: see `benches/`.
//!
//! * `benches/scheduler.rs` — real-thread microbenchmarks of the core
//!   library: submit/schedule round-trips per queue level, Algorithm 2's
//!   unlocked-empty fast path, cpuset and
//!   topology query costs, batched dequeue (`schedule_batch`), steal-vs-spin
//!   under skewed load, contended global-vs-per-core queues from real
//!   threads, and a NewMadeleine pingpong progressed by the engine.
//! * `benches/tables.rs` — end-to-end regeneration cost of the simulated
//!   Table I/II microbenchmarks (how fast the DES reproduces the paper).
//!
//! `cargo bench` prints mean ns/iter (vendored criterion shim);
//! `piom-harness bench --json` records the same hot paths into
//! `BENCH_pioman.json` for the cross-PR perf trajectory — methodology in
//! `EXPERIMENTS.md`. Both instruments drive the *same* workloads: the
//! [`scenarios`] module is the single definition of the skewed-load,
//! steal/spin, and contended shapes, so the criterion numbers and the
//! recorded trajectory cannot silently diverge.

pub mod scenarios;
