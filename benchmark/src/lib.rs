//! The repo benchmark: four closed-loop workloads over real-thread `pioman`
//! and the `newmad` message path, with a traced per-layer run.
//!
//! It is the ruler later performance claims are measured with, and claims
//! nothing itself. `README.md` in this directory has the metric glossary,
//! the reason for each workload and how to read the trace;
//! `../BENCHMARK.json` is the contract the driver runs it under.

pub mod json;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;
