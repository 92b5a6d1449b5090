//! `fedbench` — the federation benchmark.
//!
//! Four workloads over the paper's five sources at the Table II defaults,
//! end-to-end metrics with regression bounds, and an outside-in latency
//! budget taken by a traced probe.  See `README.md` for the metric and
//! workload tables and how to run it; `spec` is the contract
//! `BENCHMARK.json` is generated from.

pub mod check;
pub mod deploy;
pub mod fleet;
pub mod json;
pub mod keepawake;
pub mod probe;
pub mod procfs;
pub mod report;
pub mod run;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod workload;
