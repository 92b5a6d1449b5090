//! Zero-dependency observability primitives for the joinable-search stack.
//!
//! The query path explains itself through two channels, and this crate
//! provides both without pulling in a single external dependency (the
//! workspace builds offline):
//!
//! * [`MetricsRegistry`] — lock-cheap [`Counter`]s, [`Gauge`]s and
//!   log₂-bucketed [`Histogram`]s registered by name + labels. Handles are
//!   `Arc`-backed atomics: the hot path is one relaxed `fetch_add`, the
//!   registry mutex is touched only at registration and snapshot time.
//!   A [`MetricsSnapshot`] is a plain-data copy that can cross a process
//!   boundary (the `multisource` crate serialises it onto its wire protocol)
//!   and is read back with [`MetricsSnapshot::find`].
//! * [`Trace`] — a flat list of named, timed [`Span`]s of one request. The
//!   `multisource` engine uses it to time plan/route, each per-shard
//!   transport call, the source-side traversal-vs-verification split (which
//!   rides each reply next to its service time), and aggregation.

#![warn(missing_docs)]

pub mod metrics;
pub mod trace;

pub use metrics::{
    Counter, Gauge, Histogram, MetricSample, MetricValue, MetricsRegistry, MetricsSnapshot,
};
pub use trace::{Span, Trace};
