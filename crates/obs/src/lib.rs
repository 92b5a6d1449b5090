//! Zero-dependency observability primitives for the joinable-search stack.
//!
//! A query explains itself in its response, and this crate provides what
//! that needs without pulling in a single external dependency (the
//! workspace builds offline):
//!
//! * [`Trace`] — a flat list of named, timed [`Span`]s of one request. The
//!   `multisource` engine uses it to time plan/route, each per-shard
//!   transport call, the source-side traversal-vs-verification split (which
//!   rides each reply next to its service time), and aggregation.
//! * [`Counter`] and [`Gauge`] — shared atomic instruments, which the pooled
//!   transport keeps for what a reply cannot carry: its retries, timeouts,
//!   backpressure sheds and open connections.

#![warn(missing_docs)]

pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge};
pub use trace::{Span, Trace};
