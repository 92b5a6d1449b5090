//! Zero-dependency observability primitives for the joinable-search stack.
//!
//! A query explains itself in its response: the `multisource` engine returns
//! one record per center↔source exchange, so what a reply can carry needs no
//! instrument here.  This crate keeps the standing instruments for what a
//! reply cannot carry, without pulling in a single external dependency (the
//! workspace builds offline): [`Counter`] and [`Gauge`], shared atomics the
//! pooled transport keeps for its retries, timeouts, backpressure sheds and
//! open connections.

#![warn(missing_docs)]

pub mod metrics;

pub use metrics::{Counter, Gauge};
