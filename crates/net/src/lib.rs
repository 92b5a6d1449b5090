//! Federation transport over TCP.
//!
//! [`PooledTcpTransport`] implements `multisource::SourceTransport` over
//! blocking std sockets, each call's exchange on the calling thread:
//! per-source connection pooling, frame-level correlation ids, per-source
//! in-flight caps with backpressure, configurable timeouts, and
//! retry-with-backoff — all surfaced as typed `TransportError` variants so
//! the engine can skip-and-report a dead source instead of parking a batch.

mod pool;

pub use pool::{PoolConfig, PoolMetrics, PooledTcpTransport};
