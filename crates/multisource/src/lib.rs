//! Multi-source joinable spatial dataset search framework (Section IV).
//!
//! The framework mirrors Fig. 3 of the paper: a set of independent
//! [`DataSource`]s, each holding its own datasets and its own DITS-L, and a
//! [`DataCenter`] that keeps the DITS-G global index built from the sources'
//! root summaries and, beside it, each source's block sketch.  A user builds
//! a [`SearchRequest`] (OJSP, CJSP or kNN — one query or a batch) and the
//! data center
//!
//! 1. consults DITS-G to find the *candidate sources* (first query-
//!    distribution strategy: fewer communication rounds; kNN uses distance
//!    bounds instead of intersection),
//! 2. ships to each candidate only the part of the query that can intersect
//!    it (second strategy: fewer bytes per round) — the cells inside its
//!    root rectangle and, for OJSP, inside the blocks its sketch shows
//!    occupied,
//! 3. lets every candidate run its local OverlapSearch / CoverageSearch /
//!    kNN, and
//! 4. aggregates the per-source results into the final top-`k` answer of a
//!    [`SearchResponse`] — after asking for whatever the first replies show
//!    is still missing: kNN sends the query on to the sources its nearest
//!    source's k-th distance cannot rule out, CJSP fetches the cells of the
//!    candidates a reply only named by size when that size could still beat
//!    a pick (see [`engine`]).
//!
//! # Transports
//!
//! Delivery is pluggable through [`SourceTransport`]: the same planning and
//! aggregation code runs against
//!
//! * [`InProcessTransport`] — sources in this process (the benchmark /
//!   simulation deployment; every request and response is still serialised
//!   into actual bytes by [`message`], and [`comm::CommStats`] accounts
//!   them), and
//! * `net::PooledTcpTransport` (in `crates/net`) — sources as independent
//!   processes speaking length-prefixed frames over TCP (the `source-server`
//!   binary, or [`SourceServer`] threads), with **identical answers and
//!   identical protocol byte counts**.
//!
//! A federated data center bootstraps itself with
//! [`DataCenter::from_transport`], which polls every remote source for its
//! root summary and its block sketch.
//!
//! All query execution flows through the [`engine::QueryEngine`], which fans
//! every batch out as one task per `(query, candidate source)` shard across
//! a pool of worker threads that only call the transport, then records each
//! reply, in task order, as one [`ShardRecord`] of its wave, query, source,
//! bytes, time and search statistics: the response's costs are their fold.
//!
//! Index mutation flows through
//! [`framework::MultiSourceFramework::apply_updates`] (in-process) or
//! [`DataCenter::apply_updates`] (any transport): the center grids each
//! batch at the target source's resolution and adds the blocks of its
//! datasets to the block sketch it holds of the source, the cells travel as
//! [`message::Message::ApplyUpdates`], each source applies them
//! transactionally to its DITS-L, and the new root summary its
//! [`message::Message::SummaryRefresh`] acknowledgement carries is folded
//! into DITS-G before the next query batch is planned — the consistency
//! guarantee that keeps `candidate_sources` pruning lossless under churn
//! (see [`message`] for the protocol details).
//!
//! Failures are typed, not panicked: [`WireError`] for undecodable bytes,
//! [`TransportError`] for undeliverable requests, [`SearchError`] for
//! whole-request failures (see [`error`]).

#![warn(missing_docs)]

pub mod api;
pub mod center;
pub mod comm;
pub mod engine;
pub mod error;
pub mod framework;
pub mod message;
pub mod source;
pub mod transport;
mod workers;

pub use api::{
    SearchKind, SearchRequest, SearchResponse, SearchResults, ShardRecord, SourceFailure,
    WaveRecord,
};
pub use center::{
    AggregatedCoverage, AggregatedKnn, AggregatedOverlap, DataCenter, DistributionStrategy,
    MaintenanceOutcome,
};
pub use comm::{CommConfig, CommStats};
pub use engine::{EngineConfig, QueryEngine};
pub use error::{BatchError, ConfigError, SearchError, TransportError, WireError};
pub use framework::{FrameworkConfig, MultiSourceFramework};
pub use message::{CandidateCells, CellOp, CoverageCandidate, Message, UpdateOp};
pub use source::DataSource;
pub use transport::{
    serve_source_until, ExclusiveTransport, InProcessTransport, ServedReply, ShutdownSignal,
    SourceServer, SourceTransport, TransportReply,
};
