//! The unified client-facing query API: one request type for every search
//! kind, one response type for every answer.
//!
//! A [`SearchRequest`] names the search kind (OJSP, CJSP, k-nearest
//! datasets), carries one query or a whole batch, and tunes execution —
//! `k`, worker count, distribution strategy, connectivity threshold,
//! degradation mode.  It executes through
//! [`MultiSourceFramework::search`](crate::MultiSourceFramework::search)
//! in-process, or through [`QueryEngine::run`](crate::QueryEngine::run) over
//! any [`SourceTransport`](crate::SourceTransport) — the request is
//! transport-agnostic by construction.
//!
//! A [`SearchResponse`] carries, next to its answers, one [`ShardRecord`]
//! for every exchange a source answered and one [`WaveRecord`] for every
//! wave: every cost of the run — bytes, rounds, the sources' time and their
//! search counters — is a fold of them.
//!
//! ```no_run
//! # use multisource::{SearchRequest, MultiSourceFramework, FrameworkConfig};
//! # use spatial::SpatialDataset;
//! # fn demo(framework: &MultiSourceFramework, query: SpatialDataset) {
//! let response = framework
//!     .search(&SearchRequest::ojsp(query).k(10))
//!     .expect("in-process search");
//! let best = &response.overlap().expect("OJSP answers")[0];
//! println!("{} results, {} bytes moved", best.results.len(), response.comm.total_bytes());
//! # }
//! ```
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::indexing_slicing,
        clippy::todo,
        clippy::unimplemented,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

use std::time::Duration;

use dits::{PhaseTimings, SearchStats};
use spatial::{SourceId, SpatialDataset};

use crate::center::{AggregatedCoverage, AggregatedKnn, AggregatedOverlap, DistributionStrategy};
use crate::comm::CommStats;
use crate::error::SearchError;

/// Which search problem a [`SearchRequest`] asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchKind {
    /// Overlap joinable search (Section VI-A): top-k datasets by shared
    /// cells.
    Ojsp,
    /// Coverage joinable search (Section VI-C): greedy connected set
    /// maximising coverage.
    Cjsp,
    /// k-nearest datasets by the cell-based dataset distance (Definition 6),
    /// routed across sources through DITS-G distance bounds.
    Knn,
}

/// A unified, transport-agnostic search request.
///
/// Built with the `ojsp`/`cjsp`/`knn` constructors (single query) or their
/// `_batch` variants, then refined with the chainable setters.  Unset
/// options inherit the executing framework's / engine's configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchRequest {
    kind: SearchKind,
    queries: Vec<SpatialDataset>,
    k: usize,
    pub(crate) workers: Option<usize>,
    pub(crate) strategy: Option<DistributionStrategy>,
    pub(crate) delta_cells: Option<f64>,
    pub(crate) skip_failed_sources: Option<bool>,
}

impl SearchRequest {
    fn new(kind: SearchKind, queries: Vec<SpatialDataset>) -> Self {
        Self {
            kind,
            queries,
            k: 10,
            workers: None,
            strategy: None,
            delta_cells: None,
            skip_failed_sources: None,
        }
    }

    /// An overlap joinable search for one query.
    pub fn ojsp(query: SpatialDataset) -> Self {
        Self::new(SearchKind::Ojsp, vec![query])
    }

    /// An overlap joinable search over a batch of queries.
    pub fn ojsp_batch(queries: Vec<SpatialDataset>) -> Self {
        Self::new(SearchKind::Ojsp, queries)
    }

    /// A coverage joinable search for one query.
    pub fn cjsp(query: SpatialDataset) -> Self {
        Self::new(SearchKind::Cjsp, vec![query])
    }

    /// A coverage joinable search over a batch of queries.
    pub fn cjsp_batch(queries: Vec<SpatialDataset>) -> Self {
        Self::new(SearchKind::Cjsp, queries)
    }

    /// A k-nearest-datasets search for one query.
    pub fn knn(query: SpatialDataset) -> Self {
        Self::new(SearchKind::Knn, vec![query])
    }

    /// A k-nearest-datasets search over a batch of queries.
    pub fn knn_batch(queries: Vec<SpatialDataset>) -> Self {
        Self::new(SearchKind::Knn, queries)
    }

    /// Number of results per query (default 10).
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Overrides the engine worker count for this request (`0` = one per
    /// CPU; unset = the deployment's configured count).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Overrides the query-distribution strategy for this request.
    pub fn strategy(mut self, strategy: DistributionStrategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Overrides the CJSP connectivity threshold δ (in cell units) for this
    /// request.  A δ that is negative or not finite fails the request with
    /// [`ConfigError::Delta`](crate::ConfigError::Delta).
    pub fn delta_cells(mut self, delta: f64) -> Self {
        self.delta_cells = Some(delta);
        self
    }

    /// The requested search kind.
    pub fn kind(&self) -> SearchKind {
        self.kind
    }

    /// The query batch (a single query is a batch of one).
    pub fn queries(&self) -> &[SpatialDataset] {
        &self.queries
    }

    /// The requested result count per query.
    pub fn requested_k(&self) -> usize {
        self.k
    }

    /// Overrides the engine's degradation mode for this request.  With
    /// `true`, a shard whose source is slow or dead is skipped and reported
    /// in [`SearchResponse::failures`] instead of failing the whole batch —
    /// the answers are computed from the sources that did reply.  With
    /// `false` (the engine default) the first shard error aborts the batch.
    pub fn skip_failed_sources(mut self, skip: bool) -> Self {
        self.skip_failed_sources = Some(skip);
        self
    }
}

/// Typed per-query answers of a [`SearchResponse`], one variant per
/// [`SearchKind`].
#[derive(Debug, Clone, PartialEq)]
pub enum SearchResults {
    /// OJSP answers, in query order.
    Overlap(Vec<AggregatedOverlap>),
    /// CJSP answers, in query order.
    Coverage(Vec<AggregatedCoverage>),
    /// kNN answers, in query order.
    Knn(Vec<AggregatedKnn>),
}

impl SearchResults {
    /// Number of per-query answers.
    pub fn len(&self) -> usize {
        match self {
            SearchResults::Overlap(v) => v.len(),
            SearchResults::Coverage(v) => v.len(),
            SearchResults::Knn(v) => v.len(),
        }
    }

    /// Whether the batch produced no answers (empty batch).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One exchange a source answered: the wave and query it served, the bytes
/// each way, its time and what the source's search counted.
///
/// A shard the transport failed leaves no record; one its source answered
/// with an error, or with a reply of the wrong kind, does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRecord {
    /// The wave the request left in: an index into
    /// [`SearchResponse::waves`].
    pub wave: usize,
    /// The query of the batch it served.
    pub query: usize,
    /// The source that answered.
    pub source: SourceId,
    /// Wire size of the request message, in bytes.
    pub request_bytes: usize,
    /// Wire size of the reply message, in bytes.
    pub reply_bytes: usize,
    /// Wall-clock time of the transport call, the source's service
    /// included.
    pub call: Duration,
    /// The part of `call` the source reported serving — the rest is
    /// transport overhead (framing, sockets, scheduling).  Zero when the
    /// source did not report it.
    pub service: Duration,
    /// The source's split of `service` into index traversal and exact
    /// verification.
    pub phases: PhaseTimings,
    /// The source's local-search statistics (zero when it reported none).
    pub search: SearchStats,
}

/// The center's time around one wave's calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaveRecord {
    /// Planning the wave: routing and clipping every query for the first;
    /// for a follow-up, turning the previous wave's verdicts into requests.
    pub plan: Duration,
    /// Settling the bucket of every query still open once the wave's
    /// replies are in: its answer, or what must be sent first.
    pub settle: Duration,
}

/// One source a degraded run could not get an answer from: the shard(s)
/// bound for it were skipped and the batch was aggregated without them.
///
/// Recorded only when the run opted in with
/// [`SearchRequest::skip_failed_sources`] (or the engine's equivalent
/// configuration); a fail-fast run aborts on the first error instead.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceFailure {
    /// The source that failed.
    pub source: SourceId,
    /// The first error observed on a shard bound for this source.
    pub error: SearchError,
}

/// What a [`SearchRequest`] produces: typed answers plus the cost accounting
/// of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResponse {
    /// Per-query answers, in query order.
    pub results: SearchResults,
    /// Communication statistics accumulated over the whole batch: its
    /// bytes, requests and replies are the fold of [`Self::shards`].
    pub comm: CommStats,
    /// One record per exchange a source answered, in the order the waves
    /// sent them — task order within a wave, whatever the worker count.
    pub shards: Vec<ShardRecord>,
    /// One record per wave: the first, then one per follow-up.
    pub waves: Vec<WaveRecord>,
    /// Sources a degraded run skipped, ascending by source id; always empty
    /// for fail-fast runs.  [`CommStats`] byte and request counters cover
    /// every exchange a source replied to: a shard the transport failed
    /// moves no accounted bytes, while one its source answered with an
    /// error, or with a reply of the wrong kind, is counted like any other.
    /// `sources_contacted` counts planned contacts, including the sources
    /// listed here.  For kNN, which leaves in two waves, a planned
    /// contact is a query's first-wave source or a second-wave source whose
    /// lower bound is within the first reply's k-th distance — counted, as
    /// for OJSP, even when the clip leaves nothing to send it.  A CJSP fetch
    /// of cells goes to a source that has already answered the query: it
    /// adds to `requests`, `replies` and the bytes, never to
    /// `sources_contacted`, and a source that fails one has the candidates
    /// it only named left out of the aggregation.
    pub failures: Vec<SourceFailure>,
    /// Wall-clock time spent planning, searching and aggregating.
    pub elapsed: Duration,
}

impl SearchResponse {
    /// Whether every planned shard completed (no source was skipped).
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// The local-search statistics of every reply, summed.
    pub fn search(&self) -> SearchStats {
        let mut total = SearchStats::new();
        for shard in &self.shards {
            total.merge(&shard.search);
        }
        total
    }
}

impl SearchResponse {
    /// The OJSP answers, if this was an OJSP request.
    pub fn overlap(&self) -> Option<&[AggregatedOverlap]> {
        match &self.results {
            SearchResults::Overlap(v) => Some(v),
            _ => None,
        }
    }

    /// The CJSP answers, if this was a CJSP request.
    pub fn coverage(&self) -> Option<&[AggregatedCoverage]> {
        match &self.results {
            SearchResults::Coverage(v) => Some(v),
            _ => None,
        }
    }

    /// The kNN answers, if this was a kNN request.
    pub fn knn(&self) -> Option<&[AggregatedKnn]> {
        match &self.results {
            SearchResults::Knn(v) => Some(v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial::Point;

    #[test]
    fn builder_chains_and_reports_options() {
        let q = SpatialDataset::new(1, vec![Point::new(0.0, 0.0)]);
        let r = SearchRequest::cjsp(q.clone())
            .k(4)
            .workers(2)
            .strategy(DistributionStrategy::Broadcast)
            .delta_cells(5.0);
        assert_eq!(r.kind(), SearchKind::Cjsp);
        assert_eq!(r.queries().len(), 1);
        assert_eq!(r.requested_k(), 4);
        assert_eq!(r.workers, Some(2));
        assert_eq!(r.strategy, Some(DistributionStrategy::Broadcast));
        assert_eq!(r.delta_cells, Some(5.0));
        assert_eq!(r.skip_failed_sources, None);
        let r = r.skip_failed_sources(true);
        assert_eq!(r.skip_failed_sources, Some(true));

        let batch = SearchRequest::knn_batch(vec![q.clone(), q]);
        assert_eq!(batch.kind(), SearchKind::Knn);
        assert_eq!(batch.queries().len(), 2);
        assert_eq!(batch.workers, None);
    }

    #[test]
    fn results_len_covers_every_variant() {
        assert_eq!(SearchResults::Overlap(vec![]).len(), 0);
        assert!(SearchResults::Coverage(vec![]).is_empty());
        let knn = SearchResults::Knn(vec![AggregatedKnn { neighbors: vec![] }]);
        assert_eq!(knn.len(), 1);
        assert!(!knn.is_empty());
    }
}
