//! The batched, parallel query engine — the single execution path for every
//! multi-source search in the repository.
//!
//! [`QueryEngine::run`] takes a [`SearchRequest`] and fans it out as one task
//! per `(query, candidate source)` pair — one source is one shard, matching
//! the deployment of the paper's Fig. 3 where every data source runs its
//! local search concurrently.  A wave is a map, then a fold: a fixed pool of
//! scoped worker threads only calls the transport and times each call, and
//! the replies, back in task order, are accounted into one ledger of
//! [`CommStats`], [`SearchStats`] and per-source timings on the calling
//! thread — so the reported totals are those of a sequential run of the same
//! plan.
//!
//! The engine is **transport-agnostic**: it plans entirely from the
//! [`SourceSummary`](dits::SourceSummary)s in DITS-G and executes every
//! shard through a [`SourceTransport`] — in-process function calls and
//! framed TCP exchanges run the exact same plan and move the exact same
//! protocol bytes.
//!
//! OJSP, CJSP and kNN share one pipeline, `QueryEngine::drive`; what
//! differs between them is stated once per kind as a `QueryKind`:
//!
//! 1. **Plan** (sequential, cheap): route each query through DITS-G (by MBR
//!    intersection, or by distance bounds for kNN), clip it per candidate
//!    source, and materialise the request messages.
//! 2. **Execute** (parallel): deliver the requests through the transport —
//!    the expensive part, embarrassingly parallel — then account the replies
//!    in task order.
//! 3. **Settle**: bucket the replies per query, then merge each bucket into
//!    the global top-`k` (OJSP, kNN) or run the cross-source greedy
//!    selection over it (CJSP: [`dits::greedy_cover`], the loop every source
//!    runs, over the reply candidates — parallelised over the queries of the
//!    batch) — unless the bucket shows that something must be sent first
//!    (`QueryKind::settle`).
//!
//! Plan and execute repeat until every query has its answer.  kNN asks for
//! more once: each query's nearest source answers first, and the key of the
//! k-th neighbour of its reply decides which other sources are asked at all
//! and what part of the query they are sent.  CJSP asks while a candidate that
//! travelled as a bare size could still beat a pick of the center's greedy,
//! and fetches the cells of those candidates only (the rule and why the
//! answer is exact are on the `Cjsp` kind).
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

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dits::{Neighbor, SearchStats};
use spatial::{dataset_distance_within, CellSet, DatasetId, Mbr, SourceId, SpatialDataset};

use crate::api::{
    SearchKind, SearchRequest, SearchResponse, SearchResults, SourceFailure, SourceTiming,
};
use crate::center::{
    grid, AggregatedCoverage, AggregatedKnn, AggregatedOverlap, DataCenter, DistributionStrategy,
    QueryCellsCache, RoutedSource, BOUND_SLACK,
};
use crate::comm::CommStats;
use crate::error::{ConfigError, SearchError, TransportError};
use crate::message::{CandidateCells, CoverageCandidate, Message};
use crate::source::DataSource;
use crate::transport::{InProcessTransport, SourceTransport, TransportReply};
use crate::workers::par_map;

/// Configuration of the query engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Number of workers, the calling thread among them; `0` means one per
    /// available CPU.
    pub workers: usize,
    /// Query-distribution strategy applied when planning.
    pub strategy: DistributionStrategy,
    /// Connectivity threshold δ in cell units (CJSP only).
    pub delta_cells: f64,
    /// Degradation mode: with `true`, a shard whose source is slow or dead
    /// is skipped and reported per source instead of failing the whole
    /// batch — answers are aggregated from the sources that did reply and
    /// the batch never parks behind one bad source.  With `false` (the
    /// default) the first shard error aborts the batch, which is the right
    /// behaviour for parity testing and in-process deployments where a
    /// failure means a bug rather than a network condition.
    pub skip_failed_sources: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            strategy: DistributionStrategy::PrunedClipped,
            delta_cells: 10.0,
            skip_failed_sources: false,
        }
    }
}

/// One planned shard task: a request bound for one source on behalf of one
/// query of the batch.
struct ShardTask {
    query_idx: usize,
    source: SourceId,
    request: Message,
}

/// How the engine reaches its sources: a borrowed transport object, or an
/// in-process transport it carries by value (so
/// [`MultiSourceFramework::engine`](crate::MultiSourceFramework::engine) can
/// hand out engines without a self-referential borrow).
#[derive(Debug, Clone, Copy)]
enum EngineTransport<'a> {
    InProcess(InProcessTransport<'a>),
    Borrowed(&'a dyn SourceTransport),
}

impl<'a> EngineTransport<'a> {
    fn get(&self) -> &dyn SourceTransport {
        match self {
            EngineTransport::InProcess(t) => t,
            EngineTransport::Borrowed(t) => *t,
        }
    }
}

/// The batched, parallel multi-source query engine.
#[derive(Debug, Clone, Copy)]
pub struct QueryEngine<'a> {
    center: &'a DataCenter,
    transport: EngineTransport<'a>,
    config: EngineConfig,
}

impl<'a> QueryEngine<'a> {
    /// Builds an engine over a data center and any transport (TCP
    /// federation, custom transports, …).
    pub fn new(
        center: &'a DataCenter,
        transport: &'a dyn SourceTransport,
        config: EngineConfig,
    ) -> Self {
        Self {
            center,
            transport: EngineTransport::Borrowed(transport),
            config,
        }
    }

    /// Builds an engine over in-process sources (the default deployment of
    /// every benchmark and test).
    pub fn in_process(
        center: &'a DataCenter,
        sources: &'a [DataSource],
        config: EngineConfig,
    ) -> Self {
        Self {
            center,
            transport: EngineTransport::InProcess(InProcessTransport::new(sources)),
            config,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The sources this engine can actually deliver to.  Routing intersects
    /// DITS-G candidates with this set, so a stale summary (a source that
    /// left the fleet after the center polled it) is skipped instead of
    /// failing every batch with `UnknownSource`.
    fn reachable_sources(&self) -> std::collections::BTreeSet<SourceId> {
        self.transport.get().source_ids().into_iter().collect()
    }

    /// Executes a unified [`SearchRequest`]: applies its option overrides
    /// and drives it through the one pipeline as its [`SearchKind`].
    pub fn run(&self, request: &SearchRequest) -> Result<SearchResponse, SearchError> {
        let mut config = self.config;
        config.workers = request.workers.unwrap_or(config.workers);
        config.strategy = request.strategy.unwrap_or(config.strategy);
        config.delta_cells = request.delta_cells.unwrap_or(config.delta_cells);
        config.skip_failed_sources = request
            .skip_failed_sources
            .unwrap_or(config.skip_failed_sources);
        // Every comparison against a δ that is not a number is false: such
        // a request would route to nothing and return an empty answer.
        if !config.delta_cells.is_finite() || config.delta_cells < 0.0 {
            return Err(ConfigError::Delta(config.delta_cells).into());
        }
        let engine = Self {
            center: self.center,
            transport: self.transport,
            config,
        };
        match request.kind() {
            SearchKind::Ojsp => engine.drive(&Ojsp, request),
            SearchKind::Cjsp => engine.drive(
                &Cjsp {
                    delta: config.delta_cells,
                },
                request,
            ),
            SearchKind::Knn => engine.drive(&Knn, request),
        }
    }

    /// Executes planned shard tasks — one transport call each, made on the
    /// worker pool — then folds the replies, in task order, into `ledger`
    /// and unpacks each as `K`'s reply, honouring the engine's degradation
    /// mode.  Fail-fast (the default) returns the first shard error in task
    /// order, and the pool sends nothing after it; skip-and-report
    /// ([`EngineConfig::skip_failed_sources`]) keeps going, drops the failed
    /// shards' contributions (`None` slots) and records one
    /// [`SourceFailure`] per failed source in `failures`, which a request
    /// carries across its waves — the first error in task order, so the
    /// report is deterministic for a deterministic plan.
    ///
    /// A shard the transport fails accounts nothing: no reply, no bytes.  A
    /// shard whose source did reply — even with [`Message::Error`] or a
    /// reply of the wrong kind — moved bytes, and they are counted with its
    /// timing and statistics.
    fn execute_shards<K: QueryKind>(
        &self,
        tasks: &[ShardTask],
        ledger: &mut Ledger,
        failures: &mut Vec<SourceFailure>,
    ) -> Result<Vec<Option<Vec<K::Item>>>, SearchError> {
        let transport = self.transport.get();
        let call = |task: &ShardTask| {
            let started = Instant::now();
            let reply = transport.call(task.source, &task.request, true);
            (reply, started.elapsed())
        };
        let fail_fast = !self.config.skip_failed_sources;
        // A fail-fast wave stops at the first call that failed or that its
        // source answered with an error; the fold below returns that error
        // (or an earlier one), so a shortened wave never reaches `drive`.
        let failed = |(reply, _): &(Result<TransportReply, TransportError>, Duration)| {
            fail_fast
                && reply
                    .as_ref()
                    .map_or(true, |r| matches!(r.message, Message::Error { .. }))
        };
        let replies = par_map(tasks, self.config.workers, call, failed)?;
        let mut results = Vec::with_capacity(replies.len());
        for (task, (reply, elapsed)) in tasks.iter().zip(replies) {
            let items = reply
                .map_err(SearchError::from)
                .and_then(|reply| ledger.record(task.source, reply, elapsed))
                .and_then(|message| {
                    K::items(task, message)
                        .ok_or_else(|| TransportError::UnexpectedReply(K::REPLY).into())
                });
            match items {
                Ok(items) => results.push(Some(items)),
                Err(error) if fail_fast => return Err(error),
                Err(error) => {
                    if !failures.iter().any(|f| f.source == task.source) {
                        failures.push(SourceFailure {
                            source: task.source,
                            error,
                        });
                    }
                    results.push(None);
                }
            }
        }
        Ok(results)
    }

    /// The one pipeline behind [`Self::run`]: plan → execute → bucket →
    /// settle, with `kind` supplying everything that differs between OJSP,
    /// CJSP and kNN.  After every wave each open query's bucket is settled
    /// ([`QueryKind::settle`]) into its answer or into what must be sent
    /// first — sources held back from the first wave, cells a reply only
    /// named — and that is planned and goes through the same execute →
    /// bucket steps, until every query has its answer.  A traced request
    /// gets timed spans for planning (`plan`, and one `replan` for every
    /// pass that left a query open), each transport call, the sources'
    /// service time and traversal/verification split (which every reply
    /// carries next to its statistics) and aggregation (the last pass).
    fn drive<K: QueryKind + Sync>(
        &self,
        kind: &K,
        request: &SearchRequest,
    ) -> Result<SearchResponse, SearchError> {
        let start = Instant::now();
        let (queries, k) = (request.queries(), request.requested_k());
        let strategy = self.config.strategy;

        let mut comm = CommStats::new();
        // Plans one query's shards for one wave: clips the query per target
        // source and materialises the wire requests.  A routed source counts
        // as contacted even when the clip leaves nothing to send it.
        let mut plan_shards = |tasks: &mut Vec<ShardTask>,
                               plan: &mut QueryPlan,
                               targets: &[RoutedSource],
                               clip_slack: Option<f64>|
         -> Result<(), SearchError> {
            comm.sources_contacted += targets.len();
            for (_, summary) in targets {
                let grid = grid(summary.resolution)?;
                let full = plan.cells.get(&grid, &plan.query.points);
                let clipped = match clip_slack {
                    Some(slack) => self.center.clip_for_source(
                        summary,
                        &grid,
                        full,
                        slack,
                        strategy,
                        K::NEAR_CELLS_ONLY,
                    ),
                    None => full.clone(),
                };
                if clipped.is_empty() {
                    continue;
                }
                if K::KEEPS_QUERY_CELLS && plan.sent_cells.is_none() {
                    plan.sent_cells = Some(full.clone());
                }
                tasks.push(ShardTask {
                    query_idx: plan.query_idx,
                    source: summary.source,
                    request: kind.request(clipped, k),
                });
            }
            Ok(())
        };

        // Plan: route every query (nearest source first) and plan its first
        // wave; what the kind holds back waits in the query's plan, with its
        // gridded cells, for the replies.
        let reachable = self.reachable_sources();
        let routing = kind.routing(self.center)?;
        let mut tasks: Vec<ShardTask> = Vec::new();
        let mut plans: Vec<QueryPlan> = Vec::with_capacity(queries.len());
        for (query_idx, query) in queries.iter().enumerate() {
            let mut plan = QueryPlan {
                query_idx,
                query,
                cells: QueryCellsCache::new(),
                sent_cells: None,
                held_back: Vec::new(),
            };
            let mut targets: Vec<RoutedSource> = match routing {
                Routing::Intersecting { slack_lonlat } => self
                    .center
                    .route(query, slack_lonlat, strategy)
                    .into_iter()
                    .map(|summary| (0.0, summary))
                    .collect(),
                Routing::DistanceBounds => {
                    self.center.knn_route(query, k, strategy, &mut plan.cells)?
                }
            };
            // A stale summary (a source the transport cannot deliver to) is
            // skipped instead of failing the batch with `UnknownSource`.
            targets.retain(|(_, summary)| reachable.contains(&summary.source));
            plan.held_back = targets.split_off(kind.first_wave(strategy).min(targets.len()));
            plan_shards(&mut tasks, &mut plan, &targets, kind.clip_slack())?;
            plans.push(plan);
        }
        let plan_elapsed = start.elapsed();

        // Execute one task per (query, source) shard, in parallel, and
        // bucket the replies per query; then settle every open query's
        // bucket, plan what the ones still open ask for, and go round again
        // until none is.  What is asked depends on the buckets and the
        // failures so far, both in task order, so every worker count sends
        // the same waves; every answer ranks through a total order, so the
        // bucket fill order cannot change it.
        let mut ledger = Ledger::new(request.collect_trace);
        let mut failures: Vec<SourceFailure> = Vec::new();
        let mut buckets: Vec<Vec<K::Item>> = (0..queries.len()).map(|_| Vec::new()).collect();
        let mut answers: Vec<Option<K::Answer>> = (0..queries.len()).map(|_| None).collect();
        let mut open: Vec<usize> = (0..queries.len()).collect();
        let mut replans: Vec<Duration> = Vec::new();
        let settle_workers = if K::SETTLES_ON_THE_POOL {
            self.config.workers
        } else {
            1
        };
        let last_pass = loop {
            let per_task = self.execute_shards::<K>(&tasks, &mut ledger, &mut failures)?;
            for (task, items) in tasks.drain(..).zip(per_task) {
                let Some(items) = items else { continue };
                if let Some(bucket) = buckets.get_mut(task.query_idx) {
                    bucket.extend(items);
                }
            }
            let pass_started = Instant::now();
            let settle = |&query_idx: &usize| match (plans.get(query_idx), buckets.get(query_idx)) {
                (Some(plan), Some(bucket)) => Ok(kind.settle(plan, bucket, &failures, k)),
                _ => Err(SearchError::Internal("an open query has no plan")),
            };
            let verdicts = par_map(&open, settle_workers, settle, Result::is_err)?
                .into_iter()
                .collect::<Result<Vec<_>, _>>()?;
            let mut still_open = Vec::new();
            for (query_idx, verdict) in open.drain(..).zip(verdicts) {
                let (Some(plan), Some(answer)) =
                    (plans.get_mut(query_idx), answers.get_mut(query_idx))
                else {
                    continue;
                };
                match verdict {
                    Settled::Final(settled) => {
                        *answer = Some(settled);
                        continue;
                    }
                    Settled::HeldBack { kth } => {
                        let mut targets = std::mem::take(&mut plan.held_back);
                        targets.retain(|(lower_bound, summary)| {
                            Knn::may_beat(*lower_bound, summary.source, kth)
                        });
                        let (cutoff, _) = kth;
                        let clip = cutoff.is_finite().then_some(cutoff + BOUND_SLACK);
                        plan_shards(&mut tasks, plan, &targets, clip)?;
                    }
                    // Not the query and not a new contact: the sources
                    // named here have already answered it.
                    Settled::Requests(requests) => {
                        tasks.extend(requests.into_iter().map(|(source, request)| ShardTask {
                            query_idx,
                            source,
                            request,
                        }));
                    }
                }
                still_open.push(query_idx);
            }
            open = still_open;
            if open.is_empty() {
                break pass_started.elapsed();
            }
            replans.push(pass_started.elapsed());
        };
        failures.sort_by_key(|f| f.source);
        comm.merge(&ledger.comm);
        let answers = answers
            .into_iter()
            .map(|answer| answer.ok_or(SearchError::Internal("a settled query has no answer")))
            .collect::<Result<Vec<_>, _>>()?;

        let elapsed = start.elapsed();
        let trace = request
            .collect_trace
            .then(|| assemble_trace(plan_elapsed, &replans, ledger.spans, last_pass));
        Ok(SearchResponse {
            results: K::results(answers),
            comm,
            search: ledger.search,
            per_source: ledger.per_source.into_values().collect(),
            failures,
            elapsed,
            trace,
        })
    }
}

/// One query's plan across waves: its gridded cells, so a follow-up wave
/// grids nothing again, the unclipped cells it was first sent as (kept only
/// for a kind that settles against the query), and the routed sources held
/// back from the first wave, nearest first.
struct QueryPlan<'q> {
    query_idx: usize,
    query: &'q SpatialDataset,
    cells: QueryCellsCache,
    sent_cells: Option<CellSet>,
    held_back: Vec<RoutedSource>,
}

/// What a query's bucket amounts to once a wave's replies are in it: the
/// answer, or what has to be sent before there can be one.
enum Settled<A> {
    /// The bucket is final and this is its answer.
    Final(A),
    /// The query itself must still go to those of the sources held back so
    /// far that can still send a key sorting before `kth`, the key
    /// `(distance, source)` of the k-th neighbour the replies so far hold
    /// ([`Knn::may_beat`]).  Each is a new contact and is sent only the query
    /// cells within that distance of its root rectangle and of the blocks of
    /// its sketch — all of them when the distance is infinite.  The plan
    /// gives up everything it held back.
    HeldBack { kth: (f64, SourceId) },
    /// Requests other than the query, sent as they are to sources that have
    /// already answered it.
    Requests(Vec<(SourceId, Message)>),
}

/// How a search kind picks the sources a query is sent to.
#[derive(Debug, Clone, Copy)]
enum Routing {
    /// Sources whose DITS-G summary lies within this slack, in degrees, of
    /// the query's MBR (see `DataCenter::route_slack_lonlat`).
    Intersecting { slack_lonlat: f64 },
    /// Sources whose distance lower bound to the query can still reach the
    /// top-k, nearest first (see `DataCenter::knn_route`).
    DistanceBounds,
}

/// What differs between the search kinds — routing, clipping, the exchange
/// and how a bucket is settled.  Everything else is [`QueryEngine::drive`].
trait QueryKind {
    /// What one source's reply contributes to one query's bucket.
    type Item: Send + Sync;
    /// The aggregated answer to one query.
    type Answer: Send;
    /// The reply variant that answers this kind's request.
    const REPLY: &'static str;
    /// Whether [`Self::settle`] works against the queries themselves, so
    /// planning keeps each query's unclipped cells for it.
    const KEEPS_QUERY_CELLS: bool = false;
    /// Whether settling one bucket is work enough — milliseconds, not a
    /// sort — for a batch's open queries to be settled on the worker pool.
    const SETTLES_ON_THE_POOL: bool = false;
    /// Whether a source's reply depends on a query cell only through the
    /// source's cells within the clip slack of it — the cells it shares for
    /// OJSP, those within the first reply's k-th distance for kNN — so that
    /// a clipped query may also leave out every cell farther than the slack
    /// from the blocks the source's sketch shows occupied
    /// (`DataCenter::clip_for_source`).
    const NEAR_CELLS_ONLY: bool = false;

    /// How queries of this kind are routed.
    fn routing(&self, center: &DataCenter) -> Result<Routing, SearchError>;

    /// The slack, in cell units, around a source's root MBR beyond which
    /// query cells are clipped away; `None` sends every source the whole
    /// query.
    fn clip_slack(&self) -> Option<f64>;

    /// How many of a query's routed sources — nearest first, as routing
    /// orders them — are sent the query straight away.  The rest are held
    /// back in the query's plan until [`Self::settle`] has read those
    /// replies.  By default nothing is held back.
    fn first_wave(&self, _strategy: DistributionStrategy) -> usize {
        usize::MAX
    }

    /// The request carrying one query's cells to one source.
    fn request(&self, query: CellSet, k: usize) -> Message;

    /// Unpacks the reply named by [`Self::REPLY`], which must speak for the
    /// source the task was sent to and answer the task's request; `None` for
    /// anything else.
    fn items(task: &ShardTask, reply: Message) -> Option<Vec<Self::Item>>;

    /// Asked of every open query after every wave: given what its bucket
    /// holds now — and which sources have failed so far, in a run that
    /// skips them — the answer, or what else must be sent first.  Anything
    /// but [`Settled::Final`] must leave less to ask for next time (a kNN
    /// plan gives up its held-back sources, a CJSP bucket gains the cells of
    /// at least one stub or loses a failed source's), which is what ends
    /// the loop in [`QueryEngine::drive`].
    fn settle(
        &self,
        plan: &QueryPlan,
        bucket: &[Self::Item],
        failed: &[SourceFailure],
        k: usize,
    ) -> Settled<Self::Answer>;

    /// Wraps the answers in their [`SearchResults`] variant.
    fn results(answers: Vec<Self::Answer>) -> SearchResults;
}

/// Overlap joinable search: exact-intersection routing, clipping to each
/// source's root MBR and to the blocks of its sketch, global top-k by
/// overlap.
struct Ojsp;

impl QueryKind for Ojsp {
    type Item = (SourceId, dits::OverlapResult);
    type Answer = AggregatedOverlap;
    const REPLY: &'static str = "OverlapReply";
    const NEAR_CELLS_ONLY: bool = true;

    fn routing(&self, center: &DataCenter) -> Result<Routing, SearchError> {
        Ok(Routing::Intersecting {
            slack_lonlat: center.route_slack_lonlat(0.0)?,
        })
    }

    fn clip_slack(&self) -> Option<f64> {
        Some(0.0)
    }

    fn request(&self, query: CellSet, k: usize) -> Message {
        Message::OverlapQuery { query, k }
    }

    fn items(task: &ShardTask, reply: Message) -> Option<Vec<Self::Item>> {
        match reply {
            Message::OverlapReply { source, results } if source == task.source => {
                Some(results.into_iter().map(|r| (source, r)).collect())
            }
            _ => None,
        }
    }

    fn settle(
        &self,
        _plan: &QueryPlan,
        bucket: &[Self::Item],
        _failed: &[SourceFailure],
        k: usize,
    ) -> Settled<AggregatedOverlap> {
        let mut all = bucket.to_vec();
        all.sort_unstable_by(|a, b| {
            b.1.overlap
                .cmp(&a.1.overlap)
                .then(a.0.cmp(&b.0))
                .then(a.1.dataset.cmp(&b.1.dataset))
        });
        all.truncate(k);
        Settled::Final(AggregatedOverlap { results: all })
    }

    fn results(answers: Vec<AggregatedOverlap>) -> SearchResults {
        SearchResults::Overlap(answers)
    }
}

/// Coverage joinable search: routing and clipping widened by the
/// connectivity threshold, cross-source greedy selection at the center —
/// over candidates that travel *bounds first, cells on demand*.
///
/// A source's reply brings the cells of a pick only when the pick lies
/// within δ of the query (for the whole query as for the clipped one it was
/// sent: every dataset of a source lies inside its root rectangle, and the
/// clip window is that rectangle grown by δ); every other pick comes as a
/// stub `(dataset, |S_D|)`.  The center runs [`dits::greedy_cover`] over the
/// candidates it holds cells for and checks the stubs against that run
/// ([`aggregate_coverage`], [`stalled_stubs`]): a stub is never connected to the query, so none can
/// be pick 1; at a later pick *t* the largest stub, by `(|S_D|` descending,
/// key ascending`)`, must lose to `(gain_t, key_t)` under the loop's own
/// tie-break; and a run that ends short of `k` with a member selected stalls
/// on any stub left.  At the first stall the cells of the largest stubs that
/// could have won there are fetched ([`Message::CellsQuery`]), as many as
/// picks were still to make, and the run is repeated over the larger
/// bucket.
///
/// Once nothing stalls, the run over the held candidates *is* the run over
/// all of them — by induction over its picks: the same members so far
/// connect the same held candidates, and whichever stubs they connect gain
/// at most their size (gain is submodular: `|S_D|` bounds it at every
/// iteration), which loses to the pick.  So the answer equals what
/// aggregating every pick of every source with its cells gives, while cells
/// travel only for the candidates that can matter.  (Like the aggregation
/// itself, this compares cells of one grid: a federation of mixed
/// resolutions gets an answer, but not one this argument describes.)
struct Cjsp {
    /// Connectivity threshold δ in cell units.
    delta: f64,
}

impl QueryKind for Cjsp {
    type Item = CoverageCandidate;
    type Answer = AggregatedCoverage;
    const REPLY: &'static str = "CoverageReply";
    const KEEPS_QUERY_CELLS: bool = true;
    const SETTLES_ON_THE_POOL: bool = true;

    fn routing(&self, center: &DataCenter) -> Result<Routing, SearchError> {
        Ok(Routing::Intersecting {
            slack_lonlat: center.route_slack_lonlat(self.delta)?,
        })
    }

    fn clip_slack(&self) -> Option<f64> {
        Some(self.delta)
    }

    /// The answer once the run over the held candidates stands, and until
    /// then one [`Message::CellsQuery`] per source that owns a stub it
    /// stalls on, sources and datasets ascending.  Nothing is kept from one
    /// wave to the next — the run is repeated over whatever the bucket
    /// holds — and each query's run is independent, so a batch is settled on
    /// the worker pool.
    fn settle(
        &self,
        plan: &QueryPlan,
        bucket: &[CoverageCandidate],
        failed: &[SourceFailure],
        k: usize,
    ) -> Settled<AggregatedCoverage> {
        let no_cells = CellSet::new();
        let query_cells = plan.sent_cells.as_ref().unwrap_or(&no_cells);
        match aggregate_coverage(query_cells, bucket, failed, k, self.delta) {
            Ok(answer) => Settled::Final(answer),
            Err(stalled) => {
                let mut wanted: BTreeMap<SourceId, Vec<DatasetId>> = BTreeMap::new();
                for (source, dataset) in stalled {
                    wanted.entry(source).or_default().push(dataset);
                }
                Settled::Requests(
                    wanted
                        .into_iter()
                        .map(|(source, mut datasets)| {
                            datasets.sort_unstable();
                            (source, Message::CellsQuery { datasets })
                        })
                        .collect(),
                )
            }
        }
    }

    fn request(&self, query: CellSet, k: usize) -> Message {
        Message::CoverageQuery {
            query,
            k,
            delta: self.delta,
        }
    }

    /// A fetch is answered by exactly the datasets it named, each with its
    /// cells — anything else could leave a stub standing and the engine
    /// asking for it for ever.
    fn items(task: &ShardTask, reply: Message) -> Option<Vec<CoverageCandidate>> {
        let Message::CoverageReply { source, candidates } = reply else {
            return None;
        };
        let owned = source == task.source && candidates.iter().all(|c| c.source == source);
        let answers = match &task.request {
            Message::CellsQuery { datasets } => {
                candidates.len() == datasets.len()
                    && candidates.iter().zip(datasets).all(|(c, &dataset)| {
                        c.dataset == dataset && matches!(c.cells, CandidateCells::Inline(_))
                    })
            }
            _ => true,
        };
        (owned && answers).then_some(candidates)
    }

    fn results(answers: Vec<AggregatedCoverage>) -> SearchResults {
        SearchResults::Coverage(answers)
    }
}

/// k-nearest datasets, in two waves: the routed source with the smallest
/// DITS-G lower bound answers the whole query first, and the key
/// `(c, s_k)` — distance, then source — of the k-th neighbour of its reply
/// decides the rest.  A held-back source `s` with lower bound `lb` is
/// contacted only if `(lb, s) < (c, s_k)` ([`Knn::may_beat`]), and is sent
/// only the query cells within *c* of its root rectangle and of the blocks
/// the center holds of its sketch.  When the first reply held fewer than `k`
/// neighbours, or its shard was skipped as failed, *c* is ∞: every held-back
/// source is sent the whole query.
///
/// This is exact, not approximate.  Definition 6 is a minimum over cell
/// pairs and every dataset of a source lies inside its root rectangle, so
/// every key `s` can send is `(d, s, dataset)` with `d ≥ lb`.  `lb` and *c*
/// are both square roots of integers in cell space (`Mbr::min_distance`, and
/// the distance kernel), so the strict `lb < c` decides exactly.  When
/// `lb ≥ c` and `s > s_k`, every key `s` could send sorts after the `k` keys
/// the first reply already holds, and the global top-k truncates it: with
/// *c* = 0, only sources with a smaller id than the first can still matter.
/// A contacted source loses no pair of cells realising a distance ≤ *c*: its
/// data cell lies inside the root rectangle and inside a block of the
/// sketch, which contains every block the source holds data in (it only
/// grows), so its query cell is within *c* of both and is kept.  A clipped
/// distance therefore equals the true one wherever the true one is ≤ *c*
/// (ties at exactly *c* included — same integer cell pair, same `f64` bits)
/// and can only exceed *c* elsewhere, where the top-k truncates it too.  *c*,
/// the lower bounds and the clip are numbers in each source's own cell
/// units, compared the way the reducer compares reported distances, so a
/// mixed-resolution federation keeps the answer the one-wave merge gives.
///
/// [`DistributionStrategy`] decides as it does for OJSP: `Broadcast` is one
/// unclipped wave to every source, `Pruned` skips without clipping,
/// `PrunedClipped` does both.
struct Knn;

impl Knn {
    /// The order of the answer: distance, then source, then dataset.
    fn by_key(a: &(SourceId, Neighbor), b: &(SourceId, Neighbor)) -> std::cmp::Ordering {
        a.1.distance
            .total_cmp(&b.1.distance)
            .then(a.0.cmp(&b.0))
            .then(a.1.dataset.cmp(&b.1.dataset))
    }

    /// The key `(distance, source)` of the k-th neighbour of the first wave:
    /// no key after it can enter the answer.  Fewer than `k` neighbours, or a
    /// distance that is not a number, give `(∞, SourceId::MAX)`, which every
    /// source may beat.
    fn kth_key(first_wave: &[(SourceId, Neighbor)], k: usize) -> (f64, SourceId) {
        let mut keys = first_wave.to_vec();
        keys.sort_unstable_by(Self::by_key);
        match k.checked_sub(1).and_then(|i| keys.get(i)) {
            Some(&(source, kth)) if keys.iter().all(|(_, n)| !n.distance.is_nan()) => {
                (kth.distance, source)
            }
            _ => (f64::INFINITY, SourceId::MAX),
        }
    }

    /// The tie rule: whether a held-back source with routing lower bound
    /// `lower_bound` can still send a key sorting before `(c, s_k)`, i.e.
    /// `(lower_bound, source) < (c, s_k)` — where a lower bound within
    /// [`BOUND_SLACK`] above *c* is kept as a tie, which is always safe.
    fn may_beat(lower_bound: f64, source: SourceId, (c, s_k): (f64, SourceId)) -> bool {
        lower_bound < c || (lower_bound <= c + BOUND_SLACK && source < s_k)
    }
}

impl QueryKind for Knn {
    type Item = (SourceId, Neighbor);
    type Answer = AggregatedKnn;
    const REPLY: &'static str = "KnnReply";
    const NEAR_CELLS_ONLY: bool = true;

    fn routing(&self, _: &DataCenter) -> Result<Routing, SearchError> {
        Ok(Routing::DistanceBounds)
    }

    /// The first wave travels whole: there is no cutoff to clip by yet.
    fn clip_slack(&self) -> Option<f64> {
        None
    }

    fn first_wave(&self, strategy: DistributionStrategy) -> usize {
        match strategy {
            DistributionStrategy::Broadcast => usize::MAX,
            DistributionStrategy::Pruned | DistributionStrategy::PrunedClipped => 1,
        }
    }

    /// After the first wave, while the plan holds sources back: the first
    /// reply's k-th key, which decides which of them are contacted and what
    /// they are sent.  After that, the global top-k by key.
    fn settle(
        &self,
        plan: &QueryPlan,
        bucket: &[Self::Item],
        _failed: &[SourceFailure],
        k: usize,
    ) -> Settled<AggregatedKnn> {
        if !plan.held_back.is_empty() {
            return Settled::HeldBack {
                kth: Self::kth_key(bucket, k),
            };
        }
        let mut all = bucket.to_vec();
        all.sort_unstable_by(Self::by_key);
        all.truncate(k);
        Settled::Final(AggregatedKnn { neighbors: all })
    }

    fn request(&self, query: CellSet, k: usize) -> Message {
        Message::KnnQuery { query, k }
    }

    fn items(task: &ShardTask, reply: Message) -> Option<Vec<Self::Item>> {
        match reply {
            Message::KnnReply { source, neighbors } if source == task.source => {
                Some(neighbors.into_iter().map(|n| (source, n)).collect())
            }
            _ => None,
        }
    }

    fn results(answers: Vec<AggregatedKnn>) -> SearchResults {
        SearchResults::Knn(answers)
    }
}

/// What the center's greedy ranks candidates by on equal gain.
type CandidateKey = (SourceId, DatasetId);

/// The cross-source greedy selection of CoverageSearch's aggregation phase
/// (Section VI-C applied at the data center) over the candidates whose cells
/// are here: [`dits::greedy_cover`] — the loop every source runs — keyed by
/// `(source, dataset)`, whose connect step is a linear scan of the
/// not-yet-connected candidates against the newest member.  Returns the
/// selected keys in pick order, their gains, the final coverage and the
/// number of δ-tests ([`dataset_distance_within`] calls) the scan ran.
///
/// Each candidate's cell-space MBR is computed once, and a candidate whose
/// box lies farther than δ from the newest member's (or the query's) is
/// not tested: every cell pair is at least the box gap apart on each axis,
/// and the squared gap is formed in `f64` from integers exactly as the
/// kernel forms a pair's and compared with δ in the √ domain as the kernel
/// compares its bounds, so the skip never drops a candidate the kernel
/// would accept.  It also spares building a far candidate's boundary
/// tiles, which the kernel caches on every set it tests.
fn cover_held(
    query_cells: &CellSet,
    candidates: &[CoverageCandidate],
    k: usize,
    delta_cells: f64,
) -> (Vec<CandidateKey>, Vec<usize>, usize, usize) {
    type Held<'c> = (CandidateKey, &'c CellSet, Option<Mbr>);
    let mut unconnected: Vec<Held> = candidates
        .iter()
        .filter_map(|candidate| match &candidate.cells {
            CandidateCells::Inline(cells) => Some((
                (candidate.source, candidate.dataset),
                cells,
                cells.mbr_cell_space(),
            )),
            CandidateCells::Stub(_) => None,
        })
        .collect();
    let query_box = query_cells.mbr_cell_space();
    let mut delta_tests = 0;
    let (selected, gains, coverage) = dits::greedy_cover(
        query_cells,
        k,
        &mut SearchStats::new(),
        |&(key, cells, _): &Held| (key, cells),
        |newest, connected, _| {
            let (probe_cells, probe_box) =
                newest.map_or((query_cells, query_box), |&(_, cells, mbr)| (cells, mbr));
            unconnected.retain(|&candidate| {
                let near = probe_box
                    .zip(candidate.2)
                    .is_some_and(|(a, b)| a.min_distance_squared(&b).sqrt() <= delta_cells);
                if !near {
                    return true;
                }
                delta_tests += 1;
                let within = dataset_distance_within(probe_cells, candidate.1, delta_cells).0;
                if within {
                    connected.push(candidate);
                }
                !within
            });
        },
    );
    (selected, gains, coverage, delta_tests)
}

/// One query's aggregation over what its bucket holds: the run over the held
/// candidates, which is the answer if no open stub stalls it (see [`Cjsp`]
/// for why the stubs then cannot change it) — and otherwise `Err` with the
/// stubs whose cells must be fetched first.
fn aggregate_coverage(
    query_cells: &CellSet,
    candidates: &[CoverageCandidate],
    failed: &[SourceFailure],
    k: usize,
    delta_cells: f64,
) -> Result<AggregatedCoverage, Vec<CandidateKey>> {
    let (selected, gains, coverage, _) = cover_held(query_cells, candidates, k, delta_cells);
    let stubs = open_stubs(candidates, failed);
    let stalled = stalled_stubs(&stubs, &selected, &gains, k);
    if stalled.is_empty() {
        Ok(AggregatedCoverage {
            selected,
            coverage,
            query_coverage: query_cells.len(),
        })
    } else {
        Err(stalled.iter().map(|&(_, key)| key).collect())
    }
}

/// The stubs of a bucket that are still open, as `(|S_D|, key)`, largest
/// first and on equal size smallest key first — the order in which they
/// could win a pick.  A stub is closed once its cells are in the bucket, or
/// once its source has failed in a run that skips failed sources: the answer
/// is then exact over what the center did receive.
fn open_stubs(
    bucket: &[CoverageCandidate],
    failed: &[SourceFailure],
) -> Vec<(usize, CandidateKey)> {
    let held = |key: CandidateKey| {
        bucket
            .iter()
            .any(|c| (c.source, c.dataset) == key && matches!(c.cells, CandidateCells::Inline(_)))
    };
    let mut stubs: Vec<(usize, CandidateKey)> = bucket
        .iter()
        .filter_map(|candidate| match candidate.cells {
            CandidateCells::Stub(size) => Some((size, (candidate.source, candidate.dataset))),
            CandidateCells::Inline(_) => None,
        })
        .filter(|&(_, key)| !held(key) && failed.iter().all(|f| f.source != key.0))
        .collect();
    stubs.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    stubs.dedup();
    stubs
}

/// The stubs whose cells must be fetched before the run `(selected, gains)`
/// over the held candidates can stand — empty when it already does.  `stubs`
/// come ordered as [`open_stubs`] returns them, so the ones that beat a pick
/// are a prefix.
///
/// No stub is connected to the query, so pick 1 stands.  The run stalls at
/// the first later pick that some stub's size beats under the loop's own
/// tie-break (larger gain, then smaller key), or, having ended short of `k`
/// with a member selected, on any stub at all; what is fetched is the
/// largest stubs that could have won there, as many as picks were still to
/// be made.
fn stalled_stubs<'s>(
    stubs: &'s [(usize, CandidateKey)],
    selected: &[CandidateKey],
    gains: &[usize],
    k: usize,
) -> &'s [(usize, CandidateKey)] {
    let picks = selected.iter().zip(gains).enumerate().skip(1);
    for (made, (&key, &gain)) in picks {
        let winners =
            stubs.partition_point(|&(size, stub)| size > gain || (size == gain && stub < key));
        if winners > 0 {
            return stubs.get(..winners.min(k - made)).unwrap_or(stubs);
        }
    }
    if selected.is_empty() || selected.len() >= k {
        return &[];
    }
    stubs.get(..k - selected.len()).unwrap_or(stubs)
}

/// Assembles a run's [`obs::Trace`] from its phase timings and the spans the
/// ledger kept: `plan` (plus one `replan` per follow-up wave) and
/// `aggregate` spans bracket the per-call `call` / `service` /
/// `traversal` / `verify` spans of every wave, and the whole trace is
/// canonicalised so center-side spans come first.
fn assemble_trace(
    plan: Duration,
    replans: &[Duration],
    spans: Vec<obs::Span>,
    aggregate: Duration,
) -> obs::Trace {
    let mut trace = obs::Trace::default();
    trace.push("plan", None, plan);
    for &replan in replans {
        trace.push("replan", None, replan);
    }
    trace.spans.extend(spans);
    trace.push("aggregate", None, aggregate);
    trace.canonicalize();
    trace
}

/// What a request's exchanges add up to, folded on the calling thread in
/// task order: communication bytes, search statistics, per-source transport
/// timing and, when tracing, the per-call spans.
#[derive(Debug)]
struct Ledger {
    comm: CommStats,
    search: SearchStats,
    per_source: BTreeMap<SourceId, SourceTiming>,
    /// Whether the run is traced: then the spans of its replies are kept.
    trace: bool,
    spans: Vec<obs::Span>,
}

impl Ledger {
    fn new(trace: bool) -> Self {
        Self {
            comm: CommStats::new(),
            search: SearchStats::new(),
            per_source: BTreeMap::new(),
            trace,
            spans: Vec::new(),
        }
    }

    /// Accounts one reply a source sent, `elapsed` after its call began —
    /// bytes, timing, statistics and spans, whatever the reply says — and
    /// returns its message, or the error a [`Message::Error`] reply carries.
    fn record(
        &mut self,
        source: SourceId,
        reply: TransportReply,
        elapsed: Duration,
    ) -> Result<Message, SearchError> {
        // Sizes come from the transport (the TCP path reads them off the
        // frames it already moved), so nothing is re-encoded for accounting.
        self.comm.record_request(reply.request_bytes);
        self.comm.record_reply(reply.reply_bytes);
        let timing = self.per_source.entry(source).or_insert(SourceTiming {
            source,
            requests: 0,
            bytes: 0,
            elapsed: Duration::ZERO,
            service: Duration::ZERO,
        });
        timing.requests += 1;
        timing.bytes += reply.request_bytes + reply.reply_bytes;
        timing.elapsed += elapsed;
        timing.service += reply.service.unwrap_or_default();
        if let Some(stats) = reply.search {
            self.search.merge(&stats);
        }
        if self.trace {
            // Source-side spans carry the source id; the call span is the
            // transport wall-clock around the whole exchange.  The phase
            // split rides the reply's timing block, so it is there exactly
            // when the service time is.
            let phases = reply.service.map(|_| reply.phases);
            let spans = [
                ("call", Some(elapsed)),
                ("service", reply.service),
                ("traversal", phases.map(|p| p.traversal)),
                ("verify", phases.map(|p| p.verify)),
            ];
            self.spans
                .extend(spans.into_iter().filter_map(|(name, elapsed)| {
                    Some(obs::Span {
                        name: name.to_string(),
                        source: Some(source),
                        elapsed: elapsed?,
                    })
                }));
        }
        match reply.message {
            Message::Error { code, detail } => Err(TransportError::Remote { code, detail }.into()),
            message => Ok(message),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{FrameworkConfig, MultiSourceFramework};
    use crate::workers::MIN_PARALLEL_TASKS;
    use datagen::{generate_source, paper_sources, GeneratorConfig, SourceScale};
    use spatial::{cell_id, SpatialDataset};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn five_source_framework() -> (MultiSourceFramework, Vec<SpatialDataset>) {
        let config = GeneratorConfig {
            scale: SourceScale::Custom(400),
            seed: 77,
            max_points_per_dataset: Some(100),
        };
        let source_data: Vec<(String, Vec<SpatialDataset>)> = paper_sources()
            .iter()
            .map(|p| (p.name.to_string(), generate_source(p, &config)))
            .collect();
        let queries: Vec<SpatialDataset> = source_data
            .iter()
            .flat_map(|(_, d)| d.iter().take(2).cloned())
            .collect();
        let fw = MultiSourceFramework::build(
            &source_data,
            FrameworkConfig {
                resolution: 11,
                ..FrameworkConfig::default()
            },
        );
        (fw, queries)
    }

    /// `cover_held` without the box test: every unconnected candidate is
    /// δ-tested against the newest member, and the tests are counted.
    fn cover_held_testing_every_candidate(
        query_cells: &CellSet,
        candidates: &[CoverageCandidate],
        k: usize,
        delta_cells: f64,
    ) -> (Vec<CandidateKey>, Vec<usize>, usize, usize) {
        let mut unconnected: Vec<(CandidateKey, &CellSet)> = candidates
            .iter()
            .filter_map(|candidate| match &candidate.cells {
                CandidateCells::Inline(cells) => {
                    Some(((candidate.source, candidate.dataset), cells))
                }
                CandidateCells::Stub(_) => None,
            })
            .collect();
        let mut delta_tests = 0;
        let (selected, gains, coverage) = dits::greedy_cover(
            query_cells,
            k,
            &mut SearchStats::new(),
            |&(key, cells): &(CandidateKey, &CellSet)| (key, cells),
            |newest, connected, _| {
                let probe_cells = newest.map_or(query_cells, |&(_, cells)| cells);
                unconnected.retain(|&candidate| {
                    delta_tests += 1;
                    let within = dataset_distance_within(probe_cells, candidate.1, delta_cells).0;
                    if within {
                        connected.push(candidate);
                    }
                    !within
                });
            },
        );
        (selected, gains, coverage, delta_tests)
    }

    /// The box test before each δ-test skips every far candidate and
    /// changes no pick, no gain and no coverage.
    #[test]
    fn the_box_test_skips_far_candidates_and_changes_no_pick() {
        let square = |x0: u32, y0: u32, side: u32| {
            CellSet::from_cells(
                (x0..x0 + side).flat_map(|x| (y0..y0 + side).map(move |y| cell_id(x, y))),
            )
        };
        let inline = |source: SourceId, dataset: DatasetId, cells: CellSet| CoverageCandidate {
            source,
            dataset,
            cells: CandidateCells::Inline(cells),
        };
        let query = square(0, 0, 3);
        // A chain east of the query, 3 cells between links; squares far to
        // the north-east; one square 3 east and 4 north of the query's
        // corner (5 away); and a diagonal whose box comes within δ of the
        // query's while its cells do not.
        let mut candidates: Vec<CoverageCandidate> = (1..=6)
            .map(|i| inline(0, i, square(5 * i, 0, 3 + i % 2)))
            .collect();
        candidates.extend((0..10).map(|j| inline(1, j, square(200 + 10 * j, 200, 2))));
        candidates.push(inline(2, 0, square(5, 6, 2)));
        candidates.push(inline(
            2,
            1,
            CellSet::from_cells((4..=20).map(|x| cell_id(x, 24 - x))),
        ));
        candidates.push(CoverageCandidate {
            source: 2,
            dataset: 2,
            cells: CandidateCells::Stub(40),
        });
        for k in [1, 3, 8] {
            let (selected, gains, coverage, tests) = cover_held(&query, &candidates, k, 3.0);
            let (all_selected, all_gains, all_coverage, all_tests) =
                cover_held_testing_every_candidate(&query, &candidates, k, 3.0);
            assert_eq!(selected, all_selected);
            assert_eq!(gains, all_gains);
            assert_eq!(coverage, all_coverage);
            assert!(
                tests < all_tests,
                "k = {k}: {tests} δ-tests, {all_tests} without boxes"
            );
        }
        let (selected, _, _, tests) = cover_held(&query, &candidates, 8, 3.0);
        let (_, _, _, all_tests) = cover_held_testing_every_candidate(&query, &candidates, 8, 3.0);
        let picks = [
            (0, 1),
            (0, 2),
            (0, 3),
            (2, 1),
            (0, 4),
            (0, 5),
            (0, 6),
            (2, 0),
        ];
        assert_eq!(selected, picks);
        assert_eq!((tests, all_tests), (11, 109));
    }

    /// A candidate at exactly δ is connected, δ being the `f64` the kernel
    /// reports (`√13`, whose square rounds below 13): one tied on its cells
    /// inside the query's box gap, and one tied at the box corner, which a
    /// box test in the squared domain would skip.
    #[test]
    fn a_candidate_at_exactly_delta_is_connected() {
        let query = CellSet::from_cells([cell_id(0, 0), cell_id(0, 10)]);
        let inline =
            |source: SourceId, dataset: DatasetId, cells: &[(u32, u32)]| CoverageCandidate {
                source,
                dataset,
                cells: CandidateCells::Inline(CellSet::from_cells(
                    cells.iter().map(|&(x, y)| cell_id(x, y)),
                )),
            };
        let candidates = [inline(0, 7, &[(2, 3), (2, 20)]), inline(1, 3, &[(2, 13)])];
        let delta = spatial::dataset_distance(&query, &CellSet::from_cells([cell_id(2, 3)]));
        assert_eq!(delta, 13f64.sqrt());
        let expected = (vec![(0, 7), (1, 3)], vec![2, 1], 5);
        let (selected, gains, coverage, tests) = cover_held(&query, &candidates, 3, delta);
        assert_eq!((selected, gains, coverage), expected);
        assert_eq!(tests, 2);
        let (selected, gains, coverage, _) =
            cover_held_testing_every_candidate(&query, &candidates, 3, delta);
        assert_eq!((selected, gains, coverage), expected);
    }

    /// One request per search kind over the same batch, with the `k` each
    /// kind's tests have always used.
    fn one_request_per_kind(queries: &[SpatialDataset]) -> [SearchRequest; 3] {
        [
            SearchRequest::ojsp_batch(queries.to_vec()).k(5),
            SearchRequest::cjsp_batch(queries.to_vec()).k(3),
            SearchRequest::knn_batch(queries.to_vec()).k(4),
        ]
    }

    #[test]
    fn batch_ojsp_matches_per_query_runs() {
        let (fw, queries) = five_source_framework();
        let batch = fw
            .search(&SearchRequest::ojsp_batch(queries.clone()).k(5))
            .unwrap();
        let answers = batch.overlap().unwrap();
        assert_eq!(answers.len(), queries.len());
        let mut merged = CommStats::new();
        for (query, batched) in queries.iter().zip(answers) {
            let single = fw.search(&SearchRequest::ojsp(query.clone()).k(5)).unwrap();
            assert_eq!(single.overlap().unwrap(), std::slice::from_ref(batched));
            merged.merge(&single.comm);
        }
        assert_eq!(merged.total_bytes(), batch.comm.total_bytes());
        assert_eq!(merged.sources_contacted, batch.comm.sources_contacted);
    }

    #[test]
    fn batch_cjsp_matches_per_query_runs() {
        let (fw, queries) = five_source_framework();
        let batch = fw
            .search(&SearchRequest::cjsp_batch(queries.clone()).k(3))
            .unwrap();
        let answers = batch.coverage().unwrap();
        assert_eq!(answers.len(), queries.len());
        let mut merged = CommStats::new();
        for (query, batched) in queries.iter().zip(answers) {
            let single = fw.search(&SearchRequest::cjsp(query.clone()).k(3)).unwrap();
            assert_eq!(single.coverage().unwrap(), std::slice::from_ref(batched));
            merged.merge(&single.comm);
        }
        assert_eq!(merged.total_bytes(), batch.comm.total_bytes());
    }

    /// The center and a source run one greedy loop: fed a single source's
    /// reply and the cells it then has to fetch, the aggregation re-selects
    /// that source's own sequence.
    #[test]
    fn aggregating_one_reply_reselects_the_sources_own_sequence() {
        let (fw, queries) = five_source_framework();
        let (k, delta) = (5, 10.0);
        let kind = Cjsp { delta };
        let (mut compared, mut stubs, mut fetched) = (0, 0, 0);
        for source in fw.sources() {
            for query in &queries {
                let cells = source.grid_query(query);
                let (own, _) = dits::coverage_search(
                    source.index(),
                    &cells,
                    dits::CoverageConfig::new(k, delta),
                );
                let candidates_of = |request: &Message| match source.serve_readonly(request).message
                {
                    Message::CoverageReply { candidates, .. } => candidates,
                    other => panic!("unexpected reply {other:?}"),
                };
                let mut bucket = candidates_of(&Message::CoverageQuery {
                    query: cells.clone(),
                    k,
                    delta,
                });
                stubs += open_stubs(&bucket, &[]).len();
                let plan = QueryPlan {
                    query_idx: 0,
                    query,
                    cells: QueryCellsCache::new(),
                    sent_cells: Some(cells.clone()),
                    held_back: Vec::new(),
                };
                let aggregated = loop {
                    match kind.settle(&plan, &bucket, &[], k) {
                        Settled::Final(aggregated) => break aggregated,
                        Settled::HeldBack { .. } => panic!("CJSP holds no source back"),
                        Settled::Requests(requests) => {
                            for (to, request) in requests {
                                assert_eq!(to, source.id);
                                let cells_sent = candidates_of(&request);
                                fetched += cells_sent.len();
                                bucket.extend(cells_sent);
                            }
                        }
                    }
                };
                let expected: Vec<(SourceId, spatial::DatasetId)> =
                    own.datasets.iter().map(|&d| (source.id, d)).collect();
                assert_eq!(aggregated.selected, expected);
                assert_eq!(aggregated.coverage, own.coverage);
                compared += own.datasets.len();
            }
        }
        assert!(compared > 0, "no query reached any source");
        // Every pick of a lone source is in the answer, so every stub stalls.
        assert!(stubs > 0, "the fixture names no candidate by size alone");
        assert_eq!(fetched, stubs);
    }

    /// A δ no distance can be compared with is refused before anything is
    /// planned, whichever way it reaches the engine.
    #[test]
    fn a_delta_that_is_not_a_distance_is_a_typed_error() {
        let (fw, queries) = five_source_framework();
        for delta in [f64::NAN, f64::INFINITY, -1.0] {
            let refused = |result: Result<SearchResponse, SearchError>| match result {
                Err(SearchError::Config(ConfigError::Delta(d))) => {
                    assert_eq!(d.to_bits(), delta.to_bits())
                }
                other => panic!("δ={delta}: {other:?}"),
            };
            refused(fw.search(&SearchRequest::cjsp_batch(queries.clone()).delta_cells(delta)));
            let config = EngineConfig {
                delta_cells: delta,
                ..EngineConfig::default()
            };
            let engine = QueryEngine::in_process(fw.center(), fw.sources(), config);
            refused(engine.run(&SearchRequest::cjsp_batch(queries.clone())));
        }
    }

    #[test]
    fn search_stats_are_threaded_through_the_engine() {
        let (fw, queries) = five_source_framework();
        let outcome = fw
            .engine()
            .run(&SearchRequest::ojsp_batch(queries).k(5))
            .unwrap();
        let search = outcome.search;
        assert!(search.nodes_visited > 0, "engine must surface search stats");
        assert!(search.exact_computations > 0);
        // Per-source timing covers every contacted source.
        assert!(!outcome.per_source.is_empty());
        assert_eq!(
            outcome.per_source.iter().map(|t| t.requests).sum::<usize>(),
            outcome.comm.requests
        );
        assert_eq!(
            outcome.per_source.iter().map(|t| t.bytes).sum::<usize>(),
            outcome.comm.total_bytes()
        );
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let (fw, _) = five_source_framework();
        for request in one_request_per_kind(&[]) {
            let outcome = fw.engine().run(&request).unwrap();
            assert!(outcome.results.is_empty(), "{:?}", request.kind());
            assert_eq!(outcome.comm, CommStats::new(), "{:?}", request.kind());
        }
    }

    #[test]
    fn multi_source_knn_matches_merged_local_searches() {
        let (fw, queries) = five_source_framework();
        let k = 6;
        let batch = fw
            .engine()
            .run(&SearchRequest::knn_batch(queries.clone()).k(k))
            .unwrap();
        let answers = batch.knn().unwrap();
        assert_eq!(answers.len(), queries.len());
        for (query, answer) in queries.iter().zip(answers) {
            // Oracle: run the local kNN on every source and merge.
            let mut expected: Vec<(SourceId, Neighbor)> = Vec::new();
            for s in fw.sources() {
                let cells = s.grid_query(query);
                if cells.is_empty() {
                    continue;
                }
                let (local, _) = dits::nearest_datasets(s.index(), &cells, k);
                expected.extend(local.into_iter().map(|n| (s.id, n)));
            }
            expected.sort_unstable_by(|a, b| {
                a.1.distance
                    .total_cmp(&b.1.distance)
                    .then(a.0.cmp(&b.0))
                    .then(a.1.dataset.cmp(&b.1.dataset))
            });
            expected.truncate(k);
            assert_eq!(answer.neighbors, expected, "kNN routing lost a result");
            // A query drawn from the federation overlaps itself: distance 0.
            assert_eq!(answer.neighbors[0].1.distance, 0.0);
        }
        // Distance-bound routing pruned at least one (query, source) pair
        // on this clustered workload.
        let broadcast = fw
            .engine()
            .run(
                &SearchRequest::knn_batch(queries.clone())
                    .k(k)
                    .strategy(DistributionStrategy::Broadcast),
            )
            .unwrap();
        assert_eq!(broadcast.knn().unwrap(), answers);
        // One unclipped wave to all five against a first wave of one and a
        // clipped second wave to whoever the cutoff leaves.
        assert_eq!(broadcast.comm.requests, 5 * queries.len());
        assert!(batch.comm.requests >= queries.len());
        assert!(batch.comm.requests < broadcast.comm.requests);
        assert!(batch.comm.sources_contacted < broadcast.comm.sources_contacted);
        assert!(batch.comm.bytes_to_sources < broadcast.comm.bytes_to_sources);
    }

    /// Tracing is opt-in, assembles center-side and per-source spans, and
    /// never changes the answers or the counted protocol bytes.
    #[test]
    fn traced_requests_return_spans_without_changing_bytes() {
        let (fw, queries) = five_source_framework();
        for request in one_request_per_kind(&queries) {
            let kind = request.kind();
            let plain = fw.search(&request).unwrap();
            assert!(plain.trace.is_none(), "{kind:?}: tracing must be opt-in");
            let traced = fw.search(&request.with_trace(true)).unwrap();
            assert_eq!(plain.results, traced.results, "{kind:?}");
            assert_eq!(
                plain.comm, traced.comm,
                "{kind:?}: tracing must not change the counted protocol bytes"
            );
            let trace = traced.trace.expect("trace was requested");
            assert_eq!(trace.spans_named("plan").count(), 1);
            assert_eq!(trace.spans_named("aggregate").count(), 1);
            // One `replan` span per follow-up wave: none for OJSP, kNN's
            // second round (not empty here: the first wave is one request
            // per query), and for CJSP as many as it took to fetch the
            // cells its greedy stalled on — here at least one.
            let replans = trace.spans_named("replan").count();
            match kind {
                SearchKind::Ojsp => assert_eq!(replans, 0),
                SearchKind::Knn => {
                    assert_eq!(replans, 1);
                    assert!(traced.comm.requests > queries.len());
                }
                SearchKind::Cjsp => {
                    assert!(replans >= 1, "the fixture's CJSP batch fetches no cells");
                    // A fetch is no new contact.
                    assert!(traced.comm.requests >= traced.comm.sources_contacted + replans);
                }
            }
            // One call/service/traversal/verify span per exchanged request,
            // each naming the source it was measured on.
            for name in ["call", "service", "traversal", "verify"] {
                assert_eq!(
                    trace.spans_named(name).count(),
                    traced.comm.requests,
                    "{kind:?}"
                );
                assert!(trace.spans_named(name).all(|s| s.source.is_some()));
            }
            // Canonical order puts center-side spans first.
            assert_eq!(trace.spans[0].source, None);
            assert!(trace.total_named("traversal") > Duration::ZERO, "{kind:?}");
            // Service time surfaced per source, bounded by the transport
            // time, and summed over both waves.
            assert!(
                traced
                    .per_source
                    .iter()
                    .all(|t| t.service > Duration::ZERO && t.service <= t.elapsed),
                "{kind:?}"
            );
            assert_eq!(
                traced.per_source.iter().map(|t| t.requests).sum::<usize>(),
                traced.comm.requests,
                "{kind:?}"
            );
        }
    }

    /// On one worker the spans are disjoint intervals of the request — plan,
    /// every call of the first wave, then a replan and the calls it planned
    /// for every follow-up wave, aggregate — so together they never exceed
    /// its wall-clock time and leave only the engine's bookkeeping between
    /// them uncovered.  Held for kNN's second wave and for CJSP's fetches.
    #[test]
    fn two_wave_span_time_covers_the_request() {
        let (fw, queries) = five_source_framework();
        let [_, cjsp, knn] = one_request_per_kind(&queries);
        for request in [knn, cjsp] {
            let request = request.workers(1).with_trace(true);
            span_time_covers(&fw, &request);
        }
    }

    fn span_time_covers(fw: &MultiSourceFramework, request: &SearchRequest) {
        let kind = request.kind();
        let coverage = |response: &SearchResponse| {
            let trace = response.trace.as_ref().expect("trace was requested");
            let covered: Duration = ["plan", "call", "replan", "aggregate"]
                .iter()
                .map(|name| trace.total_named(name))
                .sum();
            assert!(trace.spans_named("replan").count() >= 1, "{kind:?}");
            assert!(covered <= response.elapsed, "{kind:?}: spans overlap");
            covered.as_secs_f64() / response.elapsed.as_secs_f64()
        };
        // The best of a few runs: a preemption inside one of the gaps says
        // nothing about what the spans cover.
        let best = (0..5)
            .map(|_| coverage(&fw.search(request).unwrap()))
            .fold(0.0, f64::max);
        assert!(
            best >= 0.9,
            "{kind:?}: spans cover only {best:.3} of the request"
        );
    }

    /// A transport where one source is "dead": every call to it fails with
    /// a typed timeout, while the rest answer in-process — except the
    /// `erring` source, if any, which answers every call with
    /// [`Message::Error`].  It counts the calls it is asked to make and the
    /// bytes of the error exchanges.
    #[derive(Debug)]
    struct FaultyTransport<'a> {
        inner: InProcessTransport<'a>,
        dead: SourceId,
        erring: Option<SourceId>,
        calls: AtomicUsize,
        error_bytes: AtomicUsize,
    }

    impl<'a> FaultyTransport<'a> {
        fn new(sources: &'a [DataSource], dead: SourceId) -> Self {
            Self {
                inner: InProcessTransport::new(sources),
                dead,
                erring: None,
                calls: AtomicUsize::new(0),
                error_bytes: AtomicUsize::new(0),
            }
        }

        /// The calls made so far, and the count starts again.
        fn take_calls(&self) -> usize {
            self.calls.swap(0, Ordering::Relaxed)
        }
    }

    impl SourceTransport for FaultyTransport<'_> {
        fn source_ids(&self) -> Vec<SourceId> {
            self.inner.source_ids()
        }

        fn call(
            &self,
            source: SourceId,
            request: &Message,
            want_stats: bool,
        ) -> Result<TransportReply, TransportError> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            if source == self.dead {
                return Err(TransportError::Timeout {
                    source,
                    waited: Duration::from_millis(1),
                });
            }
            let reply = self.inner.call(source, request, want_stats)?;
            if Some(source) != self.erring {
                return Ok(reply);
            }
            let message = Message::Error {
                code: crate::message::ERR_UNSUPPORTED,
                detail: "refused by the test".to_string(),
            };
            let reply_bytes = message.wire_size();
            self.error_bytes
                .fetch_add(reply.request_bytes + reply_bytes, Ordering::Relaxed);
            Ok(TransportReply {
                message,
                reply_bytes,
                ..reply
            })
        }
    }

    /// Fail-fast sends nothing after the first failed shard: on the calling
    /// thread a wave ends at it, and on the pool each worker finishes at
    /// most the shard it holds.  Skip-and-report sends every shard.
    #[test]
    fn fail_fast_sends_nothing_after_the_first_failed_shard() {
        let (fw, queries) = five_source_framework();
        let dead = fw.sources()[2].id;
        let faulty = FaultyTransport::new(fw.sources(), dead);
        let engine = QueryEngine::new(fw.center(), &faulty, EngineConfig::default());
        let broadcast = |queries: &[SpatialDataset]| {
            SearchRequest::ojsp_batch(queries.to_vec())
                .k(5)
                .strategy(DistributionStrategy::Broadcast)
        };

        // One query to all five sources in source order, the dead one third.
        let one = broadcast(&queries[..1]).workers(1);
        assert!(engine.run(&one).is_err());
        assert_eq!(faulty.take_calls(), 3);
        let skipped = engine.run(&one.skip_failed_sources(true)).unwrap();
        assert_eq!(skipped.failures.len(), 1);
        assert_eq!(faulty.take_calls(), 5);

        // A batch on the pool: the first dead shard is task 2.  The dead
        // source fails at once, so while its worker parks the cursor the
        // others can each hold one shard at most.
        let workers = 2;
        let batch = broadcast(&queries).workers(workers);
        let tasks = 5 * queries.len();
        assert!(tasks >= MIN_PARALLEL_TASKS);
        for _ in 0..3 {
            assert!(engine.run(&batch).is_err());
            let calls = faulty.take_calls();
            assert!(calls <= 2 + workers, "{calls} calls of {tasks}");
        }
        engine.run(&batch.skip_failed_sources(true)).unwrap();
        assert_eq!(faulty.take_calls(), tasks);
    }

    /// Which failed shards' bytes count: a source that answered — here with
    /// [`Message::Error`] — moved bytes, and they are accounted with the
    /// exchange's timing; a call the transport refused moved none.
    #[test]
    fn an_error_reply_is_accounted_and_a_refused_call_is_not() {
        let (fw, queries) = five_source_framework();
        let (erring, dead) = (fw.sources()[1].id, fw.sources()[3].id);
        let faulty = FaultyTransport {
            erring: Some(erring),
            ..FaultyTransport::new(fw.sources(), dead)
        };
        let request = SearchRequest::ojsp(queries[0].clone())
            .k(5)
            .strategy(DistributionStrategy::Broadcast)
            .skip_failed_sources(true);
        let degraded = QueryEngine::new(fw.center(), &faulty, EngineConfig::default())
            .run(&request)
            .unwrap();
        let failed: Vec<SourceId> = degraded.failures.iter().map(|f| f.source).collect();
        assert_eq!(failed, [erring, dead]);
        assert!(matches!(
            degraded.failures[0].error,
            SearchError::Transport(TransportError::Remote { .. })
        ));
        assert!(matches!(
            degraded.failures[1].error,
            SearchError::Transport(TransportError::Timeout { .. })
        ));

        // The error exchange is on the ledger, bytes and time; the refused
        // call is not.
        let error_bytes = faulty.error_bytes.load(Ordering::Relaxed);
        let timing = |source| degraded.per_source.iter().find(|t| t.source == source);
        let answered = timing(erring).expect("the error exchange is timed");
        assert_eq!((answered.requests, answered.bytes), (1, error_bytes));
        assert!(answered.elapsed > Duration::ZERO);
        assert!(timing(dead).is_none());
        assert_eq!(degraded.comm.requests, 4);
        assert_eq!(degraded.comm.replies, 4);

        // The other sources' exchanges are those of a run where every
        // source answers.
        let healthy = fw.search(&request).unwrap();
        let others = |response: &SearchResponse| {
            response
                .per_source
                .iter()
                .filter(|t| t.source != erring && t.source != dead)
                .map(|t| (t.source, t.requests, t.bytes))
                .collect::<Vec<_>>()
        };
        assert_eq!(others(&degraded), others(&healthy));
        let other_bytes: usize = others(&healthy).iter().map(|&(_, _, bytes)| bytes).sum();
        assert_eq!(degraded.comm.total_bytes(), other_bytes + error_bytes);
    }

    /// In-process sources whose replies claim to come from the next source.
    #[derive(Debug)]
    struct Impostor<'a>(InProcessTransport<'a>);

    impl SourceTransport for Impostor<'_> {
        fn source_ids(&self) -> Vec<SourceId> {
            self.0.source_ids()
        }

        fn call(
            &self,
            source: SourceId,
            request: &Message,
            want_stats: bool,
        ) -> Result<TransportReply, TransportError> {
            let mut reply = self.0.call(source, request, want_stats)?;
            if let Message::OverlapReply { source, .. }
            | Message::CoverageReply { source, .. }
            | Message::KnnReply { source, .. } = &mut reply.message
            {
                *source += 1;
            }
            Ok(reply)
        }
    }

    /// A reply speaks for the source that was asked and for no other: its
    /// results never reach an answer under another source's name.
    #[test]
    fn a_reply_naming_another_source_is_refused() {
        let (fw, queries) = five_source_framework();
        let impostor = Impostor(InProcessTransport::new(fw.sources()));
        let engine = QueryEngine::new(fw.center(), &impostor, EngineConfig::default());
        for request in one_request_per_kind(&queries) {
            assert!(
                matches!(
                    engine.run(&request),
                    Err(SearchError::Transport(TransportError::UnexpectedReply(_)))
                ),
                "{:?}",
                request.kind()
            );
        }
    }

    /// The sources named anywhere in a response's answers.
    fn answering_sources(results: &SearchResults) -> Vec<SourceId> {
        match results {
            SearchResults::Overlap(answers) => answers
                .iter()
                .flat_map(|a| a.results.iter().map(|(s, _)| *s))
                .collect(),
            SearchResults::Coverage(answers) => answers
                .iter()
                .flat_map(|a| a.selected.iter().map(|(s, _)| *s))
                .collect(),
            SearchResults::Knn(answers) => answers
                .iter()
                .flat_map(|a| a.neighbors.iter().map(|(s, _)| *s))
                .collect(),
        }
    }

    /// The degradation contract, for every search kind: fail-fast aborts on
    /// a dead source, while skip-and-report completes the batch with the
    /// healthy sources' answers, reports the dead source exactly once, and
    /// accounts only the completed shards' bytes.
    #[test]
    fn degraded_runs_skip_dead_sources_and_report_them() {
        let (fw, queries) = five_source_framework();
        let dead = fw.sources()[0].id;
        let faulty = FaultyTransport::new(fw.sources(), dead);
        let healthy: Vec<DataSource> = fw
            .sources()
            .iter()
            .filter(|s| s.id != dead)
            .cloned()
            .collect();
        let engine = QueryEngine::new(fw.center(), &faulty, EngineConfig::default());

        for request in one_request_per_kind(&queries) {
            let kind = request.kind();
            // Fail-fast (the default): the shard error aborts the whole
            // batch.
            let err = engine.run(&request).unwrap_err();
            assert!(
                matches!(err, SearchError::Transport(TransportError::Timeout { .. })),
                "{kind:?}: {err:?}"
            );

            // Skip-and-report, through the engine configuration: the batch
            // completes without the dead source.
            let config = EngineConfig {
                skip_failed_sources: true,
                ..EngineConfig::default()
            };
            let degraded = QueryEngine::new(fw.center(), &faulty, config)
                .run(&request)
                .expect("degraded run must not park the batch");
            assert_eq!(degraded.results.len(), queries.len());
            assert!(!degraded.is_complete());
            assert_eq!(degraded.failures.len(), 1, "{:?}", degraded.failures);
            assert_eq!(degraded.failures[0].source, dead);
            assert!(matches!(
                degraded.failures[0].error,
                SearchError::Transport(TransportError::Timeout { .. })
            ));
            assert!(
                !answering_sources(&degraded.results).contains(&dead),
                "{kind:?}: a skipped source leaked results into the aggregate"
            );

            // The mode is reachable per request, with the same outcome.
            let per_request = engine
                .run(&request.clone().skip_failed_sources(true))
                .unwrap();
            assert_eq!(per_request.results, degraded.results, "{kind:?}");
            assert_eq!(per_request.failures, degraded.failures, "{kind:?}");

            // Oracle: the same plan over a deployment that never had the
            // dead source.  Answers, accounted bytes and search stats must
            // match — the degraded run's counters describe exactly the
            // completed shards.  Only `sources_contacted` differs: the
            // degraded run planned (and failed) contacts to the dead source.
            let oracle = QueryEngine::in_process(fw.center(), &healthy, EngineConfig::default())
                .run(&request)
                .unwrap();
            assert_eq!(degraded.results, oracle.results, "{kind:?}");
            if kind == SearchKind::Knn {
                // kNN plans its second wave from the first wave's replies:
                // where the dead source was a query's nearest there is no
                // cutoff and every survivor answers the whole query, while
                // the oracle's first wave went to the nearest *live* source.
                // Same exact answer, more traffic.
                assert!(degraded.comm.requests > oracle.comm.requests);
                assert!(degraded.comm.total_bytes() > oracle.comm.total_bytes());
            } else {
                assert_eq!(
                    degraded.comm.total_bytes(),
                    oracle.comm.total_bytes(),
                    "{kind:?}"
                );
                assert_eq!(degraded.comm.requests, oracle.comm.requests, "{kind:?}");
                assert_eq!(degraded.search, oracle.search, "{kind:?}");
            }
            // Either way the counters cover the completed shards only.
            let timed = |field: fn(&SourceTiming) -> usize| {
                degraded.per_source.iter().map(field).sum::<usize>()
            };
            assert_eq!(timed(|t| t.requests), degraded.comm.requests, "{kind:?}");
            assert_eq!(timed(|t| t.bytes), degraded.comm.total_bytes(), "{kind:?}");
            assert!(degraded.per_source.iter().all(|t| t.source != dead));
            assert!(degraded.comm.sources_contacted > oracle.comm.sources_contacted);
            assert!(oracle.failures.is_empty());
        }
    }

    /// The stats-merging parity check: a parallel engine run over the five
    /// sources must produce answers *and* communication byte totals
    /// identical to the sequential (one-worker) path on the same fixed seed.
    #[test]
    fn parallel_and_sequential_engines_agree() {
        let (fw, queries) = five_source_framework();
        for request in one_request_per_kind(&queries) {
            let kind = request.kind();
            let seq = fw.engine().run(&request.clone().workers(1)).unwrap();
            let par = fw.engine().run(&request.clone().workers(8)).unwrap();
            assert_eq!(seq.results, par.results, "{kind:?}");
            assert_eq!(
                seq.comm, par.comm,
                "{kind:?}: CommStats must merge to identical totals"
            );
            assert_eq!(
                seq.search, par.search,
                "{kind:?}: SearchStats must merge to identical totals"
            );
        }
    }
}
