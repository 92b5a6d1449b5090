//! The data center: global routing, query distribution, result aggregation
//! (Sections IV and VI-A) and the center half of the maintenance protocol.
//!
//! Everything the center plans — candidate sources, query clipping windows,
//! kNN distance bounds — is derived from what the sources uploaded, never
//! from a local index: the [`SourceSummary`]s registered in DITS-G (a root
//! rectangle each) and, held next to DITS-G, one block sketch per source —
//! the 8×8-cell blocks it has data in ([`dits::sketch`]).  That is what makes
//! the planning transport-agnostic: the same plan executes against
//! in-process sources and against remote `source-server` processes, byte for
//! byte.
//!
//! The rectangle decides *whether* a source is asked; under
//! [`DistributionStrategy::PrunedClipped`] rectangle and sketch together
//! decide *what* an OJSP query sends it — only the query cells inside the
//! rectangle whose block the source occupies, since no other cell can be
//! shared with any of its datasets — and what kNN's second wave sends it:
//! only the query cells within the first reply's k-th distance of both
//! (`DataCenter::clip_for_source`).
//!
//! A center learns a source only from its [`Message::SummaryRefresh`]es,
//! and one function folds each into DITS-G and the sketches: the poll every
//! center bootstraps with ([`DataCenter::from_transport`]) and the reply to
//! every maintenance exchange ([`DataCenter::apply_updates`]).  A poll
//! carries the whole sketch; a batch's reply none: before a batch leaves,
//! the center adds the blocks of its datasets to the sketch it holds, which
//! therefore contains the source's whatever becomes of the batch.  A
//! maintained center is the center a fresh poll makes, except that its
//! sketches may still hold vacated blocks — a few query bytes, never an
//! answer.
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

use dits::bounds::node_distance_bounds;
use dits::sketch::blocks_of;
use dits::{DitsGlobal, MaintenanceStats, Neighbor, NodeGeometry, OverlapResult, SourceSummary};
use spatial::{CellSet, DatasetId, Grid, Mbr, Point, SourceId, SpatialDataset};

use crate::comm::CommStats;
use crate::error::{ConfigError, SearchError, TransportError};
use crate::message::{CellOp, Message, UpdateOp};
use crate::transport::SourceTransport;

/// How the data center distributes a query to the data sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistributionStrategy {
    /// Send the whole query to every source (what the index-less baselines
    /// do: no global index, no clipping).
    Broadcast,
    /// Use DITS-G to contact only candidate sources, but still send the
    /// whole query to each of them (first strategy only).
    Pruned,
    /// Use DITS-G to select candidate sources *and* clip the query to the
    /// region that can intersect each source (both strategies — the paper's
    /// full query-distribution scheme): its root rectangle and, for OJSP and
    /// kNN, the blocks of its sketch.
    PrunedClipped,
}

/// Aggregated OJSP answer: the global top-k across all sources.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregatedOverlap {
    /// `(source, dataset, overlap)` triples sorted by decreasing overlap.
    pub results: Vec<(SourceId, OverlapResult)>,
}

/// Aggregated CJSP answer.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregatedCoverage {
    /// Selected `(source, dataset)` pairs in greedy order.
    pub selected: Vec<(SourceId, DatasetId)>,
    /// Total coverage `|S_Q ∪ (∪ selected)|` in cells.
    pub coverage: usize,
    /// Coverage of the query alone.
    pub query_coverage: usize,
}

/// Aggregated kNN answer: the global k nearest datasets across all sources,
/// ascending by distance (ties broken by source, then dataset id).
///
/// All sources are assumed to share the query's grid resolution so the
/// cell-unit distances are comparable — the per-run setting used throughout
/// the paper's experiments (the same assumption CJSP aggregation makes).
#[derive(Debug, Clone, PartialEq)]
pub struct AggregatedKnn {
    /// `(source, neighbor)` pairs sorted by ascending distance.
    pub neighbors: Vec<(SourceId, Neighbor)>,
}

/// What one applied maintenance batch produced.
#[derive(Debug, Clone)]
pub struct MaintenanceOutcome {
    /// The source's root summary after the batch (already folded into
    /// DITS-G by the time the caller sees it).
    pub summary: SourceSummary,
    /// Structural work done by the batch, across the local index (splits,
    /// collapses, relocations) and the global one (refreshes, rebuilds).
    pub stats: MaintenanceStats,
    /// Bytes moved by the maintenance exchange.
    pub comm: CommStats,
}

/// Slack on every comparison of a DITS-G distance bound with a distance: it
/// absorbs the floating-point error of the lonlat → cell-space round trip,
/// and keeping a borderline source (or query cell) is always safe.
pub(crate) const BOUND_SLACK: f64 = 1e-9;

/// A source a query is routed to, with the lower bound of the distance from
/// the query to anything the source holds — in the source's own cell units,
/// and 0 where routing is by intersection.
pub(crate) type RoutedSource = (f64, SourceSummary);

/// The lon/lat grid at a source's resolution θ, which its summary names: a
/// summary off the wire may name one no grid has.
pub(crate) fn grid(resolution: u32) -> Result<Grid, SearchError> {
    Grid::global(resolution).map_err(|e| SearchError::Config(ConfigError::Resolution(e)))
}

/// Per-query cache of the gridded query cells, keyed by resolution: with a
/// shared per-run θ every candidate source sees the same cell set, so one
/// gridding per query replaces one per `(query, source)` pair.
pub(crate) struct QueryCellsCache {
    by_resolution: BTreeMap<u32, CellSet>,
}

impl QueryCellsCache {
    pub(crate) fn new() -> Self {
        Self {
            by_resolution: BTreeMap::new(),
        }
    }

    pub(crate) fn get(&mut self, grid: &Grid, points: &[Point]) -> &CellSet {
        self.by_resolution
            .entry(grid.resolution())
            .or_insert_with(|| CellSet::from_points(grid, points))
    }
}

/// The data center of the multi-source framework.
#[derive(Debug, Clone)]
pub struct DataCenter {
    global: DitsGlobal,
    /// By source, a set of blocks that contains every block the source holds
    /// data in: the sketch it was last polled for, grown by the blocks of
    /// every dataset sent to it since.  A source with a summary and no entry
    /// here is routed and clipped by its rectangle alone.
    sketches: BTreeMap<SourceId, CellSet>,
}

/// What a [`Message::SummaryRefresh`] says of the source that sent it.
struct Refresh {
    summary: SourceSummary,
    dataset_count: u64,
    /// The operations the reply accounts for, applied or rejected.
    ops: u64,
    /// The source's whole sketch, when the reply answers a summary poll; a
    /// batch's reply carries none.
    sketch: Option<CellSet>,
}

impl DataCenter {
    /// Bootstraps a data center from an empty DITS-G by polling every source
    /// reachable through a transport for its root summary and block sketch:
    /// [`Self::apply_updates`] with an empty batch, the protocol's read-only
    /// summary poll.  Every center is made so, whether its sources are
    /// in-process ([`MultiSourceFramework`](crate::MultiSourceFramework)) or
    /// `source-server` processes on other machines.
    ///
    /// Sources that hold no datasets are not registered: an empty index has
    /// no real root geometry (only a degenerate placeholder at the grid
    /// origin), can answer no query, and would otherwise attract
    /// origin-adjacent queries for nothing.  The maintenance path readmits
    /// such a source as soon as an applied batch gives it data.
    pub fn from_transport(
        transport: &dyn SourceTransport,
        leaf_capacity: usize,
    ) -> Result<Self, SearchError> {
        let mut center = Self::from_global(DitsGlobal::build(Vec::new(), leaf_capacity));
        for source in transport.source_ids() {
            center.apply_updates(transport, source, &[])?;
        }
        Ok(center)
    }

    /// Wraps a global index assembled elsewhere (tests build centers over
    /// hand-made summaries with it).  Such a center holds no sketch, and
    /// clips by rectangles alone until a maintenance exchange has it poll
    /// for one.  A restarted center does not come back through here: its
    /// recovery is [`Self::from_transport`] — the summary poll it bootstraps
    /// with, which cannot be stale.
    pub fn from_global(global: DitsGlobal) -> Self {
        Self {
            global,
            sketches: BTreeMap::new(),
        }
    }

    /// The global index (exposed for inspection / experiments).
    pub fn global(&self) -> &DitsGlobal {
        &self.global
    }

    /// The blocks the center holds of `source`'s sketch — every block the
    /// source holds data in, and perhaps some it has vacated (exposed for
    /// inspection / experiments); `None` when it holds none.
    pub fn sketch(&self, source: SourceId) -> Option<&CellSet> {
        self.sketches.get(&source)
    }

    /// Applies a batch of maintenance operations to one source *through a
    /// transport*, then refreshes DITS-G with the source's new root summary
    /// — the full cross-layer pipeline of Appendix IX-C, working identically
    /// for in-process sources (via
    /// [`ExclusiveTransport`](crate::ExclusiveTransport)) and remote ones
    /// (via `net::PooledTcpTransport`).
    ///
    /// The center grids every insert/update dataset at the source's own
    /// resolution — read from its DITS-G summary, or from a summary poll
    /// when DITS-G holds none (the source was empty) — so cells travel, not
    /// points.  A poll's bytes count in the outcome's [`CommStats`].
    ///
    /// Before the batch leaves, the center adds the blocks of every dataset
    /// in it to the sketch it holds of the source — the one rule that keeps
    /// that sketch containing the source's, whether the batch is applied,
    /// rejected, lost or answered twice.  Where the center holds no sketch
    /// of the source (a center made by [`Self::from_global`], a source a
    /// batch emptied), it polls for one before the batch — the poll that
    /// also reads the resolution of a source DITS-G holds no summary of.  An
    /// empty batch is that poll alone.  A reply that does not account for as
    /// many operations as the batch had answers some other batch: the center
    /// polls for the summary instead of folding that reply's.
    ///
    /// The exchange is transactional at the batch level: a dataset that
    /// grids to nothing, or a batch the source refuses
    /// ([`BatchError`](crate::BatchError)), rejects the whole batch with
    /// nothing mutated anywhere ([`SearchError::Rejected`]), while
    /// individually impossible operations (duplicate insert, missing
    /// update/delete target) are skipped and counted in
    /// [`MaintenanceStats::rejected`].  By the time this returns `Ok`, the
    /// next query batch is planned against a DITS-G that agrees with the
    /// mutated local index, so `candidate_sources` pruning stays lossless.
    pub fn apply_updates(
        &mut self,
        transport: &dyn SourceTransport,
        source: SourceId,
        ops: &[UpdateOp],
    ) -> Result<MaintenanceOutcome, SearchError> {
        let mut comm = CommStats::new();
        comm.sources_contacted += 1;
        let mut stats = MaintenanceStats::new();
        let summary = if ops.is_empty() {
            self.poll(transport, source, &mut comm, &mut stats)?
        } else {
            self.send_batch(transport, source, ops, &mut comm, &mut stats)?
        };
        Ok(MaintenanceOutcome {
            summary,
            stats,
            comm,
        })
    }

    /// Grids a non-empty batch at `source`'s resolution, grows the sketch
    /// held of the source by the batch's blocks, sends the batch, and folds
    /// what the source said of itself after it.  Every exchange is counted
    /// in `comm`, the source's statistics of the batch and every fold in
    /// `stats`.
    fn send_batch(
        &mut self,
        transport: &dyn SourceTransport,
        source: SourceId,
        ops: &[UpdateOp],
        comm: &mut CommStats,
        stats: &mut MaintenanceStats,
    ) -> Result<SourceSummary, SearchError> {
        let registered = self
            .global
            .summaries()
            .into_iter()
            .find(|s| s.source == source);
        let resolution = match registered {
            Some(summary) if self.sketches.contains_key(&source) => summary.resolution,
            _ => self.poll(transport, source, comm, stats)?.resolution,
        };
        let grid = grid(resolution)?;
        let ops = ops
            .iter()
            .map(|op| op.grid(&grid))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| SearchError::Rejected {
                detail: e.to_string(),
            })?;
        let entering = blocks_of(ops.iter().filter_map(|op| match op {
            CellOp::Insert { cells, .. } | CellOp::Update { cells, .. } => Some(cells.packed()),
            CellOp::Delete(_) => None,
        }));
        let held = self.sketches.entry(source).or_default();
        *held = held.union(&entering);
        let sent = ops.len() as u64;
        let reply = transport.call(source, &Message::ApplyUpdates { resolution, ops }, true)?;
        comm.record_request(reply.request_bytes);
        comm.record_reply(reply.reply_bytes);
        stats.merge(&reply.maintenance.unwrap_or_default());
        let refresh = Self::refreshed(reply.message, false)?;
        if refresh.ops == sent {
            return Ok(self.fold(source, refresh, stats));
        }
        // The reply to another batch, lost or replayed on the way: its
        // summary need not be the source's.
        self.poll(transport, source, comm, stats)
    }

    /// Polls `source` for its summary and its whole sketch, and folds them.
    /// The exchange is counted in `comm`, the fold in `stats`.
    fn poll(
        &mut self,
        transport: &dyn SourceTransport,
        source: SourceId,
        comm: &mut CommStats,
        stats: &mut MaintenanceStats,
    ) -> Result<SourceSummary, SearchError> {
        let poll = transport.call(source, &Message::summary_poll(), false)?;
        comm.record_request(poll.request_bytes);
        comm.record_reply(poll.reply_bytes);
        let refresh = Self::refreshed(poll.message, true)?;
        Ok(self.fold(source, refresh, stats))
    }

    /// Folds what `source` said of itself into the center's view of it —
    /// the one writer of both the sketches and DITS-G's membership, so the
    /// next query batch is planned against summaries that agree with every
    /// local index.  A poll's sketch replaces the one held; after a batch the
    /// sketch grown before it left stays.  Each DITS-G build counts in
    /// `stats`.
    fn fold(
        &mut self,
        source: SourceId,
        refresh: Refresh,
        stats: &mut MaintenanceStats,
    ) -> SourceSummary {
        if refresh.dataset_count == 0 {
            // An empty index has only a degenerate placeholder geometry and
            // answers no query, so the source leaves DITS-G until data
            // returns instead of attracting origin-adjacent queries.
            self.sketches.remove(&source);
            if self.global.remove_source(source) {
                stats.global_rebuilds += 1;
            }
        } else {
            if let Some(sketch) = refresh.sketch {
                self.sketches.insert(source, sketch);
            }
            // Replaces the source's summary, or registers one DITS-G does
            // not know (at bootstrap, or as data returns to a source).
            self.global.put_source(refresh.summary);
            stats.summary_refreshes += 1;
            stats.global_rebuilds += 1;
        }
        // Debug-build hardening: this is DITS-G's only writer, so validate
        // the whole tree after every fold.
        #[cfg(debug_assertions)]
        debug_assert_eq!(self.global.check_invariants(), Ok(()));
        refresh.summary
    }

    /// Unwraps the [`Message::SummaryRefresh`] answering a summary poll
    /// (`poll`) or a maintenance batch.  Only a poll's reply carries the
    /// source's whole sketch, and a source that holds datasets holds them in
    /// some block, so a poll reply with datasets and no block is refused.
    fn refreshed(reply: Message, poll: bool) -> Result<Refresh, SearchError> {
        match reply {
            Message::SummaryRefresh {
                summary,
                dataset_count,
                applied,
                rejected,
                blocks,
            } => {
                if poll && blocks.is_empty() && dataset_count > 0 {
                    return Err(TransportError::UnexpectedReply("the whole sketch").into());
                }
                Ok(Refresh {
                    summary,
                    dataset_count,
                    ops: applied.saturating_add(rejected),
                    sketch: poll.then_some(blocks),
                })
            }
            Message::Error { code, detail } if code == crate::message::ERR_REJECTED_BATCH => {
                Err(SearchError::Rejected { detail })
            }
            Message::Error { code, detail } => Err(TransportError::Remote { code, detail }.into()),
            _ => Err(TransportError::UnexpectedReply("SummaryRefresh").into()),
        }
    }

    /// The slack, in degrees, within which a source's summary rectangle must
    /// lie of a query's MBR for the source to be routed: δ (cell units; 0
    /// for OJSP) plus half a cell diagonal, scaled by the *coarsest*
    /// registered source's cell size, so the lonlat-space pruning bound is
    /// conservative for every source — and so a per-request δ override
    /// widens routing along with clipping and aggregation.
    ///
    /// The half diagonal is what makes rectangle-to-rectangle routing
    /// lossless: a summary's corners are cell *centres*
    /// ([`SourceSummary::from_local_root`]) while the query MBR is raw
    /// points, and a point lies up to half a diagonal from the centre of the
    /// cell it grids to — a query wholly inside the outer half of a source's
    /// border cells shares cells with it without the rectangles meeting.
    pub(crate) fn route_slack_lonlat(&self, delta_cells: f64) -> Result<f64, SearchError> {
        let mut degrees_per_cell: f64 = 0.0;
        for summary in self.global.summaries() {
            let grid = grid(summary.resolution)?;
            degrees_per_cell = degrees_per_cell.max(grid.cell_width().max(grid.cell_height()));
        }
        Ok((delta_cells.max(0.0) + std::f64::consts::FRAC_1_SQRT_2) * degrees_per_cell)
    }

    /// Chooses which sources to contact for an overlap / coverage query,
    /// purely from the summaries registered in DITS-G (ascending by source
    /// id).  Under `Broadcast` every registered source is contacted; the
    /// pruned strategies consult `candidate_sources`.
    pub(crate) fn route(
        &self,
        query: &SpatialDataset,
        delta_lonlat: f64,
        strategy: DistributionStrategy,
    ) -> Vec<SourceSummary> {
        match strategy {
            DistributionStrategy::Broadcast => self.global.summaries(),
            DistributionStrategy::Pruned | DistributionStrategy::PrunedClipped => {
                let Some(query_rect) = query.mbr() else {
                    return Vec::new();
                };
                self.global.candidate_sources(&query_rect, delta_lonlat)
            }
        }
    }

    /// Routes a kNN query: every source whose distance *lower bound* to the
    /// query could still land in the top-`k`, each with that lower bound (in
    /// the source's own cell units), nearest first — ascending by
    /// `(lower bound, source id)`.  The lower bound is the distance between
    /// the source's root rectangle and the query's, which hold every cell of
    /// either side; it is never below Lemma 4's `‖o₁,o₂‖ − r₁ − r₂`, whose
    /// balls contain the rectangles.  The engine sends the query to the head of
    /// this list, and only then decides which of the rest to contact at all
    /// (`QueryEngine::drive`; the exactness argument is on the engine's
    /// `Knn` kind).
    ///
    /// While the federation has more than `k` sources the list is pre-filtered
    /// losslessly (Lemma 4 applied at the federation level): the `k` sources
    /// with the smallest distance *upper bounds* each guarantee at least one
    /// dataset within their bound, so the k-th best distance is at most the
    /// k-th smallest upper bound `T` — and any source with `lb > T` can only
    /// hold datasets strictly farther than every true top-k member.
    /// `Broadcast` routes nothing: every registered source, ascending by id,
    /// with no bound computed.
    pub(crate) fn knn_route(
        &self,
        query: &SpatialDataset,
        k: usize,
        strategy: DistributionStrategy,
        cells: &mut QueryCellsCache,
    ) -> Result<Vec<RoutedSource>, SearchError> {
        if k == 0 {
            return Ok(Vec::new());
        }
        let summaries = self.global.summaries();
        if strategy == DistributionStrategy::Broadcast {
            return Ok(summaries.into_iter().map(|s| (0.0, s)).collect());
        }
        let mut scored: Vec<(f64, f64, SourceSummary)> = Vec::with_capacity(summaries.len());
        // The query's cell-space rectangle, boxed once per resolution.
        let mut query_rects: BTreeMap<u32, Option<Mbr>> = BTreeMap::new();
        for s in summaries {
            let grid = grid(s.resolution)?;
            let query_rect = *query_rects
                .entry(s.resolution)
                .or_insert_with(|| cells.get(&grid, &query.points).mbr_cell_space());
            let Some(query_rect) = query_rect else {
                // The query grids to nothing: no source can answer it.
                return Ok(Vec::new());
            };
            let source_rect = s.cell_space_rect(&grid);
            let (_, ub) = node_distance_bounds(
                &NodeGeometry::from_mbr(source_rect),
                &NodeGeometry::from_mbr(query_rect),
            );
            scored.push((source_rect.min_distance(&query_rect), ub, s));
        }
        if scored.len() > k {
            let mut upper_bounds: Vec<f64> = scored.iter().map(|&(_, ub, _)| ub).collect();
            upper_bounds.sort_unstable_by(|a, b| a.total_cmp(b));
            if let Some(&kth) = upper_bounds.get(k - 1) {
                let threshold = kth + BOUND_SLACK;
                scored.retain(|&(lb, _, _)| lb <= threshold);
            }
        }
        scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.source.cmp(&b.2.source)));
        Ok(scored.into_iter().map(|(lb, _, s)| (lb, s)).collect())
    }

    /// Clips query cells to what can interact with a source under the
    /// clipped strategy; passes them through untouched otherwise.
    ///
    /// First to the window around its root MBR in cell space, inflated by δ.
    /// The window is recovered from the source's uploaded summary — the
    /// lonlat corners are cell centres, so [`SourceSummary::cell_space_rect`]
    /// reproduces the local root's integer cell rectangle exactly, and the
    /// clipping decision is identical to one taken next to the local index.
    ///
    /// Then, when the reply depends on a query cell only through the source's
    /// cells within δ of it (`near_cells_only`: OJSP, where δ is 0 and the
    /// cells are the ones query and datasets *share*; kNN's second wave,
    /// where δ is the first reply's k-th distance), to the cells within δ of
    /// the 8×8-cell blocks the center holds of the source's sketch
    /// ([`CellSet::clip_near_blocks`]: one lookup per query tile at δ 0, and
    /// from δ 1 on a walk over the sketch's 64×64-cell super-blocks that
    /// drops, keeps whole or tests cell by cell each query tile by box gaps,
    /// so only the tiles straddling δ cost cell tests).  Those blocks contain
    /// every block the source's datasets touch, so a dropped cell is farther
    /// than δ from all of those datasets: for OJSP it changes no
    /// `|S_Q ∩ S_D|` — and no rank, since a source reports positive overlaps
    /// only — and for kNN no distance that can enter the answer (the argument
    /// is on the engine's `Knn` kind).  CJSP keeps the window: its coverage
    /// counts every query cell.  Without a sketch of the source the window is
    /// all there is.
    pub(crate) fn clip_for_source(
        &self,
        summary: &SourceSummary,
        grid: &Grid,
        cells: &CellSet,
        delta_cells: f64,
        strategy: DistributionStrategy,
        near_cells_only: bool,
    ) -> CellSet {
        match strategy {
            DistributionStrategy::Broadcast | DistributionStrategy::Pruned => cells.clone(),
            DistributionStrategy::PrunedClipped => {
                let root = summary.cell_space_rect(grid);
                let slack = delta_cells.max(0.0);
                let window = Mbr::new(
                    Point::new(root.min.x - slack, root.min.y - slack),
                    Point::new(root.max.x + slack, root.max.y + slack),
                );
                let clipped = cells.clip_to_window(&window);
                match self.sketches.get(&summary.source) {
                    Some(blocks) if near_cells_only => clipped.clip_near_blocks(blocks, slack),
                    _ => clipped,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SearchRequest;
    use crate::engine::{EngineConfig, QueryEngine};
    use crate::source::DataSource;
    use crate::transport::InProcessTransport;
    use dits::DitsLocalConfig;
    use spatial::Grid;

    /// Two regional sources far apart plus a query overlapping only one.
    fn two_sources() -> Vec<DataSource> {
        let grid = Grid::global(10).unwrap();
        let east: Vec<SpatialDataset> = (0..15)
            .map(|i| {
                let pts = (0..8)
                    .map(|j| {
                        Point::new(
                            10.0 + i as f64 * 0.2 + j as f64 * 0.02,
                            50.0 + j as f64 * 0.02,
                        )
                    })
                    .collect();
                SpatialDataset::new(i, pts)
            })
            .collect();
        let west: Vec<SpatialDataset> = (0..15)
            .map(|i| {
                let pts = (0..8)
                    .map(|j| {
                        Point::new(
                            -120.0 + i as f64 * 0.2 + j as f64 * 0.02,
                            40.0 + j as f64 * 0.02,
                        )
                    })
                    .collect();
                SpatialDataset::new(i, pts)
            })
            .collect();
        vec![
            DataSource::build(0, "east", grid, &east, DitsLocalConfig::default()),
            DataSource::build(1, "west", grid, &west, DitsLocalConfig::default()),
        ]
    }

    /// The center a summary poll of `sources` bootstraps.
    fn polled(sources: &[DataSource]) -> DataCenter {
        DataCenter::from_transport(&InProcessTransport::new(sources), 4).unwrap()
    }

    fn query_in_east() -> SpatialDataset {
        SpatialDataset::new(
            999,
            (0..6)
                .map(|j| Point::new(10.0 + j as f64 * 0.05, 50.0 + j as f64 * 0.02))
                .collect(),
        )
    }

    fn run_ojsp(
        center: &DataCenter,
        sources: &[DataSource],
        query: &SpatialDataset,
        k: usize,
        strategy: DistributionStrategy,
    ) -> (AggregatedOverlap, CommStats) {
        let request = SearchRequest::ojsp(query.clone()).k(k).strategy(strategy);
        let response = QueryEngine::in_process(center, sources, EngineConfig::default())
            .run(&request)
            .unwrap();
        (response.overlap().unwrap()[0].clone(), response.comm)
    }

    fn run_cjsp(
        center: &DataCenter,
        sources: &[DataSource],
        query: &SpatialDataset,
        k: usize,
        delta: f64,
        strategy: DistributionStrategy,
    ) -> (AggregatedCoverage, CommStats) {
        let request = SearchRequest::cjsp(query.clone())
            .k(k)
            .delta_cells(delta)
            .strategy(strategy);
        let response = QueryEngine::in_process(center, sources, EngineConfig::default())
            .run(&request)
            .unwrap();
        (response.coverage().unwrap()[0].clone(), response.comm)
    }

    #[test]
    fn pruned_strategy_contacts_fewer_sources() {
        let sources = two_sources();
        let center = polled(&sources);
        let query = query_in_east();
        let (_, broadcast) = run_ojsp(
            &center,
            &sources,
            &query,
            5,
            DistributionStrategy::Broadcast,
        );
        let (_, pruned) = run_ojsp(&center, &sources, &query, 5, DistributionStrategy::Pruned);
        assert_eq!(broadcast.sources_contacted, 2);
        assert_eq!(pruned.sources_contacted, 1);
        assert!(pruned.total_bytes() < broadcast.total_bytes());
    }

    #[test]
    fn clipping_reduces_bytes_without_changing_results() {
        let sources = two_sources();
        let center = polled(&sources);
        let query = query_in_east();
        let (res_pruned, comm_pruned) =
            run_ojsp(&center, &sources, &query, 5, DistributionStrategy::Pruned);
        let (res_clipped, comm_clipped) = run_ojsp(
            &center,
            &sources,
            &query,
            5,
            DistributionStrategy::PrunedClipped,
        );
        assert_eq!(
            res_pruned
                .results
                .iter()
                .map(|(_, r)| r.overlap)
                .collect::<Vec<_>>(),
            res_clipped
                .results
                .iter()
                .map(|(_, r)| r.overlap)
                .collect::<Vec<_>>()
        );
        assert!(comm_clipped.total_bytes() <= comm_pruned.total_bytes());
    }

    #[test]
    fn ojsp_aggregates_across_sources() {
        let sources = two_sources();
        let center = polled(&sources);
        // A query spanning both regions (two clusters of points).
        let mut pts: Vec<Point> = (0..4)
            .map(|j| Point::new(10.0 + j as f64 * 0.05, 50.0))
            .collect();
        pts.extend((0..4).map(|j| Point::new(-120.0 + j as f64 * 0.05, 40.0)));
        let query = SpatialDataset::new(999, pts);
        let (res, comm) = run_ojsp(
            &center,
            &sources,
            &query,
            10,
            DistributionStrategy::PrunedClipped,
        );
        assert_eq!(comm.sources_contacted, 2);
        let sources_seen: std::collections::HashSet<SourceId> =
            res.results.iter().map(|(s, _)| *s).collect();
        assert_eq!(
            sources_seen.len(),
            2,
            "results should come from both sources"
        );
        // Sorted by decreasing overlap.
        for w in res.results.windows(2) {
            assert!(w[0].1.overlap >= w[1].1.overlap);
        }
    }

    #[test]
    fn cjsp_selects_connected_datasets() {
        let sources = two_sources();
        let center = polled(&sources);
        let query = query_in_east();
        let (res, comm) = run_cjsp(
            &center,
            &sources,
            &query,
            4,
            10.0,
            DistributionStrategy::PrunedClipped,
        );
        assert!(res.coverage >= res.query_coverage);
        assert!(res.selected.len() <= 4);
        assert!(!res.selected.is_empty());
        assert!(comm.total_bytes() > 0);
        // All selected datasets come from the east source: the west one is
        // thousands of cells away.
        assert!(res.selected.iter().all(|(s, _)| *s == 0));
    }

    #[test]
    fn empty_query_produces_empty_answer() {
        let sources = two_sources();
        let center = polled(&sources);
        let query = SpatialDataset::new(1, vec![]);
        let (res, comm) = run_ojsp(
            &center,
            &sources,
            &query,
            5,
            DistributionStrategy::PrunedClipped,
        );
        assert!(res.results.is_empty());
        assert_eq!(comm.total_bytes(), 0);
        let (res, _) = run_cjsp(
            &center,
            &sources,
            &query,
            5,
            10.0,
            DistributionStrategy::PrunedClipped,
        );
        assert!(res.selected.is_empty());
        assert_eq!(res.coverage, 0);
    }

    #[test]
    fn knn_route_keeps_every_source_that_could_matter() {
        let sources = two_sources();
        let center = polled(&sources);
        let mut cells = QueryCellsCache::new();
        // k larger than the federation: nothing can be pruned.
        let all = center
            .knn_route(
                &query_in_east(),
                5,
                DistributionStrategy::PrunedClipped,
                &mut cells,
            )
            .unwrap();
        assert_eq!(all.len(), 2);
        // Nearest first, each with its lower bound: the query sits inside
        // the east source and an ocean away from the west one.
        assert_eq!((all[0].1.source, all[1].1.source), (0, 1));
        assert_eq!(all[0].0, 0.0);
        assert!(all[1].0 > 300.0, "west lower bound {}", all[1].0);
        // k = 1 for a query sitting inside the east source: the west source
        // (an ocean away) must be pruned.
        let east_only = center
            .knn_route(
                &query_in_east(),
                1,
                DistributionStrategy::PrunedClipped,
                &mut cells,
            )
            .unwrap();
        assert_eq!(east_only.len(), 1);
        assert_eq!(east_only[0].1.source, 0);
        // Broadcast never prunes; k = 0 asks for nothing.
        assert_eq!(
            center
                .knn_route(
                    &query_in_east(),
                    1,
                    DistributionStrategy::Broadcast,
                    &mut cells
                )
                .unwrap()
                .len(),
            2
        );
        assert!(center
            .knn_route(
                &query_in_east(),
                0,
                DistributionStrategy::PrunedClipped,
                &mut cells
            )
            .unwrap()
            .is_empty());
    }
}
