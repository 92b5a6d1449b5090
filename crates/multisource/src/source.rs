//! A data source: an autonomous holder of spatial datasets with its own
//! local index, answering the data center's query messages and applying the
//! center's maintenance batches (Appendix IX-C at deployment scale).
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

use std::sync::Arc;
use std::time::{Duration, Instant};

use dits::{
    coverage_search_marked, nearest_datasets, overlap_search, take_phase_timings, CoverageConfig,
    DatasetNode, DitsLocal, DitsLocalConfig, MaintenanceStats, PhaseTimings, SearchStats,
    SourceSummary,
};
use spatial::{CellSet, DatasetId, Grid, SourceId, SpatialDataset, SpatialError};

use crate::error::BatchError;
use crate::message::{
    CandidateCells, CellOp, CoverageCandidate, Message, UpdateOp, ERR_REJECTED_BATCH,
    ERR_UNKNOWN_DATASET, ERR_UNSUPPORTED,
};
use crate::transport::ServedReply;

/// The request kinds a source counts separately (the `kind` label of
/// `source_requests_total`).
const REQUEST_KINDS: [&str; 8] = [
    "overlap",
    "coverage",
    "knn",
    "maintenance",
    "summary",
    "metrics",
    "cells",
    "other",
];

fn request_kind_index(request: &Message) -> usize {
    match request {
        Message::OverlapQuery { .. } => 0,
        Message::CoverageQuery { .. } => 1,
        Message::KnnQuery { .. } => 2,
        _ if request.mutates() => 3,
        Message::ApplyUpdates { .. } => 4,
        Message::MetricsQuery => 5,
        Message::CellsQuery { .. } => 6,
        _ => 7,
    }
}

/// A data source's observability registry, pre-wired with the instruments
/// every source maintains: per-kind request counters, a log₂ histogram of
/// service time, cumulative traversal/verification phase counters and a
/// dataset-count gauge — every instrument counts this source's own work.
///
/// `Clone` shares the underlying registry (the handles are `Arc`s), so
/// clones of a [`DataSource`] — e.g. the copy handed to a
/// [`SourceServer`](crate::SourceServer) — report into one registry.
#[derive(Debug, Clone)]
struct SourceMetrics {
    registry: Arc<obs::MetricsRegistry>,
    requests: [obs::Counter; REQUEST_KINDS.len()],
    service_nanos: obs::Histogram,
    traversal_nanos: obs::Counter,
    verify_nanos: obs::Counter,
    datasets: obs::Gauge,
}

impl SourceMetrics {
    fn new() -> Self {
        let registry = Arc::new(obs::MetricsRegistry::new());
        let requests = std::array::from_fn(|i| {
            let kind = REQUEST_KINDS.get(i).copied().unwrap_or("other");
            registry.counter("source_requests_total", &[("kind", kind)])
        });
        let service_nanos = registry.histogram("source_service_nanos", &[]);
        let traversal_nanos = registry.counter("source_phase_nanos", &[("phase", "traversal")]);
        let verify_nanos = registry.counter("source_phase_nanos", &[("phase", "verify")]);
        let datasets = registry.gauge("source_datasets", &[]);
        Self {
            registry,
            requests,
            service_nanos,
            traversal_nanos,
            verify_nanos,
            datasets,
        }
    }

    fn record(&self, request: &Message, service: Duration, phases: PhaseTimings) {
        if let Some(counter) = self.requests.get(request_kind_index(request)) {
            counter.inc();
        }
        self.service_nanos.observe(service.as_nanos() as u64);
        if phases.traversal > Duration::ZERO {
            self.traversal_nanos.add(phases.traversal.as_nanos() as u64);
        }
        if phases.verify > Duration::ZERO {
            self.verify_nanos.add(phases.verify.as_nanos() as u64);
        }
    }
}

/// A validated maintenance operation: its dataset is a non-empty cell set on
/// this source's grid, with its geometry computed — the form
/// [`DataSource::apply_prepared`] executes.
enum PreparedOp {
    Insert(DatasetNode),
    Update(DatasetNode),
    Delete(DatasetId),
}

/// One autonomous data source of the multi-source framework.
#[derive(Debug, Clone)]
pub struct DataSource {
    /// The source's identifier.
    pub id: SourceId,
    /// Human-readable name (portal name).
    pub name: String,
    grid: Grid,
    index: DitsLocal,
    metrics: SourceMetrics,
}

impl DataSource {
    /// Builds a data source from raw datasets: grids them at the source's own
    /// resolution (skipping datasets with no point inside the grid), then
    /// [`Self::from_nodes`].
    pub fn build(
        id: SourceId,
        name: impl Into<String>,
        grid: Grid,
        datasets: &[SpatialDataset],
        config: DitsLocalConfig,
    ) -> Self {
        let nodes = datasets
            .iter()
            .filter_map(|d| DatasetNode::from_dataset(&grid, d).ok())
            .collect();
        Self::from_nodes(id, name, grid, nodes, config)
    }

    /// Builds a data source from datasets already gridded on `grid`: the
    /// local DITS-L index over `nodes`, in the order given (the order shapes
    /// the tree).
    pub fn from_nodes(
        id: SourceId,
        name: impl Into<String>,
        grid: Grid,
        nodes: Vec<DatasetNode>,
        config: DitsLocalConfig,
    ) -> Self {
        Self {
            id,
            name: name.into(),
            grid,
            index: DitsLocal::build(nodes, config),
            metrics: SourceMetrics::new(),
        }
    }

    /// A point-in-time snapshot of the source's metrics registry — what a
    /// [`Message::MetricsQuery`] is answered with.  The dataset-count gauge
    /// is refreshed here, immediately before the registry is read.
    pub fn metrics_snapshot(&self) -> obs::MetricsSnapshot {
        self.metrics.datasets.set(self.index.dataset_count() as f64);
        self.metrics.registry.snapshot()
    }

    /// The source's grid (each source may pick its own resolution).
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The source's local index.
    pub fn index(&self) -> &DitsLocal {
        &self.index
    }

    /// Applies a batch of caller-side maintenance operations to the local
    /// index: grids every insert/update dataset on the source's own grid,
    /// then runs the cell-level apply a served [`Message::ApplyUpdates`]
    /// ([`Self::serve`]) also ends in.
    ///
    /// The batch is *validated before anything mutates*: a structurally
    /// invalid dataset (one that grids to nothing has no MBR and can never
    /// be indexed) returns [`SpatialError`] with the index untouched.
    /// Individually impossible operations — inserting a duplicate id,
    /// updating or deleting a missing id — are not errors: they are skipped
    /// and counted in [`MaintenanceStats::rejected`], matching the idempotent
    /// semantics a replayed maintenance log needs.
    ///
    /// On success, returns the source's refreshed root summary (what the
    /// data center folds into DITS-G) plus the maintenance statistics.  No
    /// data center sees a batch applied on this path: one that holds a block
    /// sketch of this source covers only the datasets it sent, and must poll
    /// the source again (`DataCenter::apply_updates` with no operation)
    /// before it filters by that sketch.
    pub fn apply_updates(
        &mut self,
        ops: &[UpdateOp],
    ) -> Result<(SourceSummary, MaintenanceStats), SpatialError> {
        let mut prepared = Vec::with_capacity(ops.len());
        for op in ops {
            prepared.push(Self::prepare(op.grid(&self.grid)?).ok_or(SpatialError::EmptyDataset)?);
        }
        Ok(self.apply_prepared(prepared))
    }

    /// Applies a batch of center-gridded operations — what a
    /// [`Message::ApplyUpdates`] carries — with the semantics of
    /// [`Self::apply_updates`].  The cells come from outside the process, so
    /// the whole batch is checked against this source's grid first: another
    /// resolution than its own, an empty cell set or a cell id `≥ 4^θ`
    /// rejects it with nothing applied.
    fn apply_cell_updates(
        &mut self,
        resolution: u32,
        ops: &[CellOp],
    ) -> Result<(SourceSummary, MaintenanceStats), BatchError> {
        if resolution != self.grid.resolution() {
            return Err(BatchError::ResolutionMismatch {
                batch: resolution,
                source: self.grid.resolution(),
            });
        }
        let mut prepared = Vec::with_capacity(ops.len());
        for op in ops {
            if let CellOp::Insert { dataset, cells } | CellOp::Update { dataset, cells } = op {
                // Cell sets are sorted: the last cell is the largest.
                if let Some(&cell) = cells.cells().last() {
                    if cell >= self.grid.cell_count() {
                        return Err(BatchError::CellOutOfGrid {
                            dataset: *dataset,
                            cell,
                            resolution,
                        });
                    }
                }
            }
            prepared.push(Self::prepare(op.clone()).ok_or(BatchError::EmptyDataset)?);
        }
        Ok(self.apply_prepared(prepared))
    }

    /// Computes the geometry of an operation's dataset; `None` when its cell
    /// set is empty.
    fn prepare(op: CellOp) -> Option<PreparedOp> {
        Some(match op {
            CellOp::Insert { dataset, cells } => {
                PreparedOp::Insert(DatasetNode::from_cell_set(dataset, cells)?)
            }
            CellOp::Update { dataset, cells } => {
                PreparedOp::Update(DatasetNode::from_cell_set(dataset, cells)?)
            }
            CellOp::Delete(id) => PreparedOp::Delete(id),
        })
    }

    /// The one cell-level apply: executes validated operations in order and
    /// returns the refreshed summary and the statistics.  Every operation is
    /// counted once, applied or rejected.
    fn apply_prepared(&mut self, prepared: Vec<PreparedOp>) -> (SourceSummary, MaintenanceStats) {
        let mut stats = MaintenanceStats::new();
        for op in prepared {
            let applied = match op {
                PreparedOp::Insert(node) => self.index.insert_with_stats(node, &mut stats),
                PreparedOp::Update(node) => self.index.update_with_stats(node, &mut stats),
                PreparedOp::Delete(id) => self.index.delete_with_stats(id, &mut stats),
            };
            if !applied {
                stats.rejected += 1;
            }
            // Debug-build hardening: validate DITS-L after every applied op
            // (not just the batch) so a violation is pinned to the op that
            // introduced it.
            #[cfg(debug_assertions)]
            debug_assert_eq!(self.index.check_invariants(), Ok(()));
        }
        debug_assert_eq!(self.index.check_invariants(), Ok(()));
        (self.summary(), stats)
    }

    /// The dataset nodes held by the source's index.
    pub fn dataset_nodes(&self) -> Vec<&DatasetNode> {
        self.index.dataset_nodes()
    }

    /// Number of indexed datasets.
    pub fn dataset_count(&self) -> usize {
        self.index.dataset_count()
    }

    /// The root summary uploaded to the data center after index construction.
    pub fn summary(&self) -> SourceSummary {
        SourceSummary::from_local_root(self.id, &self.grid, self.index.root_geometry())
    }

    /// The [`Message::SummaryRefresh`] acknowledging a maintenance batch
    /// with no block — or, with nothing applied and the whole block sketch,
    /// answering a read-only summary poll: the current root summary and
    /// dataset count.
    fn summary_refresh(
        &self,
        summary: SourceSummary,
        stats: &MaintenanceStats,
        blocks: CellSet,
    ) -> Message {
        Message::SummaryRefresh {
            summary,
            dataset_count: self.index.dataset_count() as u64,
            applied: stats.applied() as u64,
            rejected: stats.rejected as u64,
            blocks,
        }
    }

    /// Grids a query dataset with this source's own resolution.
    pub fn grid_query(&self, query: &SpatialDataset) -> CellSet {
        CellSet::from_points(&self.grid, &query.points)
    }

    /// Answers one query message with the reply the source puts on the wire
    /// and the local search statistics of the run; `None` for anything that
    /// is not a query.  The statistics never travel in the message (they are
    /// a per-source instrumentation channel, not part of the protocol).
    fn search(&self, request: &Message) -> Option<(Message, SearchStats)> {
        match request {
            Message::OverlapQuery { query, k } => {
                let (results, stats) = overlap_search(&self.index, query, *k);
                Some((
                    Message::OverlapReply {
                        source: self.id,
                        results,
                    },
                    stats,
                ))
            }
            Message::CoverageQuery { query, k, delta } => {
                let (result, query_connected, stats) =
                    coverage_search_marked(&self.index, query, CoverageConfig::new(*k, *delta));
                // Cells travel only with the picks the query itself connects
                // to; the rest are named with their size, which is all the
                // center needs unless that size could beat one of its picks.
                let candidates = result
                    .datasets
                    .iter()
                    .zip(query_connected)
                    .filter_map(|(id, inline)| {
                        let (_, node) = self.index.find_dataset(*id)?;
                        Some(CoverageCandidate {
                            source: self.id,
                            dataset: *id,
                            cells: if inline {
                                CandidateCells::Inline(node.cells.clone())
                            } else {
                                CandidateCells::Stub(node.cells.len())
                            },
                        })
                    })
                    .collect();
                Some((
                    Message::CoverageReply {
                        source: self.id,
                        candidates,
                    },
                    stats,
                ))
            }
            Message::KnnQuery { query, k } => {
                let (neighbors, stats) = nearest_datasets(&self.index, query, *k);
                Some((
                    Message::KnnReply {
                        source: self.id,
                        neighbors,
                    },
                    stats,
                ))
            }
            // Maintenance, metrics scrapes and cell fetches are dispatched
            // by [`Self::serve`] / [`Self::serve_readonly`]; replies are
            // never requests.
            Message::ApplyUpdates { .. }
            | Message::MetricsQuery
            | Message::CellsQuery { .. }
            | Message::OverlapReply { .. }
            | Message::CoverageReply { .. }
            | Message::SummaryRefresh { .. }
            | Message::KnnReply { .. }
            | Message::MetricsSnapshot { .. }
            | Message::Error { .. } => None,
        }
    }

    /// Answers a [`Message::CellsQuery`]: the named datasets with their
    /// cells, in the order asked — or a typed error naming the first one this
    /// source does not hold, never a shorter list.
    fn cells_of(&self, datasets: &[DatasetId]) -> Message {
        let candidates: Result<Vec<CoverageCandidate>, DatasetId> = datasets
            .iter()
            .map(|&dataset| {
                let (_, node) = self.index.find_dataset(dataset).ok_or(dataset)?;
                Ok(CoverageCandidate {
                    source: self.id,
                    dataset,
                    cells: CandidateCells::Inline(node.cells.clone()),
                })
            })
            .collect();
        match candidates {
            Ok(candidates) => Message::CoverageReply {
                source: self.id,
                candidates,
            },
            Err(missing) => Message::Error {
                code: ERR_UNKNOWN_DATASET,
                detail: format!("source {} holds no dataset {missing}", self.id),
            },
        }
    }

    /// The one-stop request dispatcher every transport server uses:
    /// maintenance batches are validated and applied here, everything else
    /// goes through [`Self::serve_readonly`], and anything unservable —
    /// including a transactionally rejected batch — becomes a
    /// [`Message::Error`] reply instead of a dropped connection.  This is
    /// what makes a source behave *identically* behind the in-process
    /// transport and behind a TCP socket.
    pub fn serve(&mut self, request: &Message) -> ServedReply {
        match request {
            Message::ApplyUpdates { resolution, ops } if !ops.is_empty() => {
                // Discard any phase residue a non-serve caller left on this
                // thread, so the drain in `finish` sees only this request.
                let _ = take_phase_timings();
                let started = Instant::now();
                let reply = match self.apply_cell_updates(*resolution, ops) {
                    Ok((summary, stats)) => ServedReply::maintenance(
                        self.summary_refresh(summary, &stats, CellSet::new()),
                        stats,
                    ),
                    Err(e) => ServedReply::plain(Message::Error {
                        code: ERR_REJECTED_BATCH,
                        detail: e.to_string(),
                    }),
                };
                self.finish(request, started, reply)
            }
            other => self.serve_readonly(other),
        }
    }

    /// The read-only half of [`Self::serve`]: summary polls (an empty
    /// [`Message::ApplyUpdates`] batch), metrics scrapes, cell fetches and
    /// query messages, which never mutate the index.  Takes `&self` only — sources answer
    /// concurrent requests from the query engine's worker threads without
    /// any synchronisation, and the shared in-process transport can
    /// bootstrap a data center by polling.  Both in-process transports and
    /// the TCP server's read path dispatch through this single function, so
    /// the protocols cannot drift apart.
    pub fn serve_readonly(&self, request: &Message) -> ServedReply {
        // Discard any phase residue a non-serve caller left on this thread,
        // so the drain in `finish` sees only this request.
        let _ = take_phase_timings();
        let started = Instant::now();
        let reply = match request {
            _ if request.mutates() => ServedReply::plain(Message::Error {
                code: ERR_UNSUPPORTED,
                detail: "mutating maintenance needs exclusive access".to_string(),
            }),
            Message::ApplyUpdates { .. } => ServedReply::plain(self.summary_refresh(
                self.summary(),
                &MaintenanceStats::new(),
                self.index.sketch(),
            )),
            Message::MetricsQuery => ServedReply::plain(Message::MetricsSnapshot {
                source: self.id,
                snapshot: self.metrics_snapshot(),
            }),
            Message::CellsQuery { datasets } => ServedReply::plain(self.cells_of(datasets)),
            other => match self.search(other) {
                Some((reply, stats)) => ServedReply::search(reply, stats),
                None => ServedReply::plain(Message::Error {
                    code: ERR_UNSUPPORTED,
                    detail: "request kind not served by a data source".to_string(),
                }),
            },
        };
        self.finish(request, started, reply)
    }

    /// Completes a served request: measures the service time, drains the
    /// thread-local traversal/verification phase clock the search left
    /// behind, records both into the source's metrics registry and attaches
    /// them to the reply so they can ride the frame next to the statistics.
    fn finish(&self, request: &Message, started: Instant, reply: ServedReply) -> ServedReply {
        let service = started.elapsed();
        let phases = take_phase_timings();
        self.metrics.record(request, service, phases);
        reply.with_timing(service, phases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial::Point;

    fn source_with_routes() -> DataSource {
        let grid = Grid::global(10).unwrap();
        let datasets: Vec<SpatialDataset> = (0..20)
            .map(|i| {
                let base_lon = -77.0 + (i as f64) * 0.3;
                let points: Vec<Point> = (0..10)
                    .map(|j| Point::new(base_lon + j as f64 * 0.02, 38.9 + j as f64 * 0.01))
                    .collect();
                SpatialDataset::new(i, points)
            })
            .collect();
        DataSource::build(
            1,
            "test-source",
            grid,
            &datasets,
            DitsLocalConfig::default(),
        )
    }

    /// A source's series are the ones `SourceMetrics::new` registers:
    /// serving one request of every kind adds none, each name is
    /// Prometheus-shaped and each name has one instrument kind.
    #[test]
    fn serving_every_request_kind_registers_no_new_series() {
        let series = |s: &DataSource| -> Vec<_> {
            let samples = s.metrics_snapshot().samples.into_iter();
            (samples.map(|m| (m.name, m.labels, std::mem::discriminant(&m.value)))).collect()
        };
        let mut s = source_with_routes();
        let registered = series(&s);
        let query = s.index().find_dataset(3).unwrap().1.cells.clone();
        let requests = [
            Message::OverlapQuery {
                query: query.clone(),
                k: 2,
            },
            Message::CoverageQuery {
                query: query.clone(),
                k: 2,
                delta: 1.0,
            },
            Message::KnnQuery { query, k: 2 },
            Message::ApplyUpdates {
                resolution: 10,
                ops: vec![CellOp::Delete(3)],
            },
            Message::summary_poll(),
            Message::MetricsQuery,
            Message::CellsQuery { datasets: vec![4] },
            Message::OverlapReply {
                source: 0,
                results: vec![],
            },
        ];
        let kinds: Vec<usize> = requests.iter().map(request_kind_index).collect();
        assert_eq!(kinds, (0..REQUEST_KINDS.len()).collect::<Vec<_>>());
        for request in &requests {
            s.serve(request);
        }
        assert_eq!(series(&s), registered);
        for (name, _, kind) in &registered {
            let shaped = name.starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
                && (name.chars()).all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
            assert!(shaped, "metric name {name:?} is not [a-z_][a-z0-9_]*");
            let two = registered.iter().any(|(n, _, k)| n == name && k != kind);
            assert!(!two, "{name} has two instrument kinds");
        }
    }

    #[test]
    fn build_indexes_all_nonempty_datasets() {
        let s = source_with_routes();
        assert_eq!(s.dataset_count(), 20);
        assert_eq!(s.dataset_nodes().len(), 20);
        assert_eq!(s.id, 1);
        assert_eq!(s.name, "test-source");
        let summary = s.summary();
        assert_eq!(summary.source, 1);
        assert_eq!(summary.resolution, 10);
    }

    #[test]
    fn build_skips_datasets_with_no_point_in_the_grid() {
        let datasets = vec![
            SpatialDataset::new(0, vec![Point::new(10.0, 10.0)]),
            SpatialDataset::new(1, vec![]),
            SpatialDataset::new(2, vec![Point::new(-10.0, -10.0)]),
            SpatialDataset::new(3, vec![Point::new(200.0, 0.0)]),
        ];
        let grid = Grid::global(10).unwrap();
        let s = DataSource::build(0, "s", grid, &datasets, DitsLocalConfig::default());
        assert_eq!(s.dataset_count(), 2);
    }

    #[test]
    fn handles_overlap_query() {
        let s = source_with_routes();
        let query =
            SpatialDataset::new(99, vec![Point::new(-77.0, 38.9), Point::new(-76.9, 38.95)]);
        let cells = s.grid_query(&query);
        assert!(!cells.is_empty());
        let served = s.serve_readonly(&Message::OverlapQuery { query: cells, k: 5 });
        assert!(served.search.is_some());
        match served.message {
            Message::OverlapReply { source, results } => {
                assert_eq!(source, 1);
                assert!(!results.is_empty());
                assert!(results.len() <= 5);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn handles_coverage_query() {
        let s = source_with_routes();
        let query = SpatialDataset::new(99, vec![Point::new(-77.0, 38.9)]);
        let cells = s.grid_query(&query);
        let (k, delta) = (8, 1.0);
        let served = s.serve_readonly(&Message::CoverageQuery {
            query: cells.clone(),
            k,
            delta,
        });
        assert!(served.search.is_some());
        match served.message {
            Message::CoverageReply { source, candidates } => {
                assert_eq!(source, 1);
                assert!(candidates.len() <= k);
                let probe = spatial::distance::NeighborProbe::new(&cells);
                for c in &candidates {
                    assert_eq!(c.source, 1);
                    // Cells travel with a pick exactly when the query itself
                    // connects it; a stub states the size of the dataset.
                    let held = &s.index().find_dataset(c.dataset).unwrap().1.cells;
                    match &c.cells {
                        CandidateCells::Inline(sent) => {
                            assert_eq!(sent, held);
                            assert!(probe.within(held, delta));
                        }
                        CandidateCells::Stub(size) => {
                            assert_eq!(*size, held.len());
                            assert!(!probe.within(held, delta));
                        }
                    }
                }
                // The first pick is always connected to the query.
                assert!(matches!(candidates[0].cells, CandidateCells::Inline(_)));
                assert!(
                    candidates
                        .iter()
                        .any(|c| matches!(c.cells, CandidateCells::Stub(_))),
                    "a chain of routes reaches past δ of a one-point query"
                );
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn handles_cells_query() {
        let s = source_with_routes();
        let served = s.serve_readonly(&Message::CellsQuery {
            datasets: vec![7, 2, 7],
        });
        assert!(served.search.is_none(), "a fetch searches nothing");
        let Message::CoverageReply { source, candidates } = served.message else {
            panic!("unexpected reply {:?}", served.message);
        };
        assert_eq!(source, 1);
        let expected: Vec<CoverageCandidate> = [7, 2, 7]
            .into_iter()
            .map(|dataset| CoverageCandidate {
                source: 1,
                dataset,
                cells: CandidateCells::Inline(
                    s.index().find_dataset(dataset).unwrap().1.cells.clone(),
                ),
            })
            .collect();
        assert_eq!(candidates, expected);
        assert_eq!(
            s.serve_readonly(&Message::CellsQuery { datasets: vec![] })
                .message,
            Message::CoverageReply {
                source: 1,
                candidates: vec![],
            }
        );
        // One dataset that is gone fails the whole fetch, by name.
        let served = s.serve_readonly(&Message::CellsQuery {
            datasets: vec![2, 999],
        });
        assert_eq!(
            served.message,
            Message::Error {
                code: ERR_UNKNOWN_DATASET,
                detail: "source 1 holds no dataset 999".to_string(),
            }
        );
        // Fetches are counted as their own request kind.
        let snapshot = s.metrics_snapshot();
        let fetches = snapshot
            .find("source_requests_total", &[("kind", "cells")])
            .expect("cells request counter registered");
        assert!(matches!(fetches.value, obs::MetricValue::Counter(3)));
        let other = snapshot
            .find("source_requests_total", &[("kind", "other")])
            .expect("other request counter registered");
        assert!(matches!(other.value, obs::MetricValue::Counter(0)));
    }

    #[test]
    fn replies_are_not_handled_as_requests() {
        let s = source_with_routes();
        for reply in [
            Message::OverlapReply {
                source: 0,
                results: vec![],
            },
            Message::CoverageReply {
                source: 0,
                candidates: vec![],
            },
        ] {
            let served = s.serve_readonly(&reply);
            assert!(
                matches!(served.message, Message::Error { code, .. } if code == ERR_UNSUPPORTED),
                "{:?}",
                served.message
            );
            assert!(served.search.is_none());
        }
    }

    #[test]
    fn apply_updates_maintains_index_and_cache() {
        let mut s = source_with_routes();
        let old_summary = s.summary();
        let ops = vec![
            UpdateOp::Delete(0),
            UpdateOp::Insert(SpatialDataset::new(
                500,
                vec![Point::new(-50.0, 10.0), Point::new(-49.9, 10.1)],
            )),
            // Rejected: the id was just deleted.
            UpdateOp::Update(SpatialDataset::new(0, vec![Point::new(1.0, 1.0)])),
        ];
        let (summary, stats) = s.apply_updates(&ops).unwrap();
        assert_eq!(stats.inserts, 1);
        assert_eq!(stats.deletes, 1);
        assert_eq!(stats.rejected, 1);
        assert_eq!(s.dataset_count(), 20);
        // The cached raw collection tracked the mutation.
        assert!(s.dataset_nodes().iter().any(|n| n.id == 500));
        assert!(s.dataset_nodes().iter().all(|n| n.id != 0));
        // The summary reflects the new root geometry (the inserted dataset
        // lies far east of the original routes).
        assert!(summary.geometry.rect.max.x > old_summary.geometry.rect.max.x);
    }

    #[test]
    fn empty_dataset_rejects_the_whole_batch() {
        let mut s = source_with_routes();
        let before = s.dataset_count();
        let ops = vec![
            UpdateOp::Delete(1),
            UpdateOp::Insert(SpatialDataset::new(600, vec![])),
        ];
        let err = s.apply_updates(&ops).unwrap_err();
        assert_eq!(err, SpatialError::EmptyDataset);
        // Transactional: the valid delete before the invalid insert did not
        // run either.
        assert_eq!(s.dataset_count(), before);
        assert!(s.index().find_dataset(1).is_some());
    }

    #[test]
    fn handle_maintenance_produces_summary_refresh() {
        let mut s = source_with_routes();
        let request = Message::ApplyUpdates {
            resolution: 10,
            ops: vec![CellOp::Delete(3), CellOp::Delete(999_999)],
        };
        let served = s.serve(&request);
        let stats = served
            .maintenance
            .expect("an applied batch reports its statistics");
        match served.message {
            Message::SummaryRefresh {
                summary,
                dataset_count,
                applied,
                rejected,
                blocks,
            } => {
                assert_eq!(summary.source, 1);
                assert_eq!(dataset_count, 19);
                assert_eq!(applied, 1);
                assert_eq!(rejected, 1);
                // A batch is acknowledged with no block; a poll, with all.
                assert_eq!(blocks, CellSet::new());
                let Message::SummaryRefresh { blocks, .. } =
                    s.serve(&Message::summary_poll()).message
                else {
                    panic!("a poll is answered with a summary");
                };
                assert!(!blocks.is_empty());
                assert_eq!(blocks, s.index().sketch());
            }
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(stats.deletes, 1);
        // Query messages are not maintenance.
        assert!(s
            .serve(&Message::OverlapQuery {
                query: CellSet::new(),
                k: 1
            })
            .maintenance
            .is_none());
    }
}
