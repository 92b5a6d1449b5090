//! End-to-end assembly of the multi-source search framework.
//!
//! [`MultiSourceFramework`] owns the data sources and the data center,
//! mirrors the deployment of Fig. 3 and exposes the unified query surface:
//! build a [`SearchRequest`] (OJSP / CJSP / kNN, single query or batch) and
//! execute it with [`MultiSourceFramework::search`].  It is the federation
//! minus the socket: the center's summary poll
//! ([`DataCenter::from_transport`]) and every [`QueryEngine`] request go
//! through an [`InProcessTransport`]; the framework plans nothing itself.
//! The same requests run unchanged against remote sources: bootstrap over
//! `net::PooledTcpTransport` instead.
//!
//! The build runs on the same worker pool the engine fans out on
//! ([`FrameworkConfig::workers`]): the sources' datasets are gridded in
//! chunks by whichever worker is free, and the worker that grids a source's
//! last chunk builds its DITS-L, so one source's tree build overlaps the
//! gridding of the others.  The framework is the one a single worker builds.
//!
//! Index maintenance flows through [`MultiSourceFramework::apply_updates`]:
//! the center grids a batch of [`UpdateOp`]s at the target source's
//! resolution, the cells travel to that source as a
//! [`Message::ApplyUpdates`](crate::message::Message::ApplyUpdates) through
//! an [`ExclusiveTransport`], the source applies them to its DITS-L, and the
//! returned summary refresh is folded into the center's DITS-G before the
//! call returns — so query batches issued afterwards are planned against
//! summaries that agree with every local index.
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

use std::cmp::Reverse;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use dits::{DatasetNode, DitsLocalConfig};
use spatial::{Grid, SourceId, SpatialDataset};

use crate::api::{SearchRequest, SearchResponse};
use crate::center::{DataCenter, DistributionStrategy, MaintenanceOutcome};
use crate::engine::{EngineConfig, QueryEngine};
use crate::error::{ConfigError, SearchError};
use crate::message::UpdateOp;
use crate::source::DataSource;
use crate::transport::{ExclusiveTransport, InProcessTransport};
use crate::workers::{on_workers, resolve_workers};

/// Configuration of the whole framework.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameworkConfig {
    /// Grid resolution θ shared by the sources in one experiment run.
    pub resolution: u32,
    /// Leaf capacity `f` of every local index (and of the global index).
    pub leaf_capacity: usize,
    /// Connectivity threshold δ in cell units (CJSP only).
    pub delta_cells: f64,
    /// Query-distribution strategy.
    pub strategy: DistributionStrategy,
    /// The engine's and the build's workers: how many threads a query
    /// batch fans out on and [`MultiSourceFramework::try_build`] grids and
    /// indexes on, the calling thread among them; `0` means one per
    /// available CPU.
    pub workers: usize,
}

impl Default for FrameworkConfig {
    fn default() -> Self {
        Self {
            resolution: 12,
            leaf_capacity: 10,
            delta_cells: 10.0,
            strategy: DistributionStrategy::PrunedClipped,
            workers: 0,
        }
    }
}

impl FrameworkConfig {
    /// Validates the configuration without building anything: the grid
    /// resolution must be constructible (`1..=31`) and δ finite and
    /// non-negative.
    pub fn validate(&self) -> Result<(), SearchError> {
        self.validated_grid().map(|_| ())
    }

    /// Validates and returns the shared grid of a run.
    fn validated_grid(&self) -> Result<Grid, SearchError> {
        let grid = crate::center::grid(self.resolution)?;
        if !self.delta_cells.is_finite() || self.delta_cells < 0.0 {
            return Err(SearchError::Config(ConfigError::Delta(self.delta_cells)));
        }
        Ok(grid)
    }
}

/// The assembled multi-source search framework.
#[derive(Debug, Clone)]
pub struct MultiSourceFramework {
    config: FrameworkConfig,
    grid: Grid,
    sources: Vec<DataSource>,
    center: DataCenter,
}

impl MultiSourceFramework {
    /// Builds the framework: one [`DataSource`] (with its DITS-L) per input
    /// collection, built on the configured workers (`build_sources`), then
    /// the data center by the federated bootstrap, a summary poll of every
    /// source ([`DataCenter::from_transport`]).  The sources are those
    /// [`DataSource::build`] makes one after another, whatever the worker
    /// count.  Returns [`SearchError::Config`] for an invalid configuration
    /// instead of panicking, and [`SearchError::Internal`] if a worker
    /// panicked.
    pub fn try_build(
        source_data: &[(String, Vec<SpatialDataset>)],
        config: FrameworkConfig,
    ) -> Result<Self, SearchError> {
        let grid = config.validated_grid()?;
        let local_config = DitsLocalConfig {
            leaf_capacity: config.leaf_capacity,
        };
        let sources = build_sources(source_data, grid, local_config, config.workers)?;
        let center =
            DataCenter::from_transport(&InProcessTransport::new(&sources), config.leaf_capacity)?;
        Ok(Self {
            config,
            grid,
            sources,
            center,
        })
    }

    /// Builds the framework, panicking on an invalid configuration — a
    /// convenience for tests and experiment binaries whose configurations
    /// are static.  Library callers should prefer [`Self::try_build`].
    ///
    /// # Panics
    ///
    /// Panics when [`Self::try_build`] fails: [`FrameworkConfig::validate`]
    /// rejects the configuration, or a build worker panicked.
    pub fn build(source_data: &[(String, Vec<SpatialDataset>)], config: FrameworkConfig) -> Self {
        match Self::try_build(source_data, config) {
            Ok(framework) => framework,
            #[expect(
                clippy::panic,
                reason = "documented contract of this test/experiment convenience; library callers use try_build"
            )]
            Err(e) => panic!("cannot build the framework: {e}"),
        }
    }

    /// The framework's configuration.
    pub fn config(&self) -> &FrameworkConfig {
        &self.config
    }

    /// The shared grid of this run.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The data sources.
    pub fn sources(&self) -> &[DataSource] {
        &self.sources
    }

    /// The data center.
    pub fn center(&self) -> &DataCenter {
        &self.center
    }

    /// Executes a unified [`SearchRequest`] (OJSP / CJSP / kNN, single query
    /// or batch) over the in-process deployment.  This is the blessed query
    /// surface; everything else delegates to it.
    pub fn search(&self, request: &SearchRequest) -> Result<SearchResponse, SearchError> {
        self.engine().run(request)
    }

    /// Applies a batch of maintenance operations to one source through the
    /// wire protocol (over an [`ExclusiveTransport`]), then refreshes the
    /// center's DITS-G with the source's new root summary — the full
    /// cross-layer pipeline of Appendix IX-C.  See
    /// [`DataCenter::apply_updates`] for the transactional semantics; the
    /// same call works against remote sources over a
    /// `net::PooledTcpTransport`.
    pub fn apply_updates(
        &mut self,
        source: SourceId,
        ops: &[UpdateOp],
    ) -> Result<MaintenanceOutcome, SearchError> {
        let transport = ExclusiveTransport::new(&mut self.sources);
        self.center.apply_updates(&transport, source, ops)
    }

    /// Total number of datasets across all sources.
    pub fn dataset_count(&self) -> usize {
        self.sources.iter().map(|s| s.dataset_count()).sum()
    }

    /// A query engine over this deployment with the configured worker count.
    pub fn engine(&self) -> QueryEngine<'_> {
        QueryEngine::in_process(
            &self.center,
            &self.sources,
            EngineConfig {
                workers: self.config.workers,
                strategy: self.config.strategy,
                delta_cells: self.config.delta_cells,
                ..EngineConfig::default()
            },
        )
    }
}

/// A source's datasets are gridded in chunks: runs of consecutive datasets
/// that end at the first to reach this many points (a source's last chunk
/// may hold fewer).  Fine enough that whichever worker is free takes the
/// next, coarse enough that claiming one costs nothing next to gridding it.
const CHUNK_POINTS: usize = 1 << 14;

/// Builds one [`DataSource`] per collection on `workers` workers
/// ([`on_workers`]: the calling thread and `workers − 1` threads).
///
/// Sources are taken largest first, by point count, and their datasets are
/// gridded in chunks of [`CHUNK_POINTS`] by whichever worker is free.  The
/// worker that grids a source's last chunk builds its DITS-L at once
/// ([`DataSource::from_nodes`]), so one source's tree build overlaps the
/// gridding of the others.  A source's nodes are concatenated in input
/// order, the order [`DataSource::build`] grids them in: the order shapes
/// the tree, so every worker count builds the same sources.
fn build_sources(
    source_data: &[(String, Vec<SpatialDataset>)],
    grid: Grid,
    config: DitsLocalConfig,
    workers: usize,
) -> Result<Vec<DataSource>, SearchError> {
    let points =
        |datasets: &[SpatialDataset]| -> usize { datasets.iter().map(|d| d.points.len()).sum() };
    let mut largest_first: Vec<(usize, &(String, Vec<SpatialDataset>))> =
        source_data.iter().enumerate().collect();
    largest_first.sort_by_key(|(_, (_, datasets))| Reverse(points(datasets)));
    // Every source's chunks, consecutive; a source without datasets has one
    // empty chunk, so that some worker builds it too.
    let mut chunks: Vec<(usize, &[SpatialDataset])> = Vec::new();
    let mut runs: Vec<Range<usize>> = vec![0..0; source_data.len()];
    for &(source, (_, datasets)) in &largest_first {
        let first = chunks.len();
        let mut rest = datasets.as_slice();
        loop {
            let mut taken = 0;
            let end = rest.iter().position(|dataset| {
                taken += dataset.points.len();
                taken >= CHUNK_POINTS
            });
            let (chunk, after) = rest.split_at(end.map_or(rest.len(), |last| last + 1));
            chunks.push((source, chunk));
            rest = after;
            if rest.is_empty() {
                break;
            }
        }
        if let Some(run) = runs.get_mut(source) {
            *run = first..chunks.len();
        }
    }

    fn lock<T>(slot: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
        slot.lock().unwrap_or_else(PoisonError::into_inner)
    }
    let gridded: Vec<Mutex<Vec<DatasetNode>>> =
        chunks.iter().map(|_| Mutex::new(Vec::new())).collect();
    let left: Vec<AtomicUsize> = runs.iter().map(|run| AtomicUsize::new(run.len())).collect();
    let cursor = AtomicUsize::new(0);
    let worker_count = resolve_workers(workers).min(chunks.len()).max(1);
    let built = on_workers(worker_count, || {
        let mut built = Vec::new();
        loop {
            let claimed = cursor.fetch_add(1, Ordering::Relaxed);
            let (Some(&(source, datasets)), Some(part)) =
                (chunks.get(claimed), gridded.get(claimed))
            else {
                break built;
            };
            *lock(part) = datasets
                .iter()
                .filter_map(|d| DatasetNode::from_dataset(&grid, d).ok())
                .collect();
            if left.get(source).map(|n| n.fetch_sub(1, Ordering::AcqRel)) != Some(1) {
                continue;
            }
            // This worker gridded the source's last chunk: it builds the index.
            let (Some(run), Some((name, _))) = (runs.get(source), source_data.get(source)) else {
                continue;
            };
            let mut nodes = Vec::new();
            for part in gridded.get(run.clone()).unwrap_or_default() {
                nodes.append(&mut lock(part));
            }
            let id = source as SourceId;
            built.push(DataSource::from_nodes(
                id,
                name.clone(),
                grid,
                nodes,
                config,
            ));
        }
    })?;
    let mut sources: Vec<DataSource> = built.into_iter().flatten().collect();
    sources.sort_unstable_by_key(|source| source.id);
    if sources.len() != source_data.len() {
        return Err(SearchError::Internal("a source was left unbuilt"));
    }
    Ok(sources)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SearchRequest;
    use crate::comm::CommConfig;
    use crate::error::{ConfigError, SearchError};
    use datagen::{generate_source, paper_sources, GeneratorConfig, SourceScale};
    use proptest::Strategy;
    use spatial::Point;

    fn tiny_framework(
        strategy: DistributionStrategy,
    ) -> (MultiSourceFramework, Vec<SpatialDataset>) {
        let config = GeneratorConfig {
            scale: SourceScale::Custom(400),
            seed: 11,
            max_points_per_dataset: Some(120),
        };
        let source_data: Vec<(String, Vec<SpatialDataset>)> = paper_sources()
            .iter()
            .map(|p| (p.name.to_string(), generate_source(p, &config)))
            .collect();
        let queries: Vec<SpatialDataset> = source_data
            .iter()
            .flat_map(|(_, d)| d.iter().take(1).cloned())
            .collect();
        let fw = MultiSourceFramework::build(
            &source_data,
            FrameworkConfig {
                resolution: 11,
                strategy,
                ..FrameworkConfig::default()
            },
        );
        (fw, queries)
    }

    /// Builds `source_data` on one worker, then on two and on four, and
    /// holds the pooled builds to the one-worker build and that to
    /// [`DataSource::build`] run source by source: every DITS-L (its `==`
    /// compares trees), every sketch the center polled and the DITS-G
    /// summaries.
    fn assert_the_pool_builds_the_serial_framework(source_data: &[(String, Vec<SpatialDataset>)]) {
        let local = DitsLocalConfig { leaf_capacity: 4 };
        let config = |workers| FrameworkConfig {
            resolution: 10,
            leaf_capacity: local.leaf_capacity,
            workers,
            ..FrameworkConfig::default()
        };
        let serial = MultiSourceFramework::try_build(source_data, config(1)).unwrap();
        assert_eq!(serial.sources().len(), source_data.len());
        for (source, (name, datasets)) in serial.sources().iter().zip(source_data) {
            let alone = DataSource::build(source.id, name.clone(), *serial.grid(), datasets, local);
            assert_eq!(&source.name, name);
            assert!(
                source.index() == alone.index(),
                "source {}: the trees differ",
                source.id
            );
        }
        for workers in [2, 4] {
            let pooled = MultiSourceFramework::try_build(source_data, config(workers)).unwrap();
            assert_eq!(pooled.sources().len(), serial.sources().len());
            for (got, want) in pooled.sources().iter().zip(serial.sources()) {
                let at = format!("workers({workers}), source {}", want.id);
                assert_eq!(
                    (got.id, &got.name, got.grid()),
                    (want.id, &want.name, want.grid())
                );
                assert!(got.index() == want.index(), "{at}: the trees differ");
                let sketch = |fw: &MultiSourceFramework| fw.center().sketch(want.id).cloned();
                assert!(
                    sketch(&pooled) == sketch(&serial),
                    "{at}: the sketches differ"
                );
            }
            assert_eq!(
                pooled.center().global().summaries(),
                serial.center().global().summaries(),
                "workers({workers})"
            );
        }
    }

    /// `count` datasets of `1..=max_points` points each, every one scattered
    /// over a few cells around its own centre, drawn from `rng`.  One in
    /// three repeats the points of the dataset before it, so pivots tie and
    /// the order the tree build meets them in shows in its leaves.
    fn scattered(
        rng: &mut proptest::TestRng,
        count: usize,
        max_points: usize,
    ) -> Vec<SpatialDataset> {
        let mut datasets: Vec<SpatialDataset> = Vec::with_capacity(count);
        for id in 0..count as u32 {
            let points = match datasets.last() {
                Some(before) if (0..3usize).generate(rng) == 0 => before.points.clone(),
                _ => {
                    let (lon, lat) = ((-170.0..170.0).generate(rng), (-80.0..80.0).generate(rng));
                    (0..1 + (0..max_points).generate(rng))
                        .map(|_| {
                            Point::new(
                                lon + (0.0..2.0).generate(rng),
                                lat + (0.0..2.0).generate(rng),
                            )
                        })
                        .collect()
                }
            };
            datasets.push(SpatialDataset::new(id, points));
        }
        datasets
    }

    /// Datasets whose every point lies east of the grid.
    fn off_the_grid(count: usize) -> Vec<SpatialDataset> {
        (0..count)
            .map(|id| SpatialDataset::new(id as u32, vec![Point::new(200.0 + id as f64, 10.0); 3]))
            .collect()
    }

    #[test]
    fn the_pool_builds_the_serial_framework_in_every_edge_case() {
        let mut rng = proptest::TestRng::from_name("pool-build-edge-cases");
        let named = |sources: Vec<Vec<SpatialDataset>>| -> Vec<(String, Vec<SpatialDataset>)> {
            sources
                .into_iter()
                .enumerate()
                .map(|(i, d)| (format!("s{i}"), d))
                .collect()
        };
        // No sources.
        assert_the_pool_builds_the_serial_framework(&[]);
        // A source with no datasets, beside one with some.
        assert_the_pool_builds_the_serial_framework(&named(vec![
            vec![],
            scattered(&mut rng, 9, 40),
        ]));
        // A source whose every dataset falls off the grid.
        assert_the_pool_builds_the_serial_framework(&named(vec![
            off_the_grid(4),
            scattered(&mut rng, 5, 40),
        ]));
        // More sources than workers, sizes out of order.
        let many = (0..7)
            .map(|i| scattered(&mut rng, 2 + 5 * (i % 3), 60))
            .collect();
        assert_the_pool_builds_the_serial_framework(&named(many));
        // A single dataset larger than a chunk, between smaller ones, and a
        // source that spans several chunks.
        let mut giant = scattered(&mut rng, 6, 50);
        let big = SpatialDataset::new(6, vec![Point::new(12.0, 34.0); CHUNK_POINTS + 7]);
        giant.insert(3, big);
        let split = scattered(&mut rng, 3 * CHUNK_POINTS / 500, 1_000);
        assert_the_pool_builds_the_serial_framework(&named(vec![
            scattered(&mut rng, 4, 30),
            giant,
            split,
        ]));
    }

    /// One framework input fully determined by `case_seed`: up to seven
    /// sources, each empty, off the grid, or a few scattered datasets — and
    /// now and then one dataset larger than a chunk — built on one, two and
    /// four workers.
    fn run_build_case(case_seed: u64) {
        let _replay = dits::ReplayOnPanic("run_build_case", case_seed);
        let mut rng = proptest::TestRng::from_name(&format!("pool-build-{case_seed}"));
        let sources = (0..8).generate(&mut rng);
        let source_data: Vec<(String, Vec<SpatialDataset>)> = (0..sources)
            .map(|i| {
                let mut datasets = match (0..6).generate(&mut rng) {
                    0 => Vec::new(),
                    1 => off_the_grid(1 + (0..3usize).generate(&mut rng)),
                    _ => {
                        let count = 1 + (0..12usize).generate(&mut rng);
                        scattered(&mut rng, count, 200)
                    }
                };
                if (0..8).generate(&mut rng) == 0 {
                    let id = datasets.len() as u32;
                    let points = (0..CHUNK_POINTS + 1 + (0..500usize).generate(&mut rng))
                        .map(|j| {
                            Point::new(-60.0 + (j % 97) as f64 * 0.05, 5.0 + (j % 89) as f64 * 0.05)
                        })
                        .collect();
                    let at = (0..datasets.len() + 1).generate(&mut rng);
                    datasets.insert(at, SpatialDataset::new(id, points));
                }
                (format!("s{i}"), datasets)
            })
            .collect();
        assert_the_pool_builds_the_serial_framework(&source_data);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(12))]
        #[test]
        fn prop_the_pool_builds_the_serial_framework(case_seed in proptest::any::<u64>()) {
            run_build_case(case_seed);
        }
    }

    #[test]
    fn builds_five_sources_from_the_generator() {
        let (fw, _) = tiny_framework(DistributionStrategy::PrunedClipped);
        assert_eq!(fw.sources().len(), 5);
        assert!(fw.dataset_count() > 0);
        assert_eq!(fw.center().global().source_count(), 5);
        assert_eq!(fw.grid().resolution(), 11);
    }

    #[test]
    fn try_build_rejects_invalid_configurations() {
        let bad_resolution = FrameworkConfig {
            resolution: 40,
            ..FrameworkConfig::default()
        };
        assert!(matches!(
            MultiSourceFramework::try_build(&[], bad_resolution),
            Err(SearchError::Config(ConfigError::Resolution(_)))
        ));
        let bad_delta = FrameworkConfig {
            delta_cells: f64::NAN,
            ..FrameworkConfig::default()
        };
        assert!(matches!(
            bad_delta.validate(),
            Err(SearchError::Config(ConfigError::Delta(_)))
        ));
        assert!(FrameworkConfig::default().validate().is_ok());
    }

    #[test]
    fn unified_search_covers_every_kind() {
        let (fw, queries) = tiny_framework(DistributionStrategy::PrunedClipped);
        let query = queries[0].clone();

        let ojsp = fw.search(&SearchRequest::ojsp(query.clone()).k(5)).unwrap();
        let answers = ojsp.overlap().expect("OJSP answers");
        assert_eq!(answers.len(), 1);
        assert!(!answers[0].results.is_empty());
        assert!(ojsp.comm.total_bytes() > 0);
        assert!(ojsp.search.nodes_visited > 0);
        assert!(!ojsp.per_source.is_empty());

        let cjsp = fw.search(&SearchRequest::cjsp(query.clone()).k(3)).unwrap();
        let answers = cjsp.coverage().expect("CJSP answers");
        assert!(answers[0].coverage >= answers[0].query_coverage);

        let knn = fw.search(&SearchRequest::knn(query).k(4)).unwrap();
        let answers = knn.knn().expect("kNN answers");
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].neighbors[0].1.distance, 0.0);
    }

    #[test]
    fn queries_drawn_from_a_source_find_themselves() {
        let (fw, queries) = tiny_framework(DistributionStrategy::PrunedClipped);
        let outcome = fw
            .search(&SearchRequest::ojsp_batch(queries.clone()).k(5))
            .unwrap();
        let answers = outcome.overlap().expect("OJSP answers");
        assert_eq!(answers.len(), queries.len());
        // A query that *is* one of the indexed datasets must be found with
        // full overlap (it is its own best match).
        let found_self = answers.iter().filter(|a| !a.results.is_empty()).count();
        assert_eq!(found_self, queries.len());
        assert!(outcome.comm.total_bytes() > 0);
        assert!(outcome.comm.transmission_time_ms(&CommConfig::default()) > 0.0);
    }

    #[test]
    fn strategies_agree_on_results_but_not_on_cost() {
        let (fw_b, queries) = tiny_framework(DistributionStrategy::Broadcast);
        let (fw_c, _) = tiny_framework(DistributionStrategy::PrunedClipped);
        let out_b = fw_b
            .search(&SearchRequest::ojsp_batch(queries.clone()).k(5))
            .unwrap();
        let out_c = fw_c
            .search(&SearchRequest::ojsp_batch(queries).k(5))
            .unwrap();
        let answers_b = out_b.overlap().unwrap();
        let answers_c = out_c.overlap().unwrap();
        for (a, b) in answers_b.iter().zip(answers_c.iter()) {
            assert_eq!(
                a.results.iter().map(|(_, r)| r.overlap).collect::<Vec<_>>(),
                b.results.iter().map(|(_, r)| r.overlap).collect::<Vec<_>>()
            );
        }
        assert!(out_c.comm.total_bytes() <= out_b.comm.total_bytes());
        assert!(out_c.comm.requests <= out_b.comm.requests);
    }

    #[test]
    fn cjsp_batch_improves_coverage() {
        let (fw, queries) = tiny_framework(DistributionStrategy::PrunedClipped);
        let outcome = fw
            .search(&SearchRequest::cjsp_batch(queries.clone()).k(3))
            .unwrap();
        let answers = outcome.coverage().expect("CJSP answers");
        assert_eq!(answers.len(), queries.len());
        for a in answers {
            assert!(a.coverage >= a.query_coverage);
            assert!(a.selected.len() <= 3);
        }
    }

    #[test]
    fn request_overrides_beat_the_framework_configuration() {
        let (fw, queries) = tiny_framework(DistributionStrategy::PrunedClipped);
        // Per-request Broadcast contacts every source on every query.
        let broadcast = fw
            .search(
                &SearchRequest::ojsp_batch(queries.clone())
                    .k(5)
                    .strategy(DistributionStrategy::Broadcast),
            )
            .unwrap();
        let pruned = fw
            .search(&SearchRequest::ojsp_batch(queries.clone()).k(5))
            .unwrap();
        assert_eq!(
            broadcast.comm.sources_contacted,
            queries.len() * fw.sources().len()
        );
        assert!(pruned.comm.sources_contacted <= broadcast.comm.sources_contacted);
        // Per-request worker override: answers identical either way.
        let seq = fw
            .search(&SearchRequest::ojsp_batch(queries.clone()).k(5).workers(1))
            .unwrap();
        assert_eq!(seq.results, pruned.results);
        assert_eq!(seq.comm, pruned.comm);

        // A per-request δ override must reach *routing* too, not only
        // clipping and aggregation: a widened δ under the pruned strategy
        // returns the same answers Broadcast does (routing never loses a
        // connected source).
        for delta in [0.0, 25.0, 60.0] {
            let pruned = fw
                .search(
                    &SearchRequest::cjsp_batch(queries.clone())
                        .k(3)
                        .delta_cells(delta),
                )
                .unwrap();
            let broadcast = fw
                .search(
                    &SearchRequest::cjsp_batch(queries.clone())
                        .k(3)
                        .delta_cells(delta)
                        .strategy(DistributionStrategy::Broadcast),
                )
                .unwrap();
            assert_eq!(
                pruned.results, broadcast.results,
                "δ={delta}: routing pruned a source the aggregation needed"
            );
        }
    }

    #[test]
    fn index_maintenance_through_the_framework() {
        let (mut fw, _) = tiny_framework(DistributionStrategy::PrunedClipped);
        let before = fw.dataset_count();
        let new_dataset = SpatialDataset::new(
            90_000,
            (0..10)
                .map(|j| Point::new(-77.0 + j as f64 * 0.01, 38.9))
                .collect(),
        );
        let outcome = fw
            .apply_updates(3, &[UpdateOp::Insert(new_dataset.clone())])
            .unwrap();
        assert_eq!(fw.dataset_count(), before + 1);
        assert_eq!(outcome.stats.inserts, 1);
        assert_eq!(outcome.stats.summary_refreshes, 1);
        assert!(outcome.comm.total_bytes() > 0);
        assert_eq!(outcome.comm.requests, 1);
        assert_eq!(outcome.comm.replies, 1);

        // The refreshed DITS-G routes a query for the new dataset to the
        // mutated source, and the engine finds it with full overlap.
        let response = fw
            .search(&SearchRequest::ojsp(new_dataset.clone()).k(1))
            .unwrap();
        let answer = &response.overlap().unwrap()[0];
        assert_eq!(answer.results.len(), 1);
        assert_eq!(answer.results[0].0, 3);
        assert_eq!(answer.results[0].1.dataset, 90_000);

        // Deleting it again restores the old state.
        let outcome = fw.apply_updates(3, &[UpdateOp::Delete(90_000)]).unwrap();
        assert_eq!(outcome.stats.deletes, 1);
        assert_eq!(fw.dataset_count(), before);
    }

    #[test]
    fn maintenance_errors_leave_the_framework_untouched() {
        let (mut fw, _) = tiny_framework(DistributionStrategy::PrunedClipped);
        let before = fw.dataset_count();
        // Unknown source.
        let err = fw.apply_updates(99, &[UpdateOp::Delete(0)]).unwrap_err();
        assert_eq!(err, SearchError::UnknownSource(99));
        // Structurally invalid batch: nothing applied, not even the valid
        // leading op.
        let err = fw
            .apply_updates(
                2,
                &[
                    UpdateOp::Insert(SpatialDataset::new(91_000, vec![Point::new(0.0, 0.0)])),
                    UpdateOp::Insert(SpatialDataset::new(91_001, vec![])),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, SearchError::Rejected { .. }));
        assert_eq!(fw.dataset_count(), before);
        assert!(!err.to_string().is_empty());
    }
}
