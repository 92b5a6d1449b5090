//! End-to-end assembly of the multi-source search framework.
//!
//! [`MultiSourceFramework`] owns the data sources and the data center,
//! mirrors the deployment of Fig. 3 and exposes the unified query surface:
//! build a [`SearchRequest`] (OJSP / CJSP / kNN, single query or batch) and
//! execute it with [`MultiSourceFramework::search`].  Execution routes
//! through the [`QueryEngine`] over an
//! [`InProcessTransport`](crate::InProcessTransport) — the framework plans
//! nothing itself; it only assembles the deployment and hands requests to
//! the engine.  The same requests run unchanged against remote sources:
//! see [`DataCenter::from_transport`] and `net::PooledTcpTransport`.
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

use dits::DitsLocalConfig;
use spatial::{Grid, SourceId, SpatialDataset};

use crate::api::{SearchRequest, SearchResponse};
use crate::center::{DataCenter, DistributionStrategy, MaintenanceOutcome};
use crate::engine::{EngineConfig, QueryEngine};
use crate::error::{ConfigError, SearchError};
use crate::message::UpdateOp;
use crate::source::DataSource;
use crate::transport::ExclusiveTransport;

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
    /// Worker threads of the query engine; `0` means one per available CPU.
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
        let grid = Grid::global(self.resolution)
            .map_err(|e| SearchError::Config(ConfigError::Resolution(e)))?;
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
    /// collection, then the data center's DITS-G from the uploaded root
    /// summaries.  Returns [`SearchError::Config`] for an invalid
    /// configuration instead of panicking.
    pub fn try_build(
        source_data: &[(String, Vec<SpatialDataset>)],
        config: FrameworkConfig,
    ) -> Result<Self, SearchError> {
        let grid = config.validated_grid()?;
        let local_config = DitsLocalConfig {
            leaf_capacity: config.leaf_capacity,
        };
        let sources: Vec<DataSource> = source_data
            .iter()
            .enumerate()
            .map(|(i, (name, datasets))| {
                DataSource::build(i as SourceId, name.clone(), grid, datasets, local_config)
            })
            .collect();
        let center = DataCenter::build(&sources, config.leaf_capacity);
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
    /// Panics when [`FrameworkConfig::validate`] rejects the configuration.
    pub fn build(source_data: &[(String, Vec<SpatialDataset>)], config: FrameworkConfig) -> Self {
        match Self::try_build(source_data, config) {
            Ok(framework) => framework,
            #[expect(
                clippy::panic,
                reason = "documented contract of this test/experiment convenience; library callers use try_build"
            )]
            Err(e) => panic!("invalid framework configuration: {e}"),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SearchRequest;
    use crate::comm::CommConfig;
    use crate::error::{ConfigError, SearchError};
    use datagen::{generate_source, paper_sources, GeneratorConfig, SourceScale};
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
        assert!(ojsp.search.expect("stats requested").nodes_visited > 0);
        assert!(!ojsp.per_source.is_empty());

        let cjsp = fw.search(&SearchRequest::cjsp(query.clone()).k(3)).unwrap();
        let answers = cjsp.coverage().expect("CJSP answers");
        assert!(answers[0].coverage >= answers[0].query_coverage);

        let knn = fw
            .search(&SearchRequest::knn(query).k(4).with_stats(false))
            .unwrap();
        let answers = knn.knn().expect("kNN answers");
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].neighbors[0].1.distance, 0.0);
        assert!(knn.search.is_none(), "stats were opted out");
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
