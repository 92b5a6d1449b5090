//! Shared experiment environment used by the `experiments`, `bench-runner`
//! and `load-gen` binaries.
//!
//! The environment generates the five synthetic data sources once (at a
//! configurable scale), grids them at any requested resolution θ, builds any
//! of the five competing indexes, and selects query workloads — so every
//! figure's harness is a short sweep over this common vocabulary.

#![warn(missing_docs)]

use baselines::{JosieIndex, OverlapIndex, QuadTreeIndex, RTreeIndex, Sts3Index};
use datagen::{generate_source, paper_sources, select_queries, GeneratorConfig, SourceScale};
use dits::{DatasetNode, DitsLocal, DitsLocalConfig};
use multisource::{FrameworkConfig, MultiSourceFramework};
use spatial::{CellSet, Grid, SpatialDataset};

/// The five competing index kinds of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// The paper's DITS-L.
    Dits,
    /// QuadTree baseline.
    QuadTree,
    /// R-tree baseline.
    RTree,
    /// STS3 inverted-index baseline.
    Sts3,
    /// Josie sorted inverted-index baseline.
    Josie,
}

impl IndexKind {
    /// All five kinds in the order the paper lists them.
    pub fn all() -> [IndexKind; 5] {
        [
            IndexKind::Dits,
            IndexKind::QuadTree,
            IndexKind::RTree,
            IndexKind::Sts3,
            IndexKind::Josie,
        ]
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            IndexKind::Dits => "DITS-L",
            IndexKind::QuadTree => "QuadTree",
            IndexKind::RTree => "Rtree",
            IndexKind::Sts3 => "STS3",
            IndexKind::Josie => "Josie",
        }
    }

    /// Builds an index of this kind over the given dataset nodes.
    pub fn build(&self, nodes: Vec<DatasetNode>, leaf_capacity: usize) -> Box<dyn OverlapIndex> {
        match self {
            IndexKind::Dits => Box::new(DitsLocal::build(nodes, DitsLocalConfig { leaf_capacity })),
            IndexKind::QuadTree => Box::new(QuadTreeIndex::build(nodes)),
            IndexKind::RTree => Box::new(RTreeIndex::build(nodes)),
            IndexKind::Sts3 => Box::new(Sts3Index::build(nodes)),
            IndexKind::Josie => Box::new(JosieIndex::build(nodes)),
        }
    }
}

/// The experiment environment: the generated sources plus query selection.
pub struct ExperimentEnv {
    /// `(portal name, datasets)` for each of the five sources.
    pub source_data: Vec<(String, Vec<SpatialDataset>)>,
    seed: u64,
}

impl ExperimentEnv {
    /// Generates the five sources at `1/divisor` of the paper's size with a
    /// fixed seed.
    pub fn new(divisor: u32, seed: u64) -> Self {
        let config = GeneratorConfig {
            scale: SourceScale::Custom(divisor),
            seed,
            max_points_per_dataset: Some(1_000),
        };
        let source_data = paper_sources()
            .iter()
            .map(|p| (p.name.to_string(), generate_source(p, &config)))
            .collect();
        Self { source_data, seed }
    }

    /// Total number of datasets across the five sources.
    pub fn dataset_count(&self) -> usize {
        self.source_data.iter().map(|(_, d)| d.len()).sum()
    }

    /// All raw datasets of one source by index (0 = Baidu … 4 = UMN).
    pub fn source(&self, idx: usize) -> &[SpatialDataset] {
        &self.source_data[idx].1
    }

    /// Name of one source.
    pub fn source_name(&self, idx: usize) -> &str {
        &self.source_data[idx].0
    }

    /// Grids one source's datasets at resolution θ into dataset nodes.
    pub fn dataset_nodes(&self, source_idx: usize, theta: u32) -> Vec<DatasetNode> {
        let grid = Grid::global(theta).expect("valid θ");
        self.source(source_idx)
            .iter()
            .filter_map(|d| DatasetNode::from_dataset(&grid, d).ok())
            .collect()
    }

    /// Selects `q` query datasets drawn from all sources and grids them at θ.
    pub fn query_cells(&self, q: usize, theta: u32) -> Vec<CellSet> {
        let grid = Grid::global(theta).expect("valid θ");
        self.query_datasets(q)
            .iter()
            .map(|d| CellSet::from_points(&grid, &d.points))
            .filter(|c| !c.is_empty())
            .collect()
    }

    /// Selects `q` query datasets (raw points) drawn from all sources.
    pub fn query_datasets(&self, q: usize) -> Vec<SpatialDataset> {
        let pool: Vec<SpatialDataset> = self
            .source_data
            .iter()
            .flat_map(|(_, d)| d.iter().cloned())
            .collect();
        select_queries(&pool, q, self.seed ^ 0x51)
    }

    /// Builds the full multi-source framework over the five sources.
    pub fn framework(&self, config: FrameworkConfig) -> MultiSourceFramework {
        MultiSourceFramework::build(&self.source_data, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn environment_generates_five_sources() {
        let env = ExperimentEnv::new(200, 0xBEEF);
        assert_eq!(env.source_data.len(), 5);
        assert!(env.dataset_count() > 0);
        assert!(env.source_name(3).contains("Transit"));
        assert!(!env.source(3).is_empty());
    }

    #[test]
    fn all_index_kinds_build_and_answer_queries() {
        let env = ExperimentEnv::new(200, 0xBEEF);
        let nodes = env.dataset_nodes(3, 10);
        assert!(!nodes.is_empty());
        let queries = env.query_cells(3, 10);
        assert!(!queries.is_empty());
        let mut reference: Option<Vec<usize>> = None;
        for kind in IndexKind::all() {
            let index = kind.build(nodes.clone(), 10);
            assert_eq!(index.dataset_count(), nodes.len(), "{}", kind.name());
            assert!(index.memory_bytes() > 0);
            let results = index.overlap_search(&queries[0], 10);
            let overlaps: Vec<usize> = results.iter().map(|r| r.overlap).collect();
            match &reference {
                None => reference = Some(overlaps),
                Some(expected) => assert_eq!(&overlaps, expected, "{} disagrees", kind.name()),
            }
        }
    }

    #[test]
    fn query_selection_is_stable() {
        let env = ExperimentEnv::new(200, 0xBEEF);
        let a = env.query_datasets(10);
        let b = env.query_datasets(10);
        assert_eq!(a.len(), 10);
        assert_eq!(a, b);
    }
}
