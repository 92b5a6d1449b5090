//! **DITS** — the DIstributed Tree-based Spatial index structure and the two
//! joinable-search algorithms built on it.
//!
//! This crate is the paper's primary contribution:
//!
//! * [`DatasetNode`] (Definition 12): a dataset wrapped with its MBR, pivot,
//!   radius and cell-based representation.
//! * [`DitsLocal`] (Section V-A, Algorithm 1): the per-data-source local
//!   index — a ball-tree-like binary tree over dataset nodes, built top-down
//!   by splitting on the widest dimension, whose leaves carry an inverted
//!   index from cell ID to the dataset nodes containing that cell.
//! * [`DitsGlobal`] (Section V-B): the data-center index over the root nodes
//!   of all local indexes, used to route queries to candidate sources.
//! * [`OverlapSearch`](overlap::overlap_search) (Section VI-B, Algorithm 2):
//!   an exact branch-and-bound algorithm for the Overlap Joinable Search
//!   Problem, driven by the per-leaf upper bound of Lemma 2.
//! * [`CoverageSearch`](coverage::coverage_search) (Section VI-C,
//!   Algorithm 3): a greedy `(1−1/e)`-style approximation for the NP-hard
//!   Coverage Joinable Search Problem: one Lemma 4 range walk
//!   ([`find_connect_set`]) and one greedy loop ([`greedy_cover`]), shared
//!   with the data center, the pricing variants and the SG+DITS baseline.
//! * [Index maintenance](update) (Appendix IX-C): insert / update / delete
//!   without rebuilding.
//! * [The block sketch](sketch): which 8×8-cell blocks of its grid a source
//!   holds data in — computed from its datasets when asked for, uploaded
//!   beside the root node, and (grown by every dataset the data center
//!   sends) what the data center filters an OJSP query by.

#![warn(missing_docs)]

pub mod bounds;
pub mod codec;
pub mod coverage;
pub mod global;
pub mod inverted;
pub mod knn;
pub mod local;
pub mod node;
pub mod overlap;
pub mod phase;
pub mod sketch;
pub mod stats;
pub mod update;

pub use coverage::{
    coverage_search, coverage_search_marked, find_connect_set, greedy_cover, CoverageConfig,
    CoverageResult,
};
pub use global::{DitsGlobal, SourceSummary};
pub use inverted::InvertedIndex;
pub use knn::{nearest_datasets, Neighbor};
pub use local::{DitsLocal, DitsLocalConfig, TraversalLayout};
pub use node::{DatasetNode, NodeGeometry};
pub use overlap::{overlap_search, OverlapResult};
pub use phase::{take_phase_timings, PhaseTimings};
pub use stats::{MaintenanceStats, SearchStats};

/// Prints how to replay a failing seeded case — `ReplayOnPanic("run_case",
/// seed)` names the function to call with the seed from a `#[test]`.  The
/// vendored proptest neither shrinks nor reports its inputs, so every input
/// of such a case derives from the one seed.  Test support, public so the
/// seeded suites of the crates built on this one share it.
#[derive(Debug)]
pub struct ReplayOnPanic(pub &'static str, pub u64);

impl Drop for ReplayOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "seeded case failed; replay it with `{}({})` from a #[test]",
                self.0, self.1
            );
        }
    }
}

#[cfg(test)]
mod thread_safety_tests {
    use super::*;
    use spatial::zorder::cell_id;
    use spatial::CellSet;

    /// The multi-source query engine shares indexes across worker threads;
    /// these assertions make that contract explicit at compile time.
    #[test]
    fn indexes_and_stats_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DitsLocal>();
        assert_send_sync::<DitsGlobal>();
        assert_send_sync::<DatasetNode>();
        assert_send_sync::<SearchStats>();
    }

    #[test]
    fn concurrent_searches_over_a_shared_index_agree() {
        let nodes: Vec<DatasetNode> = (0..60u32)
            .map(|i| {
                let base = (i % 10, i / 10);
                DatasetNode::from_cell_set(
                    i,
                    CellSet::from_cells([
                        cell_id(base.0 * 3, base.1 * 3),
                        cell_id(base.0 * 3 + 1, base.1 * 3),
                    ]),
                )
                .unwrap()
            })
            .collect();
        let index = DitsLocal::build(nodes, DitsLocalConfig { leaf_capacity: 4 });
        let query = CellSet::from_cells([cell_id(0, 0), cell_id(3, 0), cell_id(6, 3)]);
        let (expected, _) = overlap_search(&index, &query, 8);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        let (results, stats) = overlap_search(&index, &query, 8);
                        (results, stats)
                    })
                })
                .collect();
            for handle in handles {
                let (results, stats) = handle.join().unwrap();
                assert_eq!(results, expected);
                assert!(stats.nodes_visited > 0);
            }
        });
    }
}
