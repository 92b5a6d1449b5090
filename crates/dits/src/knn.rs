//! Nearest-dataset queries over DITS-L.
//!
//! The paper's two search problems (OJSP / CJSP) are the headline API, but a
//! dataset-search service built on the same index naturally also answers
//! "which datasets are *closest* to my query region?" (k-nearest datasets by
//! the cell-based dataset distance of Definition 6).  [`nearest_datasets`]
//! is best-first (branch-and-bound) k-NN over the tree: it expands nodes in
//! order of their Lemma 4 lower distance bound and stops once the bound
//! exceeds the current k-th best exact distance.  "Which datasets lie within
//! δ of it?" is the δ-range walk of CoverageSearch,
//! [`find_connect_set`](crate::coverage::find_connect_set), whose brute-force
//! proptest lives beside it.
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

use crate::bounds::node_distance_bounds;
use crate::local::{DitsLocal, NodeIdx, NodeKind};
use crate::node::NodeGeometry;
use crate::stats::SearchStats;
use serde::{Deserialize, Serialize};
use spatial::distance::{dataset_distance, dataset_distance_bounded};
use spatial::{CellSet, DatasetId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// One neighbour: a dataset and its exact cell-based distance to the query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Neighbor {
    /// The dataset's identifier.
    pub dataset: DatasetId,
    /// Exact dataset distance `dist(S_Q, S_D)` in cell units.
    pub distance: f64,
}

/// Heap entry for the best-first traversal, ordered by ascending lower bound.
struct Frontier {
    lower_bound: f64,
    node: NodeIdx,
}

impl PartialEq for Frontier {
    fn eq(&self, other: &Self) -> bool {
        self.lower_bound == other.lower_bound
    }
}
impl Eq for Frontier {}
impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the smallest bound pops first.
        other.lower_bound.total_cmp(&self.lower_bound)
    }
}

/// Finds the `k` datasets with the smallest cell-based distance to the query,
/// sorted by ascending distance (ties broken by dataset id).
///
/// Datasets overlapping the query have distance 0 and therefore rank first —
/// k-NN is a strict generalisation of "is anything joinable nearby?".
///
/// Verification is *bounded*: each candidate's exact distance is computed
/// with the current k-th best distance as the kernel's cutoff
/// ([`dataset_distance_bounded`]), so far candidates abandon after the
/// box-bound checks, whose number adds up in `SearchStats::bound_tests`.  The answer is the brute-force one, ids included —
/// candidates whose bounded distance exceeds the cutoff could never enter
/// the result, and candidates at exactly the cutoff are computed exactly,
/// preserving tie-breaks (proptested against
/// [`nearest_datasets_bruteforce`]).
pub fn nearest_datasets(
    index: &DitsLocal,
    query: &CellSet,
    k: usize,
) -> (Vec<Neighbor>, SearchStats) {
    let mut stats = SearchStats::new();
    if k == 0 || query.is_empty() || index.dataset_count() == 0 {
        return (Vec::new(), stats);
    }
    let Some(rect) = query.mbr_cell_space() else {
        return (Vec::new(), stats);
    };
    let query_geometry = NodeGeometry::from_mbr(rect);

    // Best-first search interleaves the two phases, so the phase clock is
    // charged by difference: exact distance computations are timed directly
    // (verify), everything else — node expansion, bound evaluation, the
    // final sort — is traversal.
    let started = Instant::now();
    let mut verify_time = Duration::ZERO;

    // Results kept as a max-heap on distance so the worst of the current
    // top-k is peekable in O(1).  The descent runs over the cached
    // structure-of-arrays layout: child and entry bound checks stride over
    // contiguous geometry arrays, and a dataset's cells are only touched
    // when it survives its bound.
    let layout = index.traversal_layout();
    let mut results: BinaryHeap<ResultEntry> = BinaryHeap::new();
    let mut frontier: BinaryHeap<Frontier> = BinaryHeap::new();
    frontier.push(Frontier {
        lower_bound: 0.0,
        node: layout.root(),
    });

    while let Some(Frontier { lower_bound, node }) = frontier.pop() {
        // Everything still on the frontier is at least `lower_bound` away; if
        // the current k-th best is closer, the search is complete.
        if results.len() >= k {
            let worst = results.peek().map(|r| r.distance).unwrap_or(f64::INFINITY);
            if lower_bound > worst {
                stats.nodes_pruned += 1;
                break;
            }
        }
        stats.nodes_visited += 1;
        match layout.children(node) {
            Some((left, right)) => {
                for child in [left, right] {
                    let (lb, _) = node_distance_bounds(layout.geometry(child), &query_geometry);
                    frontier.push(Frontier {
                        lower_bound: lb,
                        node: child,
                    });
                }
            }
            None => {
                if let NodeKind::Leaf { entries, .. } = &index.node(layout.arena_index(node)).kind {
                    let base = layout.entry_range(node).start;
                    for (offset, entry) in entries.iter().enumerate() {
                        let (lb, _) = node_distance_bounds(
                            layout.entry_geometry(base + offset),
                            &query_geometry,
                        );
                        // The k-th best doubles as the per-entry prune
                        // threshold and as the cutoff of the bounded
                        // verification.
                        let worst = if results.len() >= k {
                            results.peek().map(|r| r.distance).unwrap_or(f64::INFINITY)
                        } else {
                            f64::INFINITY
                        };
                        if lb > worst {
                            continue;
                        }
                        stats.exact_computations += 1;
                        let verify_started = Instant::now();
                        let (distance, bound_tests) =
                            dataset_distance_bounded(query, &entry.cells, worst);
                        verify_time += verify_started.elapsed();
                        stats.bound_tests += bound_tests;
                        let entry = ResultEntry {
                            distance,
                            dataset: entry.id,
                        };
                        if results.len() < k {
                            results.push(entry);
                        } else if let Some(worst) = results.peek() {
                            if entry.distance < worst.distance
                                || (entry.distance == worst.distance
                                    && entry.dataset < worst.dataset)
                            {
                                results.pop();
                                results.push(entry);
                            }
                        }
                    }
                }
            }
        }
    }

    let mut out: Vec<Neighbor> = results
        .into_iter()
        .map(|r| Neighbor {
            dataset: r.dataset,
            distance: r.distance,
        })
        .collect();
    out.sort_unstable_by(|a, b| {
        a.distance
            .total_cmp(&b.distance)
            .then(a.dataset.cmp(&b.dataset))
    });
    crate::phase::add_verify(verify_time);
    crate::phase::add_traversal(started.elapsed().saturating_sub(verify_time));
    (out, stats)
}

/// Max-heap entry for the running top-k (largest distance on top).
struct ResultEntry {
    distance: f64,
    dataset: DatasetId,
}

impl PartialEq for ResultEntry {
    fn eq(&self, other: &Self) -> bool {
        self.distance == other.distance && self.dataset == other.dataset
    }
}
impl Eq for ResultEntry {}
impl PartialOrd for ResultEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ResultEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.distance
            .total_cmp(&other.distance)
            .then(self.dataset.cmp(&other.dataset))
    }
}

/// Brute-force k-NN over dataset nodes: the correctness oracle for tests.
pub fn nearest_datasets_bruteforce(
    datasets: &[crate::node::DatasetNode],
    query: &CellSet,
    k: usize,
) -> Vec<Neighbor> {
    let mut all: Vec<Neighbor> = datasets
        .iter()
        .map(|d| Neighbor {
            dataset: d.id,
            distance: dataset_distance(query, &d.cells),
        })
        .collect();
    all.sort_unstable_by(|a, b| {
        a.distance
            .total_cmp(&b.distance)
            .then(a.dataset.cmp(&b.dataset))
    });
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::DitsLocalConfig;
    use crate::node::DatasetNode;
    use proptest::prelude::*;
    use spatial::zorder::cell_id;

    fn node(id: DatasetId, coords: &[(u32, u32)]) -> DatasetNode {
        DatasetNode::from_cell_set(
            id,
            CellSet::from_cells(coords.iter().map(|&(x, y)| cell_id(x, y))),
        )
        .unwrap()
    }

    fn cs(coords: &[(u32, u32)]) -> CellSet {
        CellSet::from_cells(coords.iter().map(|&(x, y)| cell_id(x, y)))
    }

    #[test]
    fn nearest_finds_the_closest_datasets_in_order() {
        let nodes = vec![
            node(0, &[(1, 0)]),   // distance 1 from (0,0)
            node(1, &[(3, 0)]),   // distance 3
            node(2, &[(0, 0)]),   // distance 0 (overlaps)
            node(3, &[(10, 10)]), // far
        ];
        let idx = DitsLocal::build(nodes, DitsLocalConfig { leaf_capacity: 2 });
        let query = cs(&[(0, 0)]);
        let (neighbors, stats) = nearest_datasets(&idx, &query, 3);
        assert_eq!(neighbors.len(), 3);
        assert_eq!(neighbors[0].dataset, 2);
        assert_eq!(neighbors[0].distance, 0.0);
        assert_eq!(neighbors[1].dataset, 0);
        assert_eq!(neighbors[1].distance, 1.0);
        assert_eq!(neighbors[2].dataset, 1);
        assert!(stats.nodes_visited > 0);
    }

    #[test]
    fn nearest_handles_degenerate_inputs() {
        let idx = DitsLocal::build(Vec::new(), DitsLocalConfig::default());
        assert!(nearest_datasets(&idx, &cs(&[(0, 0)]), 3).0.is_empty());
        let idx = DitsLocal::build(vec![node(0, &[(0, 0)])], DitsLocalConfig::default());
        assert!(nearest_datasets(&idx, &CellSet::new(), 3).0.is_empty());
        assert!(nearest_datasets(&idx, &cs(&[(0, 0)]), 0).0.is_empty());
    }

    #[test]
    fn k_larger_than_corpus_returns_everything() {
        let nodes: Vec<DatasetNode> = (0..5).map(|i| node(i, &[(i * 2, 0)])).collect();
        let idx = DitsLocal::build(nodes, DitsLocalConfig::default());
        let (neighbors, _) = nearest_datasets(&idx, &cs(&[(0, 0)]), 50);
        assert_eq!(neighbors.len(), 5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_knn_matches_bruteforce(
            datasets in proptest::collection::vec(
                proptest::collection::vec((0u32..48, 0u32..48), 1..8), 1..40),
            query in proptest::collection::vec((0u32..48, 0u32..48), 1..8),
            k in 1usize..8,
            capacity in 1usize..6,
        ) {
            let nodes: Vec<DatasetNode> = datasets
                .iter()
                .enumerate()
                .map(|(i, c)| node(i as DatasetId, c))
                .collect();
            let idx = DitsLocal::build(nodes.clone(), DitsLocalConfig { leaf_capacity: capacity });
            let q = cs(&query);
            let (fast, _) = nearest_datasets(&idx, &q, k);
            let brute = nearest_datasets_bruteforce(&nodes, &q, k);
            // Distances must match position by position (ids may differ on
            // exact ties at the cut-off).
            let fast_d: Vec<f64> = fast.iter().map(|n| n.distance).collect();
            let brute_d: Vec<f64> = brute.iter().map(|n| n.distance).collect();
            prop_assert_eq!(fast_d.len(), brute_d.len());
            for (f, b) in fast_d.iter().zip(brute_d.iter()) {
                prop_assert!((f - b).abs() < 1e-9, "fast {f} != brute {b}");
            }
        }

        #[test]
        fn prop_bounded_knn_is_byte_identical_to_unbounded_oracle(
            datasets in proptest::collection::vec(
                proptest::collection::vec((0u32..48, 0u32..48), 1..8), 1..40),
            query in proptest::collection::vec((0u32..48, 0u32..48), 1..8),
            k in 1usize..8,
            capacity in 1usize..6,
        ) {
            let nodes: Vec<DatasetNode> = datasets
                .iter()
                .enumerate()
                .map(|(i, c)| node(i as DatasetId, c))
                .collect();
            let idx = DitsLocal::build(nodes.clone(), DitsLocalConfig { leaf_capacity: capacity });
            let q = cs(&query);
            prop_assert_eq!(
                nearest_datasets(&idx, &q, k).0,
                nearest_datasets_bruteforce(&nodes, &q, k)
            );
        }

        #[test]
        fn prop_bounded_knn_preserves_ties(
            picks in proptest::collection::vec(0usize..6, 1..40),
            query in proptest::collection::vec((0u32..24, 0u32..24), 1..6),
            k in 1usize..12,
            capacity in 1usize..6,
        ) {
            // Datasets drawn from a pool of six shapes, so exact distance
            // ties (including ties at the k-th position) are the norm rather
            // than the exception; the cutoff must not lose the id tie-break.
            let pool: [&[(u32, u32)]; 6] = [
                &[(0, 0), (1, 1)],
                &[(0, 0), (1, 1)],
                &[(10, 10)],
                &[(10, 10)],
                &[(5, 0), (5, 1)],
                &[(20, 20), (21, 21)],
            ];
            let nodes: Vec<DatasetNode> = picks
                .iter()
                .enumerate()
                .map(|(i, &p)| node(i as DatasetId, pool[p]))
                .collect();
            let idx = DitsLocal::build(nodes.clone(), DitsLocalConfig { leaf_capacity: capacity });
            let q = cs(&query);
            prop_assert_eq!(
                nearest_datasets(&idx, &q, k).0,
                nearest_datasets_bruteforce(&nodes, &q, k)
            );
        }
    }
}
