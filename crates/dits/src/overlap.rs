//! OverlapSearch: the exact branch-and-bound algorithm for OJSP
//! (Section VI-B, Algorithm 2).
//!
//! Given a query cell set, the algorithm descends DITS-L pruning every
//! subtree whose MBR does not intersect the query MBR.  Each surviving leaf
//! gets an upper bound on the intersection between the query and *any*
//! dataset it stores (Lemma 2).  Leaves are then verified in
//! descending upper-bound order; once `k` results are known, a leaf is
//! skipped when its upper bound, held by its smallest dataset id, cannot
//! beat the current `k`-th best `(overlap, id)` — so a tie goes to the
//! smaller id whatever the leaf order.  Verification of a leaf walks, once,
//! the key blocks its inverted index shares with the query, producing exact
//! intersection counts for every dataset in the leaf simultaneously.
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

use crate::bounds::leaf_overlap_upper_bound;
use crate::local::{DitsLocal, NodeIdx, NodeKind, TraversalLayout};
use crate::node::DatasetNode;
use crate::stats::SearchStats;
use serde::{Deserialize, Serialize};
use spatial::{CellSet, DatasetId, Mbr};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One OJSP result: a dataset and its exact overlap with the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverlapResult {
    /// The dataset's identifier.
    pub dataset: DatasetId,
    /// `|S_Q ∩ S_D|`: the number of shared cells.
    pub overlap: usize,
}

/// Runs OverlapSearch over a local index.
///
/// Returns up to `k` datasets with the largest positive overlap with
/// `query`, sorted by decreasing overlap (ties broken by dataset id for
/// determinism), together with the search statistics.
pub fn overlap_search(
    index: &DitsLocal,
    query: &CellSet,
    k: usize,
) -> (Vec<OverlapResult>, SearchStats) {
    let mut stats = SearchStats::new();
    if k == 0 || query.is_empty() {
        return (Vec::new(), stats);
    }
    let query_rect = match query.mbr_cell_space() {
        Some(m) => m,
        None => return (Vec::new(), stats),
    };

    // Phase 1 (BranchAndBound): collect candidate leaves with their bounds.
    // The descent runs over the cached structure-of-arrays layout; only
    // surviving leaves touch their arena payloads.
    let mut candidates: Vec<LeafCandidate> = Vec::new();
    let started = std::time::Instant::now();
    let layout = index.traversal_layout();
    collect_candidate_leaves(
        index,
        layout,
        layout.root(),
        &query_rect,
        query,
        &mut candidates,
        &mut stats,
    );
    crate::phase::add_traversal(started.elapsed());

    let started = std::time::Instant::now();
    let results = verify_candidates(index, query, k, candidates, &mut stats);
    crate::phase::add_verify(started.elapsed());
    (results, stats)
}

/// A candidate leaf awaiting verification: `(upper bound, leaf)` as produced
/// by phase 1 in recursion order.
type LeafCandidate = (usize, NodeIdx);

/// Phase 2 of Algorithm 2: sorts the candidate leaves by decreasing upper
/// bound, then verifies them exactly with a min-heap of the current top-k,
/// pruning every leaf that cannot beat the `k`-th best `(overlap, id)`.
///
/// A leaf whose upper bound ties the `k`-th best overlap is still verified
/// when its smallest id is below the `k`-th's: one of its datasets may tie
/// that overlap with a smaller id, which wins the tie.  So the answer is
/// the brute-force top-k whatever order the leaves are in.
fn verify_candidates(
    index: &DitsLocal,
    query: &CellSet,
    k: usize,
    mut candidates: Vec<LeafCandidate>,
    stats: &mut SearchStats,
) -> Vec<OverlapResult> {
    // Order leaves by decreasing upper bound so verification can stop early.
    candidates.sort_unstable_by_key(|&(ub, _)| Reverse(ub));

    let mut heap: BinaryHeap<Reverse<(usize, Reverse<DatasetId>)>> = BinaryHeap::new();
    for (ub, leaf) in candidates {
        let NodeKind::Leaf { inverted, entries } = &index.node(leaf).kind else {
            continue;
        };
        // The best key any dataset of this leaf could have: the upper bound,
        // held by the leaf's smallest id.
        let best = (
            ub,
            Reverse(inverted.ids().first().copied().unwrap_or(DatasetId::MAX)),
        );
        if heap.len() >= k && heap.peek().is_some_and(|Reverse(kth)| best <= *kth) {
            stats.leaves_pruned_by_bounds += 1;
            continue;
        }
        stats.leaves_verified += 1;
        // Exact verification: one pass over the key blocks the leaf shares
        // with the query yields the intersection count of every dataset in
        // the leaf that shares a cell with it.
        let counts = inverted.intersection_counts(query);
        stats.exact_computations += entries.len();
        for (dataset, overlap) in counts {
            stats.candidates += 1;
            let key = (overlap, Reverse(dataset));
            if heap.len() < k {
                heap.push(Reverse(key));
            } else if heap.peek().is_some_and(|Reverse(kth)| key > *kth) {
                heap.pop();
                heap.push(Reverse(key));
            }
        }
    }

    let mut results: Vec<OverlapResult> = heap
        .into_iter()
        .map(|Reverse((overlap, Reverse(dataset)))| OverlapResult { dataset, overlap })
        .collect();
    results.sort_unstable_by(|a, b| b.overlap.cmp(&a.overlap).then(a.dataset.cmp(&b.dataset)));
    results
}

/// Recursive descent of Algorithm 2's `BranchAndBound` over the layout
/// (`node_idx` is a layout index): prunes subtrees not intersecting the
/// query MBR and computes leaf bounds.  Candidates carry *arena* indices so
/// verification can reach the leaf payloads.
fn collect_candidate_leaves(
    index: &DitsLocal,
    layout: &TraversalLayout,
    node_idx: NodeIdx,
    query_rect: &Mbr,
    query: &CellSet,
    out: &mut Vec<LeafCandidate>,
    stats: &mut SearchStats,
) {
    stats.nodes_visited += 1;
    if !layout.rect(node_idx).intersects(query_rect) {
        stats.nodes_pruned += 1;
        return;
    }
    match layout.children(node_idx) {
        None => {
            let arena_idx = layout.arena_index(node_idx);
            if let NodeKind::Leaf { entries, inverted } = &index.node(arena_idx).kind {
                if entries.is_empty() {
                    return;
                }
                let ub = leaf_overlap_upper_bound(inverted, query);
                if ub == 0 {
                    // The leaf shares no cell with the query at all.
                    stats.leaves_pruned_by_bounds += 1;
                    return;
                }
                out.push((ub, arena_idx));
            }
        }
        Some((left, right)) => {
            collect_candidate_leaves(index, layout, left, query_rect, query, out, stats);
            collect_candidate_leaves(index, layout, right, query_rect, query, out, stats);
        }
    }
}

/// Brute-force OJSP over a list of dataset nodes: exact top-k by scanning
/// every dataset.  Used as the correctness oracle in tests and as the
/// no-index baseline in benchmarks.
pub fn overlap_search_bruteforce(
    datasets: &[DatasetNode],
    query: &CellSet,
    k: usize,
) -> Vec<OverlapResult> {
    let mut all: Vec<OverlapResult> = datasets
        .iter()
        .map(|d| OverlapResult {
            dataset: d.id,
            overlap: d.cells.intersection_size(query),
        })
        .filter(|r| r.overlap > 0)
        .collect();
    all.sort_unstable_by(|a, b| b.overlap.cmp(&a.overlap).then(a.dataset.cmp(&b.dataset)));
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::DitsLocalConfig;
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;
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

    fn random_nodes(n: usize, seed: u64) -> Vec<DatasetNode> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let cx = rng.random_range(0..200u32);
                let cy = rng.random_range(0..200u32);
                let len = rng.random_range(1..20usize);
                let coords: Vec<(u32, u32)> = (0..len)
                    .map(|_| {
                        (
                            (cx + rng.random_range(0..8)).min(255),
                            (cy + rng.random_range(0..8)).min(255),
                        )
                    })
                    .collect();
                node(i as DatasetId, &coords)
            })
            .collect()
    }

    #[test]
    fn finds_the_obvious_best_match() {
        let nodes = vec![
            node(0, &[(0, 0), (1, 0), (2, 0)]),
            node(1, &[(0, 0), (1, 0)]),
            node(2, &[(50, 50)]),
        ];
        let idx = DitsLocal::build(nodes, DitsLocalConfig { leaf_capacity: 2 });
        let query = cs(&[(0, 0), (1, 0), (2, 0), (3, 0)]);
        let (results, stats) = overlap_search(&idx, &query, 2);
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0],
            OverlapResult {
                dataset: 0,
                overlap: 3
            }
        );
        assert_eq!(
            results[1],
            OverlapResult {
                dataset: 1,
                overlap: 2
            }
        );
        assert!(stats.nodes_visited > 0);
    }

    #[test]
    fn zero_overlap_datasets_are_not_returned() {
        let nodes = vec![node(0, &[(0, 0)]), node(1, &[(10, 10)])];
        let idx = DitsLocal::build(nodes, DitsLocalConfig::default());
        let query = cs(&[(5, 5)]);
        let (results, _) = overlap_search(&idx, &query, 5);
        assert!(results.is_empty());
    }

    #[test]
    fn k_zero_or_empty_query_returns_nothing() {
        let nodes = vec![node(0, &[(0, 0)])];
        let idx = DitsLocal::build(nodes, DitsLocalConfig::default());
        assert!(overlap_search(&idx, &cs(&[(0, 0)]), 0).0.is_empty());
        assert!(overlap_search(&idx, &CellSet::new(), 3).0.is_empty());
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = DitsLocal::build(Vec::new(), DitsLocalConfig::default());
        let (results, _) = overlap_search(&idx, &cs(&[(0, 0)]), 3);
        assert!(results.is_empty());
    }

    #[test]
    fn matches_bruteforce_on_random_data() {
        let nodes = random_nodes(300, 42);
        let idx = DitsLocal::build(nodes.clone(), DitsLocalConfig { leaf_capacity: 10 });
        let query = cs(&[(100, 100), (101, 100), (102, 101), (103, 103), (104, 104)]);
        for k in [1usize, 5, 20, 100] {
            let (fast, _) = overlap_search(&idx, &query, k);
            let brute = overlap_search_bruteforce(&nodes, &query, k);
            assert_eq!(fast, brute, "mismatch at k={k}");
        }
    }

    #[test]
    fn results_are_sorted_and_bounded_by_k() {
        let nodes = random_nodes(150, 3);
        let idx = DitsLocal::build(nodes, DitsLocalConfig::default());
        let query = cs(&[(10, 10), (20, 20), (30, 30), (40, 40), (50, 50), (60, 60)]);
        let (results, _) = overlap_search(&idx, &query, 7);
        assert!(results.len() <= 7);
        for w in results.windows(2) {
            assert!(w[0].overlap >= w[1].overlap);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_matches_bruteforce(
            datasets in proptest::collection::vec(
                proptest::collection::vec((0u32..64, 0u32..64), 1..10), 1..60),
            query in proptest::collection::vec((0u32..64, 0u32..64), 1..15),
            k in 1usize..12,
            capacity in 1usize..8,
        ) {
            let nodes: Vec<DatasetNode> = datasets
                .iter()
                .enumerate()
                .map(|(i, c)| node(i as DatasetId, c))
                .collect();
            let idx = DitsLocal::build(nodes.clone(), DitsLocalConfig { leaf_capacity: capacity });
            let q = cs(&query);
            let (fast, _) = overlap_search(&idx, &q, k);
            let brute = overlap_search_bruteforce(&nodes, &q, k);
            // Ids as well as overlaps: a tie goes to the smaller id.
            prop_assert_eq!(fast, brute);
        }

        #[test]
        fn prop_insertion_order_does_not_pick_the_tied_id(
            datasets in proptest::collection::vec(
                proptest::collection::vec((0u32..16, 0u32..16), 1..6), 2..40),
            query in proptest::collection::vec((0u32..16, 0u32..16), 1..10),
            k in 1usize..6,
            capacity in 2usize..5,
        ) {
            // Small cell sets on a 16×16 grid, so many datasets tie on
            // overlap and land in different leaves in the two orders.
            let nodes: Vec<DatasetNode> = datasets
                .iter()
                .enumerate()
                .map(|(i, c)| node(i as DatasetId, c))
                .collect();
            let config = DitsLocalConfig { leaf_capacity: capacity };
            let mut forward = DitsLocal::build(Vec::new(), config);
            let mut backward = DitsLocal::build(Vec::new(), config);
            for n in &nodes {
                forward.insert(n.clone());
            }
            for n in nodes.iter().rev() {
                backward.insert(n.clone());
            }
            let q = cs(&query);
            let (a, _) = overlap_search(&forward, &q, k);
            let (b, _) = overlap_search(&backward, &q, k);
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(a, overlap_search_bruteforce(&nodes, &q, k));
        }
    }

    #[test]
    fn a_leaf_whose_bound_ties_the_kth_overlap_is_verified_for_a_smaller_id() {
        // Two leaves of two: {5, 6} bounds the query at 3 cells and is
        // verified first, making (2, D5) the best; {1, 7} bounds it at 2,
        // a tie, but holds D1 with overlap 2, which wins the tie.
        let nodes = vec![
            node(5, &[(0, 0), (1, 0)]),
            node(6, &[(3, 0)]),
            node(1, &[(100, 0), (101, 0)]),
            node(7, &[(110, 0)]),
        ];
        let query = cs(&[(0, 0), (1, 0), (3, 0), (100, 0), (101, 0)]);
        let expected = vec![OverlapResult {
            dataset: 1,
            overlap: 2,
        }];
        let idx = DitsLocal::build(nodes.clone(), DitsLocalConfig { leaf_capacity: 2 });
        assert_eq!(idx.leaves().len(), 2);
        assert_eq!(overlap_search(&idx, &query, 1).0, expected);
        assert_eq!(overlap_search_bruteforce(&nodes, &query, 1), expected);
    }
}
