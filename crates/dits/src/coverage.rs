//! CoverageSearch: the greedy approximation algorithm for CJSP
//! (Section VI-C, Algorithm 3).
//!
//! CJSP asks for at most `k` datasets maximising `|S_Q ∪ (∪ S_Di)|` under the
//! constraint that the result set together with the query satisfies spatial
//! connectivity.  The problem is NP-hard (Lemma 1), so the paper proposes a
//! greedy strategy: in each of `k` iterations, find all datasets *directly
//! connected* to the merged result obtained so far (`FindConnectSet`, pruned
//! with Lemma 4's distance bounds over DITS-L), and add the one with the
//! largest marginal gain (Equation 3).  Merging the running result into a
//! single node means each iteration performs one tree search instead of one
//! per already-selected dataset, which is the difference between
//! CoverageSearch and the SG+DITS baseline.

use crate::bounds::node_distance_bounds;
use crate::local::{DitsLocal, NodeIdx, NodeKind, TraversalLayout};
use crate::node::{DatasetNode, NodeGeometry};
use crate::stats::SearchStats;
use serde::{Deserialize, Serialize};
use spatial::distance::NeighborProbe;
use spatial::{CellSet, DatasetId};
use std::collections::HashSet;

/// Configuration of a coverage search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoverageConfig {
    /// Maximum number of result datasets `k`.
    pub k: usize,
    /// Connectivity threshold δ (in cell units).
    pub delta: f64,
    /// When `true` (the default and the paper's CoverageSearch), the running
    /// result is merged into a single query node so each iteration performs
    /// one connectivity search.  When `false` the algorithm behaves like the
    /// SG+DITS baseline: one connectivity search per already-selected
    /// dataset per iteration.
    pub merge_results: bool,
}

impl CoverageConfig {
    /// Convenience constructor with merging enabled.
    pub fn new(k: usize, delta: f64) -> Self {
        Self {
            k,
            delta,
            merge_results: true,
        }
    }
}

/// Result of a coverage search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverageResult {
    /// Selected datasets in the order the greedy algorithm picked them.
    pub datasets: Vec<DatasetId>,
    /// Total coverage `|S_Q ∪ (∪ S_Di)|` after all selections.
    pub coverage: usize,
    /// Coverage of the query alone, for reference.
    pub query_coverage: usize,
    /// Per-iteration marginal gains.
    pub gains: Vec<usize>,
}

/// Runs CoverageSearch (Algorithm 3) over a local index.
pub fn coverage_search(
    index: &DitsLocal,
    query: &CellSet,
    config: CoverageConfig,
) -> (CoverageResult, SearchStats) {
    let mut stats = SearchStats::new();
    let query_coverage = query.len();
    let mut result = CoverageResult {
        datasets: Vec::new(),
        coverage: query_coverage,
        query_coverage,
        gains: Vec::new(),
    };
    if config.k == 0 || query.is_empty() || index.dataset_count() == 0 {
        return (result, stats);
    }

    // The merged node N_M starts as the query node.
    let mut merged_cells = query.clone();
    let mut merged_geometry = match merged_cells.mbr_cell_space() {
        Some(m) => NodeGeometry::from_mbr(m),
        None => return (result, stats),
    };
    let mut selected: HashSet<DatasetId> = HashSet::new();
    // When merging is disabled (SG+DITS mode) we keep the individual result
    // members and search from each of them every iteration, with the probe of
    // every member pre-built once.
    let mut members: Vec<(NodeGeometry, NeighborProbe)> =
        vec![(merged_geometry, NeighborProbe::new(&merged_cells))];

    while result.datasets.len() < config.k {
        // FindConnectSet: all dataset nodes directly connected to the merged
        // result (or to any member when merging is off).
        let mut connected: Vec<&DatasetNode> = Vec::new();
        let mut seen: HashSet<DatasetId> = HashSet::new();
        let started = std::time::Instant::now();
        let layout = index.traversal_layout();
        if config.merge_results {
            let probe = NeighborProbe::new(&merged_cells);
            find_connect_set(
                index,
                layout,
                layout.root(),
                &merged_geometry,
                &probe,
                config.delta,
                &mut connected,
                &mut seen,
                &mut stats,
            );
        } else {
            for (geom, probe) in &members {
                find_connect_set(
                    index,
                    layout,
                    layout.root(),
                    geom,
                    probe,
                    config.delta,
                    &mut connected,
                    &mut seen,
                    &mut stats,
                );
            }
        }
        crate::phase::add_traversal(started.elapsed());

        let started = std::time::Instant::now();
        let pick = greedy_pick(&connected, &selected, &merged_cells, &mut stats);
        crate::phase::add_verify(started.elapsed());
        let Some((best, tau)) = pick else {
            break;
        };
        if tau <= 0 {
            // No remaining connected dataset adds any new cell.
            break;
        }
        selected.insert(best.id);
        result.datasets.push(best.id);
        result.gains.push(tau as usize);
        merged_cells.union_in_place(&best.cells);
        merged_geometry = merged_geometry.union(&best.geometry);
        result.coverage = merged_cells.len();
        if !config.merge_results {
            members.push((best.geometry, NeighborProbe::new(&best.cells)));
        }
    }

    (result, stats)
}

/// The greedy choice of Algorithm 3: the connected dataset with the maximum
/// marginal gain, with the paper's size filter `|N_D.S_D| ≥ τ` as a cheap
/// pre-test (a dataset with fewer cells than the best gain found so far can
/// never match it).  Ties are broken by the smaller dataset id so every greedy variant
/// (CoverageSearch, SG+DITS, SG) makes identical choices and stays
/// comparable.  Returns the winner and its gain `τ`; the caller stops when
/// the gain is not positive.
fn greedy_pick<'a>(
    connected: &[&'a DatasetNode],
    selected: &HashSet<DatasetId>,
    merged_cells: &CellSet,
    stats: &mut SearchStats,
) -> Option<(&'a DatasetNode, isize)> {
    let mut tau: isize = -1;
    let mut best: Option<&DatasetNode> = None;
    for &node in connected {
        if selected.contains(&node.id) {
            continue;
        }
        if (node.cells.len() as isize) < tau {
            continue;
        }
        stats.exact_computations += 1;
        let gain = node.cells.marginal_gain(merged_cells) as isize;
        let wins = match best {
            None => true,
            Some(current) => gain > tau || (gain == tau && node.id < current.id),
        };
        if wins {
            tau = gain;
            best = Some(node);
        }
    }
    best.map(|b| (b, tau))
}

/// `FindConnectSet` of Algorithm 3, descending the cached layout
/// (`node_idx` is a layout index): collects every dataset node whose
/// cell-based distance to the probe is at most δ, pruning subtrees with the
/// Lemma 4 bounds.  Per-entry bound checks read the layout's flat entry
/// geometry array; a dataset's cells are only touched when its bounds are
/// inconclusive.
#[allow(clippy::too_many_arguments)]
fn find_connect_set<'a>(
    index: &'a DitsLocal,
    layout: &TraversalLayout,
    node_idx: NodeIdx,
    probe_geometry: &NodeGeometry,
    probe: &NeighborProbe,
    delta: f64,
    out: &mut Vec<&'a DatasetNode>,
    seen: &mut HashSet<DatasetId>,
    stats: &mut SearchStats,
) {
    stats.nodes_visited += 1;
    let (lb, ub) = node_distance_bounds(layout.geometry(node_idx), probe_geometry);
    if ub <= delta {
        // Every dataset below this node is guaranteed to be connected.
        collect_all(index, layout.arena_index(node_idx), out, seen);
        return;
    }
    if lb > delta {
        stats.nodes_pruned += 1;
        return;
    }
    match layout.children(node_idx) {
        None => {
            let arena_idx = layout.arena_index(node_idx);
            if let NodeKind::Leaf { entries, .. } = &index.node(arena_idx).kind {
                let base = layout.entry_range(node_idx).start;
                for (offset, entry) in entries.iter().enumerate() {
                    if seen.contains(&layout.entry_id(base + offset)) {
                        // Already found connected through an earlier member —
                        // skip the (potentially expensive) exact distance test.
                        continue;
                    }
                    let (elb, eub) =
                        node_distance_bounds(layout.entry_geometry(base + offset), probe_geometry);
                    let connected = if eub <= delta {
                        true
                    } else if elb > delta {
                        false
                    } else {
                        stats.exact_computations += 1;
                        probe.within(&entry.cells, delta)
                    };
                    if connected && seen.insert(entry.id) {
                        out.push(entry);
                        stats.candidates += 1;
                    }
                }
            }
        }
        Some((left, right)) => {
            find_connect_set(
                index,
                layout,
                left,
                probe_geometry,
                probe,
                delta,
                out,
                seen,
                stats,
            );
            find_connect_set(
                index,
                layout,
                right,
                probe_geometry,
                probe,
                delta,
                out,
                seen,
                stats,
            );
        }
    }
}

/// Adds every dataset node in the subtree to the output.
fn collect_all<'a>(
    index: &'a DitsLocal,
    node_idx: NodeIdx,
    out: &mut Vec<&'a DatasetNode>,
    seen: &mut HashSet<DatasetId>,
) {
    match &index.node(node_idx).kind {
        NodeKind::Leaf { entries, .. } => {
            for e in entries {
                if seen.insert(e.id) {
                    out.push(e);
                }
            }
        }
        NodeKind::Internal { left, right } => {
            collect_all(index, *left, out, seen);
            collect_all(index, *right, out, seen);
        }
    }
}

/// Exhaustive-search CJSP solver for tiny instances: tries every subset of at
/// most `k` datasets that satisfies spatial connectivity with the query and
/// returns the best coverage.  Exponential — only for tests validating the
/// greedy algorithm's approximation quality.
pub fn coverage_search_exhaustive(
    datasets: &[DatasetNode],
    query: &CellSet,
    k: usize,
    delta: f64,
) -> usize {
    use spatial::satisfies_spatial_connectivity;
    let n = datasets.len();
    assert!(n <= 16, "exhaustive CJSP only supports tiny instances");
    let mut best = query.len();
    for mask in 0u32..(1 << n) {
        if (mask.count_ones() as usize) > k {
            continue;
        }
        let chosen: Vec<&DatasetNode> = datasets
            .iter()
            .take(n)
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, d)| d)
            .collect();
        let mut sets: Vec<&CellSet> = chosen.iter().map(|d| &d.cells).collect();
        sets.push(query);
        if !satisfies_spatial_connectivity(&sets, delta) {
            continue;
        }
        let mut union = query.clone();
        for d in &chosen {
            union.union_in_place(&d.cells);
        }
        best = best.max(union.len());
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::DitsLocalConfig;
    use proptest::prelude::*;
    use spatial::satisfies_spatial_connectivity;
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
    fn selects_connected_chain() {
        // Query at x=0; datasets form a chain 0-1-2 going right plus a far
        // island 3 that is never connected.
        let nodes = vec![
            node(0, &[(1, 0), (2, 0)]),
            node(1, &[(3, 0), (4, 0)]),
            node(2, &[(5, 0), (6, 0)]),
            node(3, &[(50, 50), (51, 50)]),
        ];
        let idx = DitsLocal::build(nodes, DitsLocalConfig { leaf_capacity: 2 });
        let query = cs(&[(0, 0)]);
        let (result, _) = coverage_search(&idx, &query, CoverageConfig::new(3, 1.0));
        assert_eq!(result.datasets, vec![0, 1, 2]);
        assert_eq!(result.coverage, 7); // query 1 cell + 6 dataset cells
        assert_eq!(result.gains, vec![2, 2, 2]);
    }

    #[test]
    fn far_island_reached_only_with_large_delta() {
        let nodes = vec![node(0, &[(10, 10), (11, 10)])];
        let idx = DitsLocal::build(nodes, DitsLocalConfig::default());
        let query = cs(&[(0, 0)]);
        let (tight, _) = coverage_search(&idx, &query, CoverageConfig::new(1, 2.0));
        assert!(tight.datasets.is_empty());
        assert_eq!(tight.coverage, 1);
        let (loose, _) = coverage_search(&idx, &query, CoverageConfig::new(1, 20.0));
        assert_eq!(loose.datasets, vec![0]);
        assert_eq!(loose.coverage, 3);
    }

    #[test]
    fn greedy_prefers_larger_marginal_gain() {
        // Both datasets are connected; dataset 1 covers more new cells.
        let nodes = vec![
            node(0, &[(1, 1), (2, 1)]),
            node(1, &[(1, 2), (2, 2), (3, 2), (4, 2)]),
        ];
        let idx = DitsLocal::build(nodes, DitsLocalConfig::default());
        let query = cs(&[(0, 1)]);
        let (result, _) = coverage_search(&idx, &query, CoverageConfig::new(1, 2.0));
        assert_eq!(result.datasets, vec![1]);
        assert_eq!(result.gains, vec![4]);
    }

    #[test]
    fn results_satisfy_spatial_connectivity() {
        let nodes: Vec<DatasetNode> = (0..40)
            .map(|i| {
                let x = (i % 8) * 3;
                let y = (i / 8) * 3;
                node(i, &[(x, y), (x + 1, y)])
            })
            .collect();
        let idx = DitsLocal::build(nodes.clone(), DitsLocalConfig { leaf_capacity: 4 });
        let query = cs(&[(0, 0), (1, 1)]);
        let (result, _) = coverage_search(&idx, &query, CoverageConfig::new(6, 3.0));
        assert!(!result.datasets.is_empty());
        let chosen: Vec<&CellSet> = nodes
            .iter()
            .filter(|n| result.datasets.contains(&n.id))
            .map(|n| &n.cells)
            .collect();
        let mut sets = chosen.clone();
        sets.push(&query);
        assert!(satisfies_spatial_connectivity(&sets, 3.0));
    }

    #[test]
    fn merge_and_no_merge_modes_agree_on_coverage_quality() {
        let nodes: Vec<DatasetNode> = (0..30)
            .map(|i| {
                let x = (i % 6) * 2;
                let y = (i / 6) * 2;
                node(i, &[(x, y), (x + 1, y), (x, y + 1)])
            })
            .collect();
        let idx = DitsLocal::build(nodes, DitsLocalConfig { leaf_capacity: 4 });
        let query = cs(&[(0, 0)]);
        let merged = coverage_search(
            &idx,
            &query,
            CoverageConfig {
                k: 5,
                delta: 2.5,
                merge_results: true,
            },
        )
        .0;
        let unmerged = coverage_search(
            &idx,
            &query,
            CoverageConfig {
                k: 5,
                delta: 2.5,
                merge_results: false,
            },
        )
        .0;
        // Both are greedy over the same candidate space; coverage must match.
        assert_eq!(merged.coverage, unmerged.coverage);
    }

    #[test]
    fn respects_k_budget_and_stops_when_no_gain() {
        let nodes = vec![node(0, &[(1, 0)]), node(1, &[(1, 0)])];
        let idx = DitsLocal::build(nodes, DitsLocalConfig::default());
        let query = cs(&[(0, 0), (1, 0)]);
        // Both datasets are fully covered by the query: no positive gain.
        let (result, _) = coverage_search(&idx, &query, CoverageConfig::new(2, 5.0));
        assert!(result.datasets.is_empty());
        assert_eq!(result.coverage, 2);
    }

    #[test]
    fn empty_inputs_are_handled() {
        let idx = DitsLocal::build(Vec::new(), DitsLocalConfig::default());
        let (r, _) = coverage_search(&idx, &cs(&[(0, 0)]), CoverageConfig::new(3, 1.0));
        assert!(r.datasets.is_empty());
        let nodes = vec![node(0, &[(0, 0)])];
        let idx = DitsLocal::build(nodes, DitsLocalConfig::default());
        let (r, _) = coverage_search(&idx, &CellSet::new(), CoverageConfig::new(3, 1.0));
        assert!(r.datasets.is_empty());
        let (r, _) = coverage_search(&idx, &cs(&[(0, 0)]), CoverageConfig::new(0, 1.0));
        assert!(r.datasets.is_empty());
    }

    #[test]
    fn greedy_achieves_good_fraction_of_optimum_on_small_instances() {
        // 10 datasets in a connected cluster around the query.
        let nodes: Vec<DatasetNode> = (0..10)
            .map(|i| {
                let x = i % 5;
                let y = i / 5;
                node(i, &[(x * 2, y * 2), (x * 2 + 1, y * 2), (x * 2, y * 2 + 1)])
            })
            .collect();
        let idx = DitsLocal::build(nodes.clone(), DitsLocalConfig { leaf_capacity: 3 });
        let query = cs(&[(0, 0)]);
        let k = 3;
        let delta = 3.0;
        let (greedy, _) = coverage_search(&idx, &query, CoverageConfig::new(k, delta));
        let optimum = coverage_search_exhaustive(&nodes, &query, k, delta);
        let bound = 1.0 - 1.0 / std::f64::consts::E;
        assert!(
            greedy.coverage as f64 >= bound * optimum as f64,
            "greedy {} below (1-1/e) of optimum {}",
            greedy.coverage,
            optimum
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_results_connected_and_within_k(
            datasets in proptest::collection::vec(
                proptest::collection::vec((0u32..24, 0u32..24), 1..6), 1..25),
            query in proptest::collection::vec((0u32..24, 0u32..24), 1..5),
            k in 1usize..6,
            delta in 1.0f64..6.0,
        ) {
            let nodes: Vec<DatasetNode> = datasets
                .iter()
                .enumerate()
                .map(|(i, c)| node(i as DatasetId, c))
                .collect();
            let idx = DitsLocal::build(nodes.clone(), DitsLocalConfig { leaf_capacity: 3 });
            let q = cs(&query);
            let (result, _) = coverage_search(&idx, &q, CoverageConfig::new(k, delta));
            prop_assert!(result.datasets.len() <= k);
            prop_assert!(result.coverage >= q.len());
            // Connectivity of the chosen sets together with the query.
            let chosen: Vec<&CellSet> = nodes
                .iter()
                .filter(|n| result.datasets.contains(&n.id))
                .map(|n| &n.cells)
                .collect();
            let mut sets = chosen.clone();
            sets.push(&q);
            prop_assert!(satisfies_spatial_connectivity(&sets, delta));
            // Coverage equals the union size of query + chosen datasets.
            let mut union = q.clone();
            for c in &chosen {
                union.union_in_place(c);
            }
            prop_assert_eq!(union.len(), result.coverage);
        }

        #[test]
        fn prop_greedy_within_bound_of_optimum(
            datasets in proptest::collection::vec(
                proptest::collection::vec((0u32..12, 0u32..12), 1..5), 1..9),
            k in 1usize..4,
        ) {
            let nodes: Vec<DatasetNode> = datasets
                .iter()
                .enumerate()
                .map(|(i, c)| node(i as DatasetId, c))
                .collect();
            let idx = DitsLocal::build(nodes.clone(), DitsLocalConfig { leaf_capacity: 3 });
            let q = cs(&[(0, 0), (1, 1)]);
            let delta = 4.0;
            let (greedy, _) = coverage_search(&idx, &q, CoverageConfig::new(k, delta));
            let optimum = coverage_search_exhaustive(&nodes, &q, k, delta);
            // The greedy solution is feasible, so it can never exceed the
            // exhaustive optimum, and it always covers at least the query.
            prop_assert!(greedy.coverage <= optimum,
                "greedy {} exceeds optimum {}", greedy.coverage, optimum);
            prop_assert!(greedy.coverage >= q.len());
            // With a budget of one the greedy choice (max marginal gain among
            // datasets directly connected to the query) is optimal whenever
            // the optimum is reachable in one step.
            if k == 1 && greedy.datasets.len() == 1 && optimum > q.len() {
                prop_assert!(greedy.coverage * 2 >= optimum,
                    "k=1 greedy {} far below optimum {}", greedy.coverage, optimum);
            }
        }
    }
}
