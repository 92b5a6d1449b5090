//! CoverageSearch: the greedy approximation algorithm for CJSP
//! (Section VI-C, Algorithm 3).
//!
//! CJSP asks for at most `k` datasets maximising `|S_Q ∪ (∪ S_Di)|` under the
//! constraint that the result set together with the query satisfies spatial
//! connectivity.  The problem is NP-hard (Lemma 1), so the paper proposes a
//! greedy strategy: in each of `k` iterations, find all datasets *directly
//! connected* to the result obtained so far (`FindConnectSet`, pruned with
//! Lemma 4's distance bounds over DITS-L), and add the one with the largest
//! marginal gain (Equation 3).
//!
//! Both pieces exist exactly once, here:
//!
//! * [`find_connect_set`] — the Lemma 4 walk for *one* probe set, appending
//!   to a connect set the caller carries; a dataset whose bounds leave the
//!   question open is settled by [`dataset_distance_within`], the two-level
//!   distance kernel every δ-test in the workspace calls.  Definition 6 is a
//!   minimum over cell pairs, so `dist(D, A ∪ B) ≤ δ ⇔ dist(D, A) ≤ δ ∨
//!   dist(D, B) ≤ δ`: the datasets connected to a growing result are the
//!   union of the datasets connected to its members, and only the newest
//!   member ever needs a walk.
//! * [`greedy_cover`] — the max-marginal-gain loop, generic over the
//!   candidate type, which asks a caller-supplied step to connect the newest
//!   member and keeps the connect set across iterations.
//!
//! [`coverage_search`] is that loop over that walk.  The data center's
//! aggregation runs the same loop over a linear scan of the sources' replies,
//! the `pricing` variants run the walk under their own objectives, and the
//! SG+DITS baseline (`baselines`) is the same loop with a step that forgets
//! the connect set and re-walks for every member each iteration.
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
use crate::local::{DitsLocal, NodeIdx, NodeKind, TraversalLayout};
use crate::node::{DatasetNode, NodeGeometry};
use crate::stats::SearchStats;
use serde::{Deserialize, Serialize};
use spatial::{dataset_distance_within, CellSet, DatasetId};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Configuration of a coverage search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoverageConfig {
    /// Maximum number of result datasets `k`.
    pub k: usize,
    /// Connectivity threshold δ (in cell units).
    pub delta: f64,
}

impl CoverageConfig {
    /// Convenience constructor.
    pub fn new(k: usize, delta: f64) -> Self {
        Self { k, delta }
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

/// Runs CoverageSearch (Algorithm 3) over a local index: [`greedy_cover`]
/// whose connect step is one [`find_connect_set`] walk — with the query
/// first, then with each selected dataset's own geometry and cells.
pub fn coverage_search(
    index: &DitsLocal,
    query: &CellSet,
    config: CoverageConfig,
) -> (CoverageResult, SearchStats) {
    let (result, _, stats) = coverage_search_marked(index, query, config);
    (result, stats)
}

/// [`coverage_search`], also reporting for each selected dataset, in pick
/// order, whether it entered the connect set on the query's own walk — that
/// is, whether it lies within δ of the query itself rather than only of an
/// earlier pick.  The walk learns this anyway; nothing more is searched.
pub fn coverage_search_marked(
    index: &DitsLocal,
    query: &CellSet,
    config: CoverageConfig,
) -> (CoverageResult, Vec<bool>, SearchStats) {
    let mut stats = SearchStats::new();
    let query_coverage = query.len();
    let mut result = CoverageResult {
        datasets: Vec::new(),
        coverage: query_coverage,
        query_coverage,
        gains: Vec::new(),
    };
    let Some(rect) = query.mbr_cell_space() else {
        return (result, Vec::new(), stats);
    };
    if index.dataset_count() == 0 {
        return (result, Vec::new(), stats);
    }
    let query_geometry = NodeGeometry::from_mbr(rect);
    let mut seen: HashSet<DatasetId> = HashSet::new();
    let mut query_connected: HashSet<DatasetId> = HashSet::new();
    (result.datasets, result.gains, result.coverage) = greedy_cover(
        query,
        config.k,
        &mut stats,
        |node: &&DatasetNode| (node.id, &node.cells),
        |newest, connected, stats| {
            let (geometry, cells) =
                newest.map_or((query_geometry, query), |node| (node.geometry, &node.cells));
            find_connect_set(
                index,
                &geometry,
                cells,
                config.delta,
                connected,
                &mut seen,
                stats,
            );
            if newest.is_none() {
                query_connected.clone_from(&seen);
            }
        },
    );
    let marks = result
        .datasets
        .iter()
        .map(|id| query_connected.contains(id))
        .collect();
    (result, marks, stats)
}

/// The greedy loop of Algorithm 3, generic over the candidate type `C` (a
/// dataset node at a source, a reply candidate at the data center).
///
/// Each iteration calls `connect(newest, connected, stats)` — `newest` is the
/// member selected last, `None` standing for the query — which appends the
/// candidates directly connected to that member and not yet in `connected`.
/// The connect set is kept across iterations and a selected candidate leaves
/// it for good, so `connect` must never append the same candidate twice.  (A
/// step may also clear the set and rebuild it for every member so far; the
/// SG+DITS baseline does.)
///
/// The pick is the connected candidate with the maximum marginal gain.  Ties
/// go to the smaller key `view` reports, so every greedy variant — here, at
/// the center, SG+DITS, SG — makes identical choices and stays comparable.
/// The paper's size filter `|S_D| ≥ τ` is a cheap pre-test, tie-aware: a
/// dataset's gain is at most its size, so one with fewer cells than the best
/// gain τ found so far can never beat it, nor can one with exactly τ cells
/// and a larger key.  The loop ends after `k` picks or when no connected
/// candidate adds a cell.
///
/// Returns the selected keys in pick order, their gains, and the final
/// coverage `|S_Q ∪ (∪ S_Di)|`.
pub fn greedy_cover<C, K: Ord>(
    query: &CellSet,
    k: usize,
    stats: &mut SearchStats,
    view: impl Fn(&C) -> (K, &CellSet),
    mut connect: impl FnMut(Option<&C>, &mut Vec<C>, &mut SearchStats),
) -> (Vec<K>, Vec<usize>, usize) {
    let mut covered = query.clone();
    let mut connected: Vec<C> = Vec::new();
    let mut newest: Option<C> = None;
    let mut selected = Vec::new();
    let mut gains = Vec::new();
    while selected.len() < k {
        connect(newest.as_ref(), &mut connected, stats);

        let started = Instant::now();
        // (position in `connected`, gain τ, key)
        let mut best: Option<(usize, usize, K)> = None;
        for (pos, candidate) in connected.iter().enumerate() {
            let (key, cells) = view(candidate);
            if best.as_ref().is_some_and(|(_, tau, best_key)| {
                cells.len() < *tau || (cells.len() == *tau && key > *best_key)
            }) {
                continue;
            }
            stats.exact_computations += 1;
            let gain = cells.marginal_gain(&covered);
            let wins = best
                .as_ref()
                .is_none_or(|(_, tau, best_key)| gain > *tau || (gain == *tau && key < *best_key));
            if wins {
                best = Some((pos, gain, key));
            }
        }
        crate::phase::add_verify(started.elapsed());

        let Some((pos, gain, key)) = best else { break };
        if gain == 0 {
            // No remaining connected candidate adds any new cell.
            break;
        }
        let member = connected.swap_remove(pos);
        covered.union_in_place(view(&member).1);
        selected.push(key);
        gains.push(gain);
        newest = Some(member);
    }
    (selected, gains, covered.len())
}

/// `FindConnectSet` of Algorithm 3 for one probe set: appends to
/// `connected` every dataset node of the index whose cell-based distance to
/// `probe` is at most δ and whose id is not yet in `seen`, pruning subtrees
/// with the Lemma 4 bounds against `geometry` (the probe's MBR geometry).
/// The exact test is [`dataset_distance_within`], the one δ-predicate every
/// CJSP site shares.
///
/// `connected` and `seen` are the caller's to carry: a greedy run passes the
/// same pair for every member it walks with, so a dataset found through an
/// earlier member is neither re-tested nor re-appended.  The descent runs
/// over the cached [`TraversalLayout`]; a dataset's cells are only touched
/// when its bounds are inconclusive.  Those exact tests are charged to the
/// *verify* phase, the rest of the walk to *traversal*.
pub fn find_connect_set<'a>(
    index: &'a DitsLocal,
    geometry: &NodeGeometry,
    probe: &CellSet,
    delta: f64,
    connected: &mut Vec<&'a DatasetNode>,
    seen: &mut HashSet<DatasetId>,
    stats: &mut SearchStats,
) {
    let started = Instant::now();
    let found_before = connected.len();
    let layout = index.traversal_layout();
    let mut walk = ConnectWalk {
        index,
        layout,
        geometry,
        probe,
        delta,
        connected,
        seen,
        stats,
        verify_time: Duration::ZERO,
    };
    walk.descend(layout.root());
    let verify_time = walk.verify_time;
    stats.candidates += connected.len() - found_before;
    crate::phase::add_verify(verify_time);
    crate::phase::add_traversal(started.elapsed().saturating_sub(verify_time));
}

/// What one [`find_connect_set`] walk carries down the tree.
struct ConnectWalk<'a, 'w> {
    index: &'a DitsLocal,
    layout: &'w TraversalLayout,
    geometry: &'w NodeGeometry,
    probe: &'w CellSet,
    delta: f64,
    connected: &'w mut Vec<&'a DatasetNode>,
    seen: &'w mut HashSet<DatasetId>,
    stats: &'w mut SearchStats,
    verify_time: Duration,
}

impl<'a> ConnectWalk<'a, '_> {
    /// Visits the layout node `node_idx` and, unless pruned, its subtree.
    fn descend(&mut self, node_idx: NodeIdx) {
        self.stats.nodes_visited += 1;
        let (lb, ub) = node_distance_bounds(self.layout.geometry(node_idx), self.geometry);
        if ub <= self.delta {
            // Every dataset below this node is guaranteed to be connected.
            self.collect_all(self.layout.arena_index(node_idx));
            return;
        }
        if lb > self.delta {
            self.stats.nodes_pruned += 1;
            return;
        }
        if let Some((left, right)) = self.layout.children(node_idx) {
            self.descend(left);
            self.descend(right);
            return;
        }
        let NodeKind::Leaf { entries, .. } =
            &self.index.node(self.layout.arena_index(node_idx)).kind
        else {
            return;
        };
        let base = self.layout.entry_range(node_idx).start;
        for (offset, entry) in entries.iter().enumerate() {
            if self.seen.contains(&self.layout.entry_id(base + offset)) {
                // Already connected through an earlier member — skip the
                // (potentially expensive) exact distance test.
                continue;
            }
            let (elb, eub) =
                node_distance_bounds(self.layout.entry_geometry(base + offset), self.geometry);
            let within = if eub <= self.delta {
                true
            } else if elb > self.delta {
                false
            } else {
                self.stats.exact_computations += 1;
                let verify_started = Instant::now();
                let (within, bound_tests) =
                    dataset_distance_within(self.probe, &entry.cells, self.delta);
                self.verify_time += verify_started.elapsed();
                self.stats.bound_tests += bound_tests;
                within
            };
            if within && self.seen.insert(entry.id) {
                self.connected.push(entry);
            }
        }
    }

    /// Adds every not-yet-seen dataset node in the arena subtree.
    fn collect_all(&mut self, arena_idx: NodeIdx) {
        match &self.index.node(arena_idx).kind {
            NodeKind::Leaf { entries, .. } => {
                for entry in entries {
                    if self.seen.insert(entry.id) {
                        self.connected.push(entry);
                    }
                }
            }
            NodeKind::Internal { left, right } => {
                self.collect_all(*left);
                self.collect_all(*right);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::DitsLocalConfig;
    use proptest::prelude::*;
    use spatial::distance::dataset_distance;
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

    /// The ids, ascending, that one [`find_connect_set`] walk with the query's
    /// own cells and MBR geometry finds within `delta` of it.
    fn within_delta_of_query(index: &DitsLocal, query: &CellSet, delta: f64) -> Vec<DatasetId> {
        let Some(rect) = query.mbr_cell_space() else {
            return Vec::new();
        };
        let mut connected = Vec::new();
        find_connect_set(
            index,
            &NodeGeometry::from_mbr(rect),
            query,
            delta,
            &mut connected,
            &mut HashSet::new(),
            &mut SearchStats::new(),
        );
        let mut ids: Vec<DatasetId> = connected.iter().map(|n| n.id).collect();
        ids.sort_unstable();
        ids
    }

    /// Exhaustive-search CJSP solver for tiny instances: tries every subset of at
    /// most `k` datasets that satisfies spatial connectivity with the query and
    /// returns the best coverage.  Exponential — only for tests validating the
    /// greedy algorithm's approximation quality.
    fn coverage_search_exhaustive(
        datasets: &[DatasetNode],
        query: &CellSet,
        k: usize,
        delta: f64,
    ) -> usize {
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

    /// 240 datasets of 3–11 LCG-placed cells each, in overlapping 7 × 7 boxes on
    /// a 16 × 15 lattice of pitch 4, with a two-cell query near the middle.
    fn lattice_instance() -> (Vec<DatasetNode>, CellSet) {
        let mut state = 0x2545_F491u32;
        let mut next = || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 24) % 7
        };
        let nodes = (0..240u32)
            .map(|i| {
                let (bx, by) = ((i % 16) * 4, (i / 16) * 4);
                let coords: Vec<(u32, u32)> = (0..3 + i * 7 % 9)
                    .map(|_| (bx + next(), by + next()))
                    .collect();
                node(i, &coords)
            })
            .collect();
        (nodes, cs(&[(30, 28), (31, 29)]))
    }

    /// Carrying the connect set only ever removes work: on a fixed instance
    /// the answer is the one the merged re-probe gave (commit 23293a7), and
    /// no counter exceeds what the carried walk with the tie-aware size
    /// filter measures on it.
    #[test]
    fn carried_connect_set_does_no_more_work_than_the_merged_reprobe() {
        let (nodes, query) = lattice_instance();
        let idx = DitsLocal::build(nodes, DitsLocalConfig { leaf_capacity: 8 });
        let (result, stats) = coverage_search(&idx, &query, CoverageConfig::new(10, 3.0));
        assert_eq!(
            result.datasets,
            vec![86, 104, 118, 100, 73, 149, 167, 136, 122, 132]
        );
        assert_eq!(result.gains, vec![11, 10, 10, 10, 9, 9, 10, 10, 11, 9]);
        assert_eq!(result.coverage, 101);
        assert!(stats.nodes_visited <= 332, "{stats:?}");
        assert!(stats.exact_computations <= 155, "{stats:?}");
        assert!(stats.candidates <= 66, "{stats:?}");
    }

    /// A dataset at exactly δ is connected (Definition 7 reads `≤ δ`), with
    /// δ the very `f64` the kernel reports: `√13`, whose square rounds to
    /// 12.999999999999998, so a test that compares squared distances
    /// against `δ·δ` leaves it out.
    #[test]
    fn a_dataset_at_exactly_delta_is_connected() {
        let query = cs(&[(0, 0), (0, 10)]);
        let nodes = vec![node(3, &[(2, 13)]), node(7, &[(2, 3), (2, 20)])];
        let delta = dataset_distance(&query, &nodes[1].cells);
        assert_eq!(delta, 13f64.sqrt());
        assert!(delta * delta < 13.0);
        let idx = DitsLocal::build(nodes, DitsLocalConfig::default());
        assert_eq!(within_delta_of_query(&idx, &query, delta), vec![3, 7]);
        let (result, _) = coverage_search(&idx, &query, CoverageConfig::new(3, delta));
        assert_eq!(result.datasets, vec![7, 3]);
        assert_eq!(result.gains, vec![2, 1]);
    }

    #[test]
    fn the_exact_delta_tests_count_their_bound_tests() {
        // Candidates disjoint from the query whose boxes leave δ open: each
        // exact test walks both sets' boundary tiles, and the walk's bound
        // tests reach the search's statistics.
        let query = cs(&[(0, 0), (0, 10)]);
        let nodes = vec![node(3, &[(2, 13)]), node(7, &[(2, 3), (2, 20)])];
        let idx = DitsLocal::build(nodes, DitsLocalConfig::default());
        let (result, stats) = coverage_search(&idx, &query, CoverageConfig::new(3, 4.0));
        assert_eq!(result.datasets, vec![7, 3]);
        assert!(stats.exact_computations > 0);
        assert!(stats.bound_tests > 0);
    }

    #[test]
    fn range_returns_exactly_the_datasets_within_delta() {
        let nodes = vec![node(0, &[(1, 0)]), node(1, &[(3, 0)]), node(2, &[(6, 0)])];
        let idx = DitsLocal::build(nodes, DitsLocalConfig::default());
        let query = cs(&[(0, 0)]);
        assert_eq!(within_delta_of_query(&idx, &query, 3.0), vec![0, 1]);
        assert_eq!(within_delta_of_query(&idx, &query, 10.0), vec![0, 1, 2]);
        assert!(within_delta_of_query(&idx, &query, 0.5).is_empty());
        assert!(within_delta_of_query(&idx, &query, -1.0).is_empty());
        let empty = DitsLocal::build(Vec::new(), DitsLocalConfig::default());
        assert!(within_delta_of_query(&empty, &query, 10.0).is_empty());
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

        // The one brute-force guard of the δ-range walk, and so of every
        // caller of `find_connect_set`: CoverageSearch, both `pricing`
        // searches and the SG+DITS baseline.
        //
        // Half the cases take δ from the instance's own dataset distances, so
        // a dataset lands exactly on δ: a uniform δ never does.
        #[test]
        fn prop_range_matches_filtered_bruteforce(
            datasets in proptest::collection::vec(
                proptest::collection::vec((0u32..32, 0u32..32), 1..6), 1..30),
            query in proptest::collection::vec((0u32..32, 0u32..32), 1..6),
            uniform in 0.0f64..15.0,
            tie in any::<bool>(),
            pick in any::<usize>(),
        ) {
            let nodes: Vec<DatasetNode> = datasets
                .iter()
                .enumerate()
                .map(|(i, c)| node(i as DatasetId, c))
                .collect();
            let idx = DitsLocal::build(nodes.clone(), DitsLocalConfig { leaf_capacity: 4 });
            let q = cs(&query);
            let delta = if tie {
                dataset_distance(&q, &nodes[pick % nodes.len()].cells)
            } else {
                uniform
            };
            let expected: Vec<DatasetId> = nodes
                .iter()
                .filter(|n| dataset_distance(&q, &n.cells) <= delta)
                .map(|n| n.id)
                .collect();
            prop_assert_eq!(within_delta_of_query(&idx, &q, delta), expected);
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
