//! Greedy baselines for the Coverage Joinable Search Problem (Section VII-D).
//!
//! * **SG** — the standard greedy algorithm for maximum coverage \[30\]
//!   extended with the paper's connectivity constraint: every iteration scans
//!   *all* datasets of the source, keeps those directly connected to any
//!   member of the current result set (query included) and adds the one with
//!   the largest marginal gain.  No index, no bounds: the `O(|R|·n)` per
//!   iteration cost the paper reports.
//! * **SG+DITS** — the same greedy but using DITS-L (with the Lemma 4 bounds)
//!   to find the connected candidates: one [`dits::find_connect_set`] walk
//!   per result member per iteration, nothing carried from one iteration to
//!   the next.  CoverageSearch differs exactly there — it keeps the connect
//!   set and walks only with the newest member.
//!
//! SG stays independent of `dits` on purpose: it is the quadratic oracle the
//! other two are tested against.

use dits::{
    find_connect_set, greedy_cover, CoverageResult, DatasetNode, DitsLocal, NodeGeometry,
    SearchStats,
};
use spatial::{dataset_distance_within, CellSet, DatasetId};
use std::collections::HashSet;

/// Runs the standard greedy (SG) coverage search over a flat list of
/// dataset nodes.
pub fn sg_coverage_search(
    datasets: &[DatasetNode],
    query: &CellSet,
    k: usize,
    delta: f64,
) -> (CoverageResult, SearchStats) {
    let mut stats = SearchStats::new();
    let query_coverage = query.len();
    let mut result = CoverageResult {
        datasets: Vec::new(),
        coverage: query_coverage,
        query_coverage,
        gains: Vec::new(),
    };
    if k == 0 || query.is_empty() || datasets.is_empty() {
        return (result, stats);
    }

    let mut covered = query.clone();
    // Members of the result set (query first), used for connectivity checks.
    let mut members: Vec<&CellSet> = vec![query];
    let mut selected: HashSet<u32> = HashSet::new();

    while result.datasets.len() < k {
        let mut best: Option<(&DatasetNode, usize)> = None;
        for candidate in datasets {
            if selected.contains(&candidate.id) {
                continue;
            }
            // Direct connectivity to any current member keeps the result set
            // (with the query) spatially connected.
            stats.exact_computations += 1;
            let connected = members
                .iter()
                .any(|m| dataset_distance_within(m, &candidate.cells, delta).0);
            if !connected {
                continue;
            }
            stats.candidates += 1;
            let gain = candidate.cells.marginal_gain(&covered);
            // Ties broken by the smaller dataset id, matching CoverageSearch.
            let wins = match best {
                None => true,
                Some((current, best_gain)) => {
                    gain > best_gain || (gain == best_gain && candidate.id < current.id)
                }
            };
            if wins {
                best = Some((candidate, gain));
            }
        }
        let Some((chosen, gain)) = best else { break };
        if gain == 0 {
            break;
        }
        selected.insert(chosen.id);
        result.datasets.push(chosen.id);
        result.gains.push(gain);
        covered.union_in_place(&chosen.cells);
        members.push(&chosen.cells);
        result.coverage = covered.len();
    }
    (result, stats)
}

/// Runs the SG+DITS baseline: the greedy loop of CoverageSearch over DITS-L,
/// but every iteration rebuilds the connect set from scratch with one walk
/// per member of the result so far (query included).
pub fn sg_dits_coverage_search(
    index: &DitsLocal,
    query: &CellSet,
    k: usize,
    delta: f64,
) -> (CoverageResult, SearchStats) {
    let mut stats = SearchStats::new();
    let query_coverage = query.len();
    let mut result = CoverageResult {
        datasets: Vec::new(),
        coverage: query_coverage,
        query_coverage,
        gains: Vec::new(),
    };
    let Some(rect) = query.mbr_cell_space() else {
        return (result, stats);
    };
    if index.dataset_count() == 0 {
        return (result, stats);
    }
    let mut members = vec![(NodeGeometry::from_mbr(rect), query)];
    let mut selected: Vec<DatasetId> = Vec::new();
    (result.datasets, result.gains, result.coverage) = greedy_cover(
        query,
        k,
        &mut stats,
        |node: &&DatasetNode| (node.id, &node.cells),
        |newest, connected, stats| {
            if let Some(node) = newest {
                members.push((node.geometry, &node.cells));
                selected.push(node.id);
            }
            // Forget last iteration's connect set; the selected datasets
            // start out seen so no walk hands them back.
            connected.clear();
            let mut seen: HashSet<DatasetId> = selected.iter().copied().collect();
            for &(geometry, cells) in &members {
                find_connect_set(index, &geometry, cells, delta, connected, &mut seen, stats);
            }
        },
    );
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dits::{CoverageConfig, DitsLocalConfig};
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

    fn cluster(n: u32) -> Vec<DatasetNode> {
        (0..n)
            .map(|i| {
                let x = (i % 10) * 2;
                let y = (i / 10) * 2;
                node(i, &[(x, y), (x + 1, y), (x, y + 1)])
            })
            .collect()
    }

    #[test]
    fn sg_selects_connected_chain() {
        let datasets = vec![
            node(0, &[(1, 0), (2, 0)]),
            node(1, &[(3, 0), (4, 0)]),
            node(2, &[(50, 50)]),
        ];
        let query = cs(&[(0, 0)]);
        let (result, _) = sg_coverage_search(&datasets, &query, 3, 1.0);
        assert_eq!(result.datasets, vec![0, 1]);
        assert_eq!(result.coverage, 5);
    }

    #[test]
    fn sg_respects_empty_inputs() {
        let (r, _) = sg_coverage_search(&[], &cs(&[(0, 0)]), 3, 1.0);
        assert!(r.datasets.is_empty());
        let datasets = vec![node(0, &[(0, 0)])];
        let (r, _) = sg_coverage_search(&datasets, &CellSet::new(), 3, 1.0);
        assert!(r.datasets.is_empty());
        let (r, _) = sg_coverage_search(&datasets, &cs(&[(5, 5)]), 0, 1.0);
        assert!(r.datasets.is_empty());
    }

    /// The fixed instance of `dits::coverage`'s counter-ceiling test: 240
    /// datasets of 3–11 LCG-placed cells each, in overlapping 7 × 7 boxes on
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

    /// CoverageSearch, SG+DITS and the SG oracle share one tie-break, so they
    /// must agree on the whole selection, not only on its coverage.
    fn assert_three_greedies_agree(
        datasets: &[DatasetNode],
        leaf_capacity: usize,
        query: &CellSet,
        k: usize,
        delta: f64,
    ) {
        let idx = DitsLocal::build(datasets.to_vec(), DitsLocalConfig { leaf_capacity });
        let (sg, _) = sg_coverage_search(datasets, query, k, delta);
        let (cov, cov_stats) = dits::coverage_search(&idx, query, CoverageConfig::new(k, delta));
        let (sg_dits, sg_dits_stats) = sg_dits_coverage_search(&idx, query, k, delta);
        assert_eq!(cov, sg, "CoverageSearch vs SG, k={k} delta={delta}");
        assert_eq!(sg_dits, sg, "SG+DITS vs SG, k={k} delta={delta}");
        // Re-walking for every member can only visit more of the tree.
        assert!(
            sg_dits_stats.nodes_visited >= cov_stats.nodes_visited,
            "k={k} delta={delta}: {sg_dits_stats:?} vs {cov_stats:?}"
        );
    }

    #[test]
    fn sg_and_coverage_search_reach_the_same_coverage() {
        let datasets = cluster(50);
        let query = cs(&[(0, 0)]);
        for (k, delta) in [(3usize, 2.5f64), (6, 3.0), (10, 2.0)] {
            assert_three_greedies_agree(&datasets, 5, &query, k, delta);
        }
        let (datasets, query) = lattice_instance();
        assert_three_greedies_agree(&datasets, 8, &query, 10, 3.0);
    }

    /// A dataset at exactly δ is connected, δ being the `f64` the kernel
    /// reports (`√13`, whose square rounds below 13) — for dataset 7 through
    /// a cell pair inside the query's box gap, for dataset 3 at the box
    /// corner — and all three greedies pick both.
    #[test]
    fn a_dataset_at_exactly_delta_is_connected() {
        let datasets = vec![node(3, &[(2, 13)]), node(7, &[(2, 3), (2, 20)])];
        let query = cs(&[(0, 0), (0, 10)]);
        let delta = spatial::dataset_distance(&query, &datasets[1].cells);
        assert_eq!(delta, 13f64.sqrt());
        let (result, _) = sg_coverage_search(&datasets, &query, 3, delta);
        assert_eq!(result.datasets, vec![7, 3]);
        assert_eq!(result.coverage, 5);
        assert_three_greedies_agree(&datasets, 4, &query, 3, delta);
    }

    #[test]
    fn sg_results_are_connected() {
        let datasets = cluster(40);
        let query = cs(&[(0, 0), (1, 1)]);
        let (result, _) = sg_coverage_search(&datasets, &query, 8, 2.5);
        let chosen: Vec<&CellSet> = datasets
            .iter()
            .filter(|d| result.datasets.contains(&d.id))
            .map(|d| &d.cells)
            .collect();
        let mut sets = chosen;
        sets.push(&query);
        assert!(satisfies_spatial_connectivity(&sets, 2.5));
    }

    /// One random instance, fully determined by `case_seed`.
    fn run_agreement_case(case_seed: u64) {
        let _replay = dits::ReplayOnPanic("run_agreement_case", case_seed);
        let mut rng = TestRng::from_name(&case_seed.to_string());
        let cells = |max| proptest::collection::vec((0u32..20, 0u32..20), 1..max);
        let datasets = proptest::collection::vec(cells(6), 1..25).generate(&mut rng);
        let query = cells(5).generate(&mut rng);
        let k = (1usize..5).generate(&mut rng);
        let delta = (1.0f64..5.0).generate(&mut rng);
        let nodes: Vec<DatasetNode> = datasets
            .iter()
            .enumerate()
            .map(|(i, c)| node(i as DatasetId, c))
            .collect();
        assert_three_greedies_agree(&nodes, 4, &cs(&query), k, delta);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_sg_matches_coverage_search(case_seed in any::<u64>()) {
            run_agreement_case(case_seed);
        }
    }
}
