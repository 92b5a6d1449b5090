//! Weighted coverage joinable search.
//!
//! CJSP counts every covered cell equally.  Real planning tasks weight cells
//! by value — commuter demand, population density, incident rates — so the
//! weighted maximum coverage problem (\[48\] in the paper's related work)
//! asks for the `k` connected datasets maximising the *total weight* of the
//! covered cells instead of their count.
//!
//! [`CellWeights`] assigns a weight to every cell (with a default for
//! unlisted cells), and [`weighted_coverage_search`] runs the greedy of the
//! paper's CoverageSearch with the weighted marginal gain, finding the
//! connected candidates with the same walk ([`dits::find_connect_set`]).

use dits::{find_connect_set, DatasetNode, DitsLocal, NodeGeometry, SearchStats};
use serde::{Deserialize, Serialize};
use spatial::{CellId, CellSet, DatasetId};
use std::collections::{HashMap, HashSet};

/// Per-cell weights with a default for cells not explicitly listed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellWeights {
    weights: HashMap<CellId, f64>,
    default: f64,
}

impl CellWeights {
    /// Uniform weights: every cell weighs `default`.  With `default = 1.0`
    /// the weighted search degenerates to the unweighted CJSP objective.
    pub fn uniform(default: f64) -> Self {
        Self {
            weights: HashMap::new(),
            default: default.max(0.0),
        }
    }

    /// Builds weights from explicit `(cell, weight)` pairs plus a default for
    /// everything else.
    pub fn from_pairs<I: IntoIterator<Item = (CellId, f64)>>(pairs: I, default: f64) -> Self {
        Self {
            weights: pairs.into_iter().map(|(c, w)| (c, w.max(0.0))).collect(),
            default: default.max(0.0),
        }
    }

    /// Sets the weight of one cell.
    pub fn set(&mut self, cell: CellId, weight: f64) {
        self.weights.insert(cell, weight.max(0.0));
    }

    /// The weight of a cell.
    pub fn weight(&self, cell: CellId) -> f64 {
        self.weights.get(&cell).copied().unwrap_or(self.default)
    }

    /// Total weight of every cell in a set.
    pub fn total(&self, cells: &CellSet) -> f64 {
        cells.iter().map(|c| self.weight(c)).sum()
    }

    /// Weighted marginal gain of adding `candidate` to an accumulated union:
    /// the total weight of the candidate's cells not already covered.
    pub fn marginal_gain(&self, candidate: &CellSet, accumulated: &CellSet) -> f64 {
        candidate
            .iter()
            .filter(|&c| !accumulated.contains(c))
            .map(|c| self.weight(c))
            .sum()
    }

    /// Number of explicitly weighted cells.
    pub fn explicit_len(&self) -> usize {
        self.weights.len()
    }

    /// The default weight of unlisted cells.
    pub fn default_weight(&self) -> f64 {
        self.default
    }
}

/// Configuration of a weighted coverage search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WeightedConfig {
    /// Maximum number of result datasets `k`.
    pub k: usize,
    /// Connectivity threshold δ (in cell units).
    pub delta: f64,
}

impl WeightedConfig {
    /// Convenience constructor.
    pub fn new(k: usize, delta: f64) -> Self {
        Self { k, delta }
    }
}

/// Result of a weighted coverage search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeightedResult {
    /// Selected datasets in greedy order.
    pub datasets: Vec<DatasetId>,
    /// Total weight of the covered cells (query plus selections).
    pub covered_weight: f64,
    /// Number of covered cells (the unweighted coverage, for comparison).
    pub coverage: usize,
    /// Per-iteration weighted gains.
    pub gains: Vec<f64>,
}

/// Runs the weighted coverage joinable search: greedy by weighted marginal
/// gain over the datasets connected to the running (merged) result.
pub fn weighted_coverage_search(
    index: &DitsLocal,
    query: &CellSet,
    weights: &CellWeights,
    config: WeightedConfig,
) -> (WeightedResult, SearchStats) {
    let mut stats = SearchStats::new();
    let mut result = WeightedResult {
        datasets: Vec::new(),
        covered_weight: weights.total(query),
        coverage: query.len(),
        gains: Vec::new(),
    };
    if config.k == 0 || query.is_empty() || index.dataset_count() == 0 {
        return (result, stats);
    }
    let Some(rect) = query.mbr_cell_space() else {
        return (result, stats);
    };
    let mut covered = query.clone();
    // Connectivity to a growing result is the union of connectivities to its
    // members, so each iteration walks only with the newest one.
    let mut newest = (NodeGeometry::from_mbr(rect), query);
    let mut connected: Vec<&DatasetNode> = Vec::new();
    let mut seen: HashSet<DatasetId> = HashSet::new();

    while result.datasets.len() < config.k {
        find_connect_set(
            index,
            &newest.0,
            newest.1,
            config.delta,
            &mut connected,
            &mut seen,
            &mut stats,
        );

        // (position in `connected`, node, gain)
        let mut best: Option<(usize, &DatasetNode, f64)> = None;
        for (pos, &node) in connected.iter().enumerate() {
            stats.exact_computations += 1;
            let gain = weights.marginal_gain(&node.cells, &covered);
            let wins = match best {
                None => gain > 0.0,
                Some((_, current, current_gain)) => {
                    gain > current_gain || (gain == current_gain && node.id < current.id)
                }
            };
            if wins && gain > 0.0 {
                best = Some((pos, node, gain));
            }
        }
        let Some((pos, node, gain)) = best else { break };
        connected.swap_remove(pos);
        result.datasets.push(node.id);
        result.gains.push(gain);
        result.covered_weight += gain;
        covered.union_in_place(&node.cells);
        result.coverage = covered.len();
        newest = (node.geometry, &node.cells);
    }
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dits::{coverage_search, CoverageConfig, DitsLocalConfig};
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
    fn cell_weights_lookup_and_totals() {
        let mut w = CellWeights::from_pairs([(cell_id(0, 0), 5.0), (cell_id(1, 0), 2.0)], 1.0);
        assert_eq!(w.weight(cell_id(0, 0)), 5.0);
        assert_eq!(w.weight(cell_id(9, 9)), 1.0);
        assert_eq!(w.default_weight(), 1.0);
        assert_eq!(w.explicit_len(), 2);
        w.set(cell_id(2, 0), -3.0); // negative weights are clamped to zero
        assert_eq!(w.weight(cell_id(2, 0)), 0.0);
        let s = cs(&[(0, 0), (1, 0), (2, 0)]);
        assert_eq!(w.total(&s), 7.0);
        // Marginal gain ignores cells already covered.
        let covered = cs(&[(0, 0)]);
        assert_eq!(w.marginal_gain(&s, &covered), 2.0);
    }

    #[test]
    fn uniform_weights_match_unweighted_coverage_search() {
        let nodes: Vec<DatasetNode> = (0..20)
            .map(|i| {
                let x = (i % 5) * 2;
                let y = (i / 5) * 2;
                node(i, &[(x, y), (x + 1, y)])
            })
            .collect();
        let index = DitsLocal::build(nodes, DitsLocalConfig { leaf_capacity: 4 });
        let query = cs(&[(0, 0)]);
        let weights = CellWeights::uniform(1.0);
        let (weighted, _) =
            weighted_coverage_search(&index, &query, &weights, WeightedConfig::new(4, 2.5));
        let (unweighted, _) = coverage_search(&index, &query, CoverageConfig::new(4, 2.5));
        // With unit weights both objectives coincide.
        assert_eq!(weighted.coverage, unweighted.coverage);
        assert_eq!(weighted.covered_weight, unweighted.coverage as f64);
        assert_eq!(weighted.datasets, unweighted.datasets);
    }

    #[test]
    fn high_weight_cells_redirect_the_greedy_choice() {
        // Dataset 0 covers 3 ordinary cells; dataset 1 covers a single cell
        // of weight 100.  Both are connected to the query.
        let nodes = vec![node(0, &[(2, 0), (2, 1), (2, 2)]), node(1, &[(0, 2)])];
        let index = DitsLocal::build(nodes, DitsLocalConfig::default());
        let query = cs(&[(0, 0), (1, 0)]);
        let weights = CellWeights::from_pairs([(cell_id(0, 2), 100.0)], 1.0);
        let (result, _) =
            weighted_coverage_search(&index, &query, &weights, WeightedConfig::new(1, 2.0));
        assert_eq!(result.datasets, vec![1]);
        assert_eq!(result.gains, vec![100.0]);
        // The unweighted search would have preferred dataset 0.
        let (unweighted, _) = coverage_search(&index, &query, CoverageConfig::new(1, 2.0));
        assert_eq!(unweighted.datasets, vec![0]);
    }

    #[test]
    fn zero_weight_cells_contribute_nothing() {
        let nodes = vec![node(0, &[(2, 0), (3, 0)])];
        let index = DitsLocal::build(nodes, DitsLocalConfig::default());
        let query = cs(&[(0, 0), (1, 0)]);
        let weights = CellWeights::uniform(0.0);
        let (result, _) =
            weighted_coverage_search(&index, &query, &weights, WeightedConfig::new(2, 2.0));
        // Nothing has positive weighted gain, so nothing is selected.
        assert!(result.datasets.is_empty());
        assert_eq!(result.covered_weight, 0.0);
    }

    #[test]
    fn empty_inputs_are_handled() {
        let index = DitsLocal::build(Vec::new(), DitsLocalConfig::default());
        let weights = CellWeights::uniform(1.0);
        let (r, _) = weighted_coverage_search(
            &index,
            &cs(&[(0, 0)]),
            &weights,
            WeightedConfig::new(2, 1.0),
        );
        assert!(r.datasets.is_empty());
        let nodes = vec![node(0, &[(0, 0)])];
        let index = DitsLocal::build(nodes, DitsLocalConfig::default());
        let (r, _) = weighted_coverage_search(
            &index,
            &CellSet::new(),
            &weights,
            WeightedConfig::new(2, 1.0),
        );
        assert!(r.datasets.is_empty());
        let (r, _) = weighted_coverage_search(
            &index,
            &cs(&[(0, 0)]),
            &weights,
            WeightedConfig::new(0, 1.0),
        );
        assert!(r.datasets.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        #[test]
        fn prop_weighted_gains_sum_to_total(
            datasets in proptest::collection::vec(
                proptest::collection::vec((0u32..20, 0u32..20), 1..6), 1..20),
            k in 1usize..5,
            delta in 1.0f64..5.0,
            default_weight in 0.1f64..3.0,
        ) {
            let nodes: Vec<DatasetNode> = datasets
                .iter()
                .enumerate()
                .map(|(i, c)| node(i as DatasetId, c))
                .collect();
            let index = DitsLocal::build(nodes.clone(), DitsLocalConfig { leaf_capacity: 3 });
            let weights = CellWeights::uniform(default_weight);
            let query = cs(&[(0, 0), (1, 1)]);
            let (result, _) =
                weighted_coverage_search(&index, &query, &weights, WeightedConfig::new(k, delta));
            prop_assert!(result.datasets.len() <= k);
            // covered_weight equals query weight plus the per-iteration gains.
            let expected = weights.total(&query) + result.gains.iter().sum::<f64>();
            prop_assert!((result.covered_weight - expected).abs() < 1e-6);
            // And it equals the weight of the actual union.
            let mut union = query.clone();
            for id in &result.datasets {
                let n = nodes.iter().find(|n| n.id == *id).unwrap();
                union.union_in_place(&n.cells);
            }
            prop_assert!((weights.total(&union) - result.covered_weight).abs() < 1e-6);
            prop_assert_eq!(union.len(), result.coverage);
        }
    }
}
