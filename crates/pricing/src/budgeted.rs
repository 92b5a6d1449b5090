//! Budgeted coverage joinable search.
//!
//! The CJSP of the paper limits the result to `k` datasets.  In a marketplace
//! the natural budget is monetary: *"cover as much area as possible for at
//! most B currency units, staying connected to my query"*.  This is the
//! budgeted maximum coverage problem (Khuller, Moss & Naor \[33\]) with the
//! paper's spatial-connectivity constraint layered on top.
//!
//! The solver follows Khuller's recipe adapted to the connectivity
//! constraint:
//!
//! 1. **Cost-benefit greedy** — repeatedly add the affordable, connected
//!    dataset with the best marginal-gain-per-price ratio (ties broken by
//!    dataset id); the connected candidates come from
//!    [`dits::find_connect_set`], the one Lemma 4 walk over DITS-L, run once
//!    per purchase into a connect set kept across iterations.
//! 2. **Best single purchase** — the single affordable, connected dataset
//!    with the largest gain.
//! 3. Return whichever of the two covers more.
//!
//! Without the connectivity constraint this combination is the classic
//! `(1 − 1/√e)`-approximation; with it the guarantee degrades the same way
//! the paper's Theorem 1 needs its connectivity assumption, but the empirical
//! behaviour mirrors the unbudgeted CoverageSearch.

use crate::model::PriceBook;
use dits::{find_connect_set, DatasetNode, DitsLocal, NodeGeometry, SearchStats};
use serde::{Deserialize, Serialize};
use spatial::{CellSet, DatasetId};
use std::collections::HashSet;

/// Configuration of a budgeted coverage search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BudgetedConfig {
    /// Monetary budget `B`.
    pub budget: f64,
    /// Connectivity threshold δ (in cell units).
    pub delta: f64,
    /// Optional cap on the number of purchased datasets (defaults to
    /// unlimited — the budget is usually the binding constraint).
    pub max_datasets: Option<usize>,
}

impl BudgetedConfig {
    /// Convenience constructor without a dataset-count cap.
    pub fn new(budget: f64, delta: f64) -> Self {
        Self {
            budget,
            delta,
            max_datasets: None,
        }
    }
}

/// Result of a budgeted coverage search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BudgetedResult {
    /// Purchased datasets in the order they were selected.
    pub datasets: Vec<DatasetId>,
    /// Total coverage `|S_Q ∪ (∪ S_Di)|` after all purchases.
    pub coverage: usize,
    /// Total money spent.
    pub spent: f64,
    /// Remaining budget.
    pub remaining: f64,
    /// Coverage of the query alone, for reference.
    pub query_coverage: usize,
}

/// Runs the budgeted coverage joinable search over a local index.
///
/// Datasets missing from the price book are treated as not for sale and are
/// never selected.
pub fn budgeted_coverage_search(
    index: &DitsLocal,
    query: &CellSet,
    prices: &PriceBook,
    config: BudgetedConfig,
) -> (BudgetedResult, SearchStats) {
    let mut stats = SearchStats::new();
    let query_coverage = query.len();
    let empty = BudgetedResult {
        datasets: Vec::new(),
        coverage: query_coverage,
        spent: 0.0,
        remaining: config.budget,
        query_coverage,
    };
    if query.is_empty() || index.dataset_count() == 0 || config.budget <= 0.0 {
        return (empty, stats);
    }

    let greedy = cost_benefit_greedy(index, query, prices, config, &mut stats);
    let single = best_single_purchase(index, query, prices, config, &mut stats);

    // Khuller's max of the two candidate solutions.
    let best = match single {
        Some(single) if single.coverage > greedy.coverage => single,
        _ => greedy,
    };
    (best, stats)
}

/// Phase 1: the gain-per-price greedy.
fn cost_benefit_greedy(
    index: &DitsLocal,
    query: &CellSet,
    prices: &PriceBook,
    config: BudgetedConfig,
    stats: &mut SearchStats,
) -> BudgetedResult {
    let query_coverage = query.len();
    let mut result = BudgetedResult {
        datasets: Vec::new(),
        coverage: query_coverage,
        spent: 0.0,
        remaining: config.budget,
        query_coverage,
    };
    let Some(rect) = query.mbr_cell_space() else {
        return result;
    };
    let mut covered = query.clone();
    // Connectivity to a growing result is the union of connectivities to its
    // members, so each iteration walks only with the newest one.
    let mut newest = (NodeGeometry::from_mbr(rect), query);
    let mut connected: Vec<&DatasetNode> = Vec::new();
    let mut seen: HashSet<DatasetId> = HashSet::new();
    let max_datasets = config.max_datasets.unwrap_or(usize::MAX);

    while result.datasets.len() < max_datasets {
        find_connect_set(
            index,
            &newest.0,
            newest.1,
            config.delta,
            &mut connected,
            &mut seen,
            stats,
        );

        // Best gain-per-price ratio among affordable candidates:
        // (position in `connected`, node, price, gain, ratio).
        let mut best: Option<(usize, &DatasetNode, f64, usize, f64)> = None;
        for (pos, &node) in connected.iter().enumerate() {
            let Some(price) = prices.price(node.id) else {
                continue;
            };
            if price > result.remaining {
                continue;
            }
            stats.exact_computations += 1;
            let gain = node.cells.marginal_gain(&covered);
            if gain == 0 {
                continue;
            }
            // Free datasets have an infinite ratio; order them by gain.
            let ratio = if price > 0.0 {
                gain as f64 / price
            } else {
                f64::INFINITY
            };
            let wins = match best {
                None => true,
                Some((_, current, _, current_gain, current_ratio)) => {
                    ratio > current_ratio
                        || (ratio == current_ratio && gain > current_gain)
                        || (ratio == current_ratio && gain == current_gain && node.id < current.id)
                }
            };
            if wins {
                best = Some((pos, node, price, gain, ratio));
            }
        }

        let Some((pos, node, price, _, _)) = best else {
            break;
        };
        connected.swap_remove(pos);
        result.datasets.push(node.id);
        result.spent += price;
        result.remaining = (config.budget - result.spent).max(0.0);
        covered.union_in_place(&node.cells);
        result.coverage = covered.len();
        newest = (node.geometry, &node.cells);
    }
    result
}

/// Phase 2: the single best affordable purchase directly connected to the
/// query.
fn best_single_purchase(
    index: &DitsLocal,
    query: &CellSet,
    prices: &PriceBook,
    config: BudgetedConfig,
    stats: &mut SearchStats,
) -> Option<BudgetedResult> {
    if config.max_datasets == Some(0) {
        return None;
    }
    let query_coverage = query.len();
    let rect = query.mbr_cell_space()?;
    let geometry = NodeGeometry::from_mbr(rect);
    let mut connected: Vec<&DatasetNode> = Vec::new();
    find_connect_set(
        index,
        &geometry,
        query,
        config.delta,
        &mut connected,
        &mut HashSet::new(),
        stats,
    );
    let mut best: Option<(&DatasetNode, f64, usize)> = None;
    for node in connected {
        let Some(price) = prices.price(node.id) else {
            continue;
        };
        if price > config.budget {
            continue;
        }
        stats.exact_computations += 1;
        let gain = node.cells.marginal_gain(query);
        if gain == 0 {
            continue;
        }
        let wins = match best {
            None => true,
            Some((current, _, current_gain)) => {
                gain > current_gain || (gain == current_gain && node.id < current.id)
            }
        };
        if wins {
            best = Some((node, price, gain));
        }
    }
    best.map(|(node, price, gain)| BudgetedResult {
        datasets: vec![node.id],
        coverage: query_coverage + gain,
        spent: price,
        remaining: (config.budget - price).max(0.0),
        query_coverage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dits::DitsLocalConfig;
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

    /// A chain of datasets going right from the query, each covering 2 cells.
    fn chain_index() -> (DitsLocal, Vec<DatasetNode>) {
        let nodes: Vec<DatasetNode> = (0..6)
            .map(|i| {
                let x = (i + 1) * 2;
                node(i, &[(x, 0), (x + 1, 0)])
            })
            .collect();
        (
            DitsLocal::build(nodes.clone(), DitsLocalConfig { leaf_capacity: 2 }),
            nodes,
        )
    }

    fn uniform_prices(ids: impl IntoIterator<Item = DatasetId>, price: f64) -> PriceBook {
        let mut book = PriceBook::new();
        for id in ids {
            book.set(id, price);
        }
        book
    }

    #[test]
    fn budget_limits_the_number_of_purchases() {
        let (index, _) = chain_index();
        let query = cs(&[(0, 0), (1, 0)]);
        let prices = uniform_prices(0..6, 10.0);
        // Budget 25 affords exactly two datasets at 10 each.
        let (result, _) =
            budgeted_coverage_search(&index, &query, &prices, BudgetedConfig::new(25.0, 2.0));
        assert_eq!(result.datasets.len(), 2);
        assert!(result.spent <= 25.0);
        assert_eq!(result.coverage, 2 + 4);
        assert!((result.remaining - 5.0).abs() < 1e-9);
    }

    #[test]
    fn zero_budget_buys_nothing() {
        let (index, _) = chain_index();
        let query = cs(&[(0, 0)]);
        let prices = uniform_prices(0..6, 1.0);
        let (result, _) =
            budgeted_coverage_search(&index, &query, &prices, BudgetedConfig::new(0.0, 2.0));
        assert!(result.datasets.is_empty());
        assert_eq!(result.coverage, 1);
        assert_eq!(result.spent, 0.0);
    }

    #[test]
    fn unpriced_datasets_are_not_for_sale() {
        let (index, _) = chain_index();
        let query = cs(&[(0, 0), (1, 0)]);
        // Only dataset 0 is on offer.
        let prices = uniform_prices([0], 1.0);
        let (result, _) =
            budgeted_coverage_search(&index, &query, &prices, BudgetedConfig::new(100.0, 2.0));
        assert_eq!(result.datasets, vec![0]);
    }

    #[test]
    fn cost_benefit_prefers_cheap_coverage_but_single_buy_can_win() {
        // Dataset 0: 2 new cells for 1.0 (ratio 2.0).
        // Dataset 1: 10 new cells for 8.0 (ratio 1.25).
        // Budget 8: the ratio greedy buys 0 first (then cannot afford 1),
        // covering 2; the best single purchase buys 1, covering 10 — the
        // Khuller max must return dataset 1.
        let nodes = vec![
            node(0, &[(2, 0), (2, 1)]),
            node(
                1,
                &[
                    (0, 2),
                    (1, 2),
                    (2, 2),
                    (3, 2),
                    (4, 2),
                    (0, 3),
                    (1, 3),
                    (2, 3),
                    (3, 3),
                    (4, 3),
                ],
            ),
        ];
        let index = DitsLocal::build(nodes, DitsLocalConfig::default());
        let query = cs(&[(0, 0), (1, 0)]);
        let mut prices = PriceBook::new();
        prices.set(0, 1.0);
        prices.set(1, 8.0);
        let (result, _) =
            budgeted_coverage_search(&index, &query, &prices, BudgetedConfig::new(8.0, 3.0));
        assert_eq!(result.datasets, vec![1]);
        assert_eq!(result.coverage, 12);
        assert_eq!(result.spent, 8.0);
    }

    #[test]
    fn connectivity_constraint_excludes_far_datasets() {
        let nodes = vec![node(0, &[(2, 0)]), node(1, &[(50, 50), (51, 50)])];
        let index = DitsLocal::build(nodes, DitsLocalConfig::default());
        let query = cs(&[(0, 0)]);
        let prices = uniform_prices(0..2, 1.0);
        let (result, _) =
            budgeted_coverage_search(&index, &query, &prices, BudgetedConfig::new(100.0, 3.0));
        // Only the nearby dataset is connected; the far one is excluded even
        // though it would add more coverage.
        assert_eq!(result.datasets, vec![0]);
    }

    #[test]
    fn max_datasets_cap_is_respected() {
        let (index, _) = chain_index();
        let query = cs(&[(0, 0), (1, 0)]);
        let prices = uniform_prices(0..6, 1.0);
        let (result, _) = budgeted_coverage_search(
            &index,
            &query,
            &prices,
            BudgetedConfig {
                budget: 100.0,
                delta: 2.0,
                max_datasets: Some(3),
            },
        );
        assert_eq!(result.datasets.len(), 3);
    }

    #[test]
    fn empty_inputs_are_handled() {
        let index = DitsLocal::build(Vec::new(), DitsLocalConfig::default());
        let prices = PriceBook::new();
        let (r, _) = budgeted_coverage_search(
            &index,
            &cs(&[(0, 0)]),
            &prices,
            BudgetedConfig::new(10.0, 1.0),
        );
        assert!(r.datasets.is_empty());
        let (index, _) = chain_index();
        let (r, _) = budgeted_coverage_search(
            &index,
            &CellSet::new(),
            &prices,
            BudgetedConfig::new(10.0, 1.0),
        );
        assert!(r.datasets.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        #[test]
        fn prop_budget_and_connectivity_are_always_respected(
            datasets in proptest::collection::vec(
                proptest::collection::vec((0u32..24, 0u32..24), 1..6), 1..25),
            budget in 0.0f64..30.0,
            delta in 1.0f64..6.0,
        ) {
            let nodes: Vec<DatasetNode> = datasets
                .iter()
                .enumerate()
                .map(|(i, c)| node(i as DatasetId, c))
                .collect();
            let index = DitsLocal::build(nodes.clone(), DitsLocalConfig { leaf_capacity: 3 });
            // Price each dataset by its coverage.
            let mut prices = PriceBook::new();
            for n in &nodes {
                prices.set(n.id, n.coverage() as f64);
            }
            let query = cs(&[(0, 0), (1, 1)]);
            let (result, _) = budgeted_coverage_search(
                &index,
                &query,
                &prices,
                BudgetedConfig::new(budget, delta),
            );
            // Spending never exceeds the budget and matches the price book.
            prop_assert!(result.spent <= budget + 1e-9);
            prop_assert_eq!(prices.total(&result.datasets), Some(result.spent));
            // Coverage bookkeeping is consistent.
            let mut union = query.clone();
            for id in &result.datasets {
                let node = nodes.iter().find(|n| n.id == *id).unwrap();
                union.union_in_place(&node.cells);
            }
            prop_assert_eq!(union.len(), result.coverage);
            // The purchases together with the query stay connected.
            let chosen: Vec<&CellSet> = nodes
                .iter()
                .filter(|n| result.datasets.contains(&n.id))
                .map(|n| &n.cells)
                .collect();
            let mut sets = chosen.clone();
            sets.push(&query);
            prop_assert!(satisfies_spatial_connectivity(&sets, delta));
        }
    }
}
