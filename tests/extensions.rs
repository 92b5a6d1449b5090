//! Cross-crate integration tests for the extension layers: approximate
//! search, price-aware combination search and transit applications, all
//! exercised through the public façade exactly the way a downstream user
//! would.

use joinable_spatial_search::approx_join::{ApproxConfig, ApproxOverlapIndex, LshConfig};
use joinable_spatial_search::dits::{overlap_search, DatasetNode, DitsLocal, DitsLocalConfig};
use joinable_spatial_search::pricing::{
    budgeted_coverage_search, rank_by_value, BudgetedConfig, PriceBook, PricingModel,
};
use joinable_spatial_search::spatial::{CellSet, DatasetId, Grid, Point, SpatialDataset};
use joinable_spatial_search::transit::{
    find_near_duplicates, generate_network, plan_transfers, NearDuplicateConfig, NetworkConfig,
    TransferPlanConfig,
};

/// A deterministic corpus of route-like datasets around Washington, D.C.
fn corpus(grid: &Grid, n: u32) -> Vec<(DatasetId, CellSet)> {
    (0..n)
        .filter_map(|i| {
            let lon = -77.4 + f64::from(i % 25) * 0.02;
            let lat = 38.6 + f64::from(i / 25) * 0.04;
            let points: Vec<Point> = (0..50)
                .map(|j| Point::new(lon + j as f64 * 0.004, lat + j as f64 * 0.002))
                .collect();
            SpatialDataset::new(i, points)
                .to_cell_set(grid)
                .ok()
                .map(|c| (i, c))
        })
        .collect()
}

fn query(grid: &Grid) -> CellSet {
    let points: Vec<Point> = (0..60)
        .map(|i| Point::new(-77.4 + i as f64 * 0.004, 38.6 + i as f64 * 0.0022))
        .collect();
    CellSet::from_points(grid, &points)
}

#[test]
fn approximate_search_recovers_the_exact_top_k_on_this_corpus() {
    let grid = Grid::global(12).unwrap();
    let cells = corpus(&grid, 300);
    let q = query(&grid);

    let nodes: Vec<DatasetNode> = cells
        .iter()
        .filter_map(|(id, c)| DatasetNode::from_cell_set(*id, c.clone()))
        .collect();
    let exact_index = DitsLocal::build(nodes, DitsLocalConfig::default());
    let (exact, _) = overlap_search(&exact_index, &q, 5);

    let approx_index = ApproxOverlapIndex::build(
        cells.iter().map(|(id, c)| (*id, c)),
        ApproxConfig {
            lsh: LshConfig {
                signature_len: 192,
                ..LshConfig::default()
            },
            ..ApproxConfig::default()
        },
    );
    let approx = approx_index.search(&q, 5);

    // With exact re-ranking the approximate pipeline must reproduce the exact
    // overlap values (the candidate shortlist easily contains the top-5 of
    // this strongly clustered corpus).
    assert_eq!(
        exact.iter().map(|r| r.overlap).collect::<Vec<_>>(),
        approx
            .iter()
            .map(|r| r.overlap as usize)
            .collect::<Vec<_>>()
    );
}

#[test]
fn marketplace_pipeline_is_consistent_with_its_price_book() {
    let grid = Grid::global(12).unwrap();
    let cells = corpus(&grid, 100);
    let nodes: Vec<DatasetNode> = cells
        .iter()
        .filter_map(|(id, c)| DatasetNode::from_cell_set(*id, c.clone()))
        .collect();
    let index = DitsLocal::build(nodes.clone(), DitsLocalConfig::default());
    let q = query(&grid);

    let model = PricingModel::PerCell {
        rate: 0.25,
        minimum: 1.0,
    };
    let prices = PriceBook::from_model(&model, nodes.iter());
    let ranking = rank_by_value(&nodes, &q, &prices);
    assert_eq!(ranking.len(), nodes.len());

    for budget in [5.0, 20.0, 80.0] {
        let (result, _) =
            budgeted_coverage_search(&index, &q, &prices, BudgetedConfig::new(budget, 8.0));
        assert!(result.spent <= budget + 1e-9);
        assert_eq!(prices.total(&result.datasets), Some(result.spent));
        assert!(result.coverage >= result.query_coverage);
    }

    // A larger budget can never reduce the achievable coverage.
    let (small, _) = budgeted_coverage_search(&index, &q, &prices, BudgetedConfig::new(10.0, 8.0));
    let (large, _) = budgeted_coverage_search(&index, &q, &prices, BudgetedConfig::new(200.0, 8.0));
    assert!(large.coverage >= small.coverage);
}

#[test]
fn transit_workflow_runs_end_to_end_on_a_generated_city() {
    let network = generate_network(&NetworkConfig {
        grid_routes: 16,
        radial_routes: 6,
        duplicates: 4,
        ..NetworkConfig::default()
    });
    // Near-duplicate detection finds at least the injected rebrandings.
    let duplicates = find_near_duplicates(&network, &NearDuplicateConfig::default());
    assert!(duplicates.len() >= 4);

    // Transfer planning around every radial line produces connected plans.
    for corridor in network.iter().skip(16).take(6) {
        let plan = plan_transfers(
            &network,
            corridor,
            &TransferPlanConfig {
                k: 4,
                ..TransferPlanConfig::default()
            },
        );
        assert!(plan.coverage >= plan.query_coverage);
        assert_eq!(plan.selected.len(), plan.transfers.len());
        for t in &plan.transfers {
            assert!(t.distance_cells <= TransferPlanConfig::default().max_transfer_cells);
            assert!(!plan.selected.is_empty());
        }
    }
}
