//! Integration tests that replay the worked examples of the paper across
//! crate boundaries: the Fig. 2 grid, Example 2/3 cell sets and distances,
//! the Fig. 4 leaf inverted index, and the Fig. 5 overlap bounds.

use joinable_spatial_search::dits::bounds::{
    leaf_overlap_lower_bound, leaf_overlap_upper_bound, node_distance_bounds,
};
use joinable_spatial_search::dits::{
    coverage_search, overlap_search, CoverageConfig, DatasetNode, DitsLocal, DitsLocalConfig,
    InvertedIndex,
};
use joinable_spatial_search::spatial::{
    dataset_distance, is_directly_connected, satisfies_spatial_connectivity, zorder, CellSet, Grid,
    GridConfig, Point,
};

/// Example 2 (Fig. 2): a 4×4 grid over a unit space, three datasets whose
/// cell-based representations are S_D1 = {9, 11}, S_D2 = {1, 3},
/// S_D3 = {12, 13}.
fn example2_sets() -> (CellSet, CellSet, CellSet) {
    (
        CellSet::from_cells([9u64, 11]),
        CellSet::from_cells([1u64, 3]),
        CellSet::from_cells([12u64, 13]),
    )
}

#[test]
fn fig2_zorder_numbering_is_reproduced() {
    // The z-order ids of the 4×4 grid in Fig. 2(a), bottom row first.
    let expected: [[u64; 4]; 4] = [[0, 1, 4, 5], [2, 3, 6, 7], [8, 9, 12, 13], [10, 11, 14, 15]];
    for (y, row) in expected.iter().enumerate() {
        for (x, id) in row.iter().enumerate() {
            assert_eq!(zorder::cell_id(x as u32, y as u32), *id);
        }
    }
    // Gridding points through the public Grid API produces the same ids.
    let grid = Grid::new(GridConfig {
        origin: Point::new(0.0, 0.0),
        width: 1.0,
        height: 1.0,
        resolution: 2,
    })
    .unwrap();
    assert_eq!(grid.cell_of(&Point::new(0.30, 0.55)).unwrap(), 9);
}

#[test]
fn example3_distances_and_connectivity() {
    let (d1, d2, d3) = example2_sets();
    assert_eq!(dataset_distance(&d1, &d2), 1.0);
    assert_eq!(dataset_distance(&d1, &d3), 1.0);
    assert!((dataset_distance(&d2, &d3) - 2f64.sqrt()).abs() < 1e-12);
    // δ = 1: D1–D2 and D1–D3 directly connected, D2–D3 only indirectly.
    assert!(is_directly_connected(&d1, &d2, 1.0));
    assert!(is_directly_connected(&d1, &d3, 1.0));
    assert!(!is_directly_connected(&d2, &d3, 1.0));
    assert!(satisfies_spatial_connectivity(&[&d1, &d2, &d3], 1.0));
}

#[test]
fn fig4_leaf_inverted_index_posting_lists() {
    // Source 3 of Fig. 4 holds D9 = {22, 23} and D10 = {20, 22}; the leaf
    // posting lists are 20 → {D10}, 22 → {D9, D10}, 23 → {D9}.
    let d9 = CellSet::from_cells([22u64, 23]);
    let d10 = CellSet::from_cells([20u64, 22]);
    let inv = InvertedIndex::build([(9u32, &d9), (10u32, &d10)]);
    assert_eq!(inv.posting_list(20), Some(vec![10]));
    assert_eq!(inv.posting_list(22), Some(vec![9, 10]));
    assert_eq!(inv.posting_list(23), Some(vec![9]));
}

#[test]
fn fig5_bounds_sandwich_the_exact_overlap() {
    let d1 = CellSet::from_cells([7u64, 9, 11]);
    let d2 = CellSet::from_cells([9u64, 12, 13]);
    let inv = InvertedIndex::build([(1u32, &d1), (2u32, &d2)]);
    let query = CellSet::from_cells([3u64, 9]);
    let lb = leaf_overlap_lower_bound(&inv, &query);
    let ub = leaf_overlap_upper_bound(&inv, &query);
    assert_eq!((lb, ub), (1, 1));
    for d in [&d1, &d2] {
        let exact = d.intersection_size(&query);
        assert!(lb <= exact && exact <= ub);
    }
}

#[test]
fn lemma4_bounds_hold_for_arbitrary_dataset_nodes() {
    let a = DatasetNode::from_cell_set(0, CellSet::from_cells([0u64, 3, 12])).unwrap();
    let b = DatasetNode::from_cell_set(1, CellSet::from_cells([48u64, 51])).unwrap();
    let exact = dataset_distance(&a.cells, &b.cells);
    let (lb, ub) = node_distance_bounds(&a.geometry, &b.geometry);
    assert!(lb <= exact + 1e-9);
    assert!(exact <= ub + 1e-9);
}

#[test]
fn example1_style_search_over_a_small_portal() {
    // A miniature version of the Example 1 workflow: a D.C. query against a
    // portal of routes; OJSP enriches in depth, CJSP in width.
    let grid = Grid::global(12).unwrap();
    let route = |id: u32, lon0: f64, lat0: f64| {
        DatasetNode::from_dataset(
            &grid,
            &joinable_spatial_search::spatial::SpatialDataset::new(
                id,
                (0..30)
                    .map(|i| Point::new(lon0 + i as f64 * 0.01, lat0 + i as f64 * 0.004))
                    .collect(),
            ),
        )
        .unwrap()
    };
    let nodes = vec![
        route(0, -77.05, 38.88),
        route(1, -77.03, 38.89),
        route(2, -76.90, 38.95),
        route(3, -76.75, 39.00),
        route(4, 116.30, 39.90),
    ];
    let index = DitsLocal::build(nodes, DitsLocalConfig::default());
    let query = CellSet::from_points(
        &grid,
        &(0..30)
            .map(|i| Point::new(-77.05 + i as f64 * 0.01, 38.88 + i as f64 * 0.004))
            .collect::<Vec<_>>(),
    );
    // OJSP: the identical route 0 is the best match, Beijing never appears.
    let (overlaps, _) = overlap_search(&index, &query, 4);
    assert_eq!(overlaps[0].dataset, 0);
    assert!(overlaps.iter().all(|r| r.dataset != 4));
    // CJSP: nearby connected routes extend the coverage beyond the query.
    let (coverage, _) = coverage_search(&index, &query, CoverageConfig::new(4, 10.0));
    assert!(coverage.coverage > coverage.query_coverage);
    assert!(!coverage.datasets.contains(&4));
}
