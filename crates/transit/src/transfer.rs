//! Transfer-network planning driven by the coverage joinable search.
//!
//! The second half of the paper's Example 1: given a query corridor (the
//! route a planner starts from), find `k` routes that are directly or
//! indirectly connected to it and maximise the covered area — the routes a
//! rider could transfer to without an unreasonable walk.  On top of the raw
//! CJSP answer this module derives the *transfer points*: for every selected
//! route, the grid cell where it comes closest to the already-connected part
//! of the plan, which is where the planner would place the interchange.

use crate::route::TransitRoute;
use dits::{coverage_search, CoverageConfig, DatasetNode, DitsLocal, DitsLocalConfig};
use serde::{Deserialize, Serialize};
use spatial::zorder::cell_coords;
use spatial::{CellId, CellSet, DatasetId, Grid, Point};
use std::collections::HashMap;

/// Configuration of a transfer plan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferPlanConfig {
    /// Grid resolution θ used to rasterise the routes.
    pub resolution: u32,
    /// Resampling spacing along route polylines, in degrees.
    pub spacing: f64,
    /// Number of routes to add to the plan (the `k` of CJSP).
    pub k: usize,
    /// Maximum transfer distance in grid cells (the δ of CJSP): how far apart
    /// two routes may be while still counting as transferable.
    pub max_transfer_cells: f64,
    /// Leaf capacity of the temporary index.
    pub leaf_capacity: usize,
}

impl Default for TransferPlanConfig {
    fn default() -> Self {
        Self {
            resolution: 13,
            spacing: 0.005,
            k: 4,
            max_transfer_cells: 2.0,
            leaf_capacity: 10,
        }
    }
}

/// A transfer point between a newly added route and the existing plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferPoint {
    /// The route being added.
    pub route: DatasetId,
    /// Grid cell of the interchange (on the added route, closest to the plan).
    pub cell: CellId,
    /// Approximate longitude/latitude of the interchange (cell centre).
    pub location: Point,
    /// Distance in cells between the added route and the plan at this point
    /// (0 when they share a cell).
    pub distance_cells: f64,
}

/// The result of planning transfers around a query corridor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferPlan {
    /// Routes selected by the coverage search, in greedy order.
    pub selected: Vec<DatasetId>,
    /// One transfer point per selected route (same order).
    pub transfers: Vec<TransferPoint>,
    /// Covered cells of the final plan (query plus selected routes).
    pub coverage: usize,
    /// Covered cells of the query corridor alone.
    pub query_coverage: usize,
}

impl TransferPlan {
    /// Coverage gained over the query corridor alone.
    pub fn coverage_gain(&self) -> usize {
        self.coverage - self.query_coverage
    }
}

/// Plans transfers around a query corridor: selects up to `k` connected
/// routes with maximum coverage and derives a transfer point for each.
///
/// Routes that rasterise to no cell (or an invalid resolution) make the plan
/// degrade to "no selections" rather than fail.
pub fn plan_transfers(
    routes: &[TransitRoute],
    query: &TransitRoute,
    config: &TransferPlanConfig,
) -> TransferPlan {
    let empty = TransferPlan {
        selected: Vec::new(),
        transfers: Vec::new(),
        coverage: 0,
        query_coverage: 0,
    };
    let Ok(grid) = Grid::global(config.resolution) else {
        return empty;
    };
    let Ok(query_cells) = query.to_dataset(config.spacing).to_cell_set(&grid) else {
        return empty;
    };
    let nodes: Vec<DatasetNode> = routes
        .iter()
        .filter(|r| r.id != query.id)
        .filter_map(|r| DatasetNode::from_dataset(&grid, &r.to_dataset(config.spacing)).ok())
        .collect();
    let cells_by_id: HashMap<DatasetId, CellSet> =
        nodes.iter().map(|n| (n.id, n.cells.clone())).collect();
    let index = DitsLocal::build(
        nodes,
        DitsLocalConfig {
            leaf_capacity: config.leaf_capacity.max(1),
        },
    );
    let (result, _) = coverage_search(
        &index,
        &query_cells,
        CoverageConfig::new(config.k, config.max_transfer_cells),
    );

    // Derive transfer points by replaying the greedy merge order.
    let mut merged = query_cells.clone();
    let mut transfers = Vec::with_capacity(result.datasets.len());
    for id in &result.datasets {
        let cells = &cells_by_id[id];
        let (cell, distance_cells) = closest_cell(cells, &merged);
        transfers.push(TransferPoint {
            route: *id,
            cell,
            location: grid.cell_center(cell),
            distance_cells,
        });
        merged.union_in_place(cells);
    }

    TransferPlan {
        selected: result.datasets,
        transfers,
        coverage: result.coverage,
        query_coverage: result.query_coverage,
    }
}

/// The cell of `candidate` closest to `target`, with its distance in cells.
fn closest_cell(candidate: &CellSet, target: &CellSet) -> (CellId, f64) {
    let mut best_cell = candidate.first().unwrap_or(0);
    let mut best = f64::INFINITY;
    for c in candidate.iter() {
        let (cx, cy) = cell_coords(c);
        for t in target.iter() {
            let (tx, ty) = cell_coords(t);
            let dx = cx as f64 - tx as f64;
            let dy = cy as f64 - ty as f64;
            let d = (dx * dx + dy * dy).sqrt();
            if d < best {
                best = d;
                best_cell = c;
                if best == 0.0 {
                    return (best_cell, 0.0);
                }
            }
        }
    }
    (best_cell, best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{generate_network, NetworkConfig, RouteMode};

    fn horizontal(id: DatasetId, y: f64, x0: f64, x1: f64) -> TransitRoute {
        TransitRoute::new(
            id,
            format!("route-{id}"),
            RouteMode::Bus,
            vec![Point::new(x0, y), Point::new(x1, y)],
        )
    }

    fn vertical(id: DatasetId, x: f64, y0: f64, y1: f64) -> TransitRoute {
        TransitRoute::new(
            id,
            format!("route-{id}"),
            RouteMode::Metro,
            vec![Point::new(x, y0), Point::new(x, y1)],
        )
    }

    #[test]
    fn crossing_routes_are_selected_with_zero_distance_transfers() {
        // Query: horizontal corridor.  Candidates: two vertical routes that
        // cross it and one far-away route.
        let query = horizontal(100, 38.90, -77.10, -76.90);
        let routes = vec![
            vertical(0, -77.05, 38.80, 39.00),
            vertical(1, -76.95, 38.80, 39.00),
            horizontal(2, 45.0, 10.0, 10.2),
        ];
        let plan = plan_transfers(&routes, &query, &TransferPlanConfig::default());
        assert_eq!(plan.selected.len(), 2);
        assert!(plan.selected.contains(&0) && plan.selected.contains(&1));
        assert_eq!(plan.transfers.len(), 2);
        for t in &plan.transfers {
            // Crossing routes share a cell with the corridor: distance 0.
            assert_eq!(t.distance_cells, 0.0);
            // The interchange lies on the corridor's latitude give or take a
            // cell.
            assert!((t.location.y - 38.90).abs() < 0.05);
        }
        assert!(plan.coverage_gain() > 0);
        assert!(plan.coverage > plan.query_coverage);
    }

    #[test]
    fn chained_transfers_reach_indirectly_connected_routes() {
        // Route 2 is reachable only through route 1: it lies a quarter of a
        // degree east of both the query corridor and route 0, far beyond the
        // transfer distance, but route 1 bridges the gap.  With k=3 the plan
        // must include all three, and route 2 can only appear after route 1.
        let query = horizontal(100, 38.90, -77.10, -77.05);
        let routes = vec![
            vertical(0, -77.05, 38.85, 38.95),
            horizontal(1, 38.95, -77.05, -76.80),
            vertical(2, -76.80, 38.95, 39.05),
        ];
        let plan = plan_transfers(
            &routes,
            &query,
            &TransferPlanConfig {
                k: 3,
                ..TransferPlanConfig::default()
            },
        );
        assert_eq!(plan.selected.len(), 3);
        // The greedy order must respect the chain: route 2 after route 1.
        let pos = |id: DatasetId| plan.selected.iter().position(|d| *d == id).unwrap();
        assert!(pos(1) < pos(2));
    }

    #[test]
    fn k_and_transfer_distance_bound_the_plan() {
        let query = horizontal(100, 38.90, -77.10, -76.80);
        // Spaced wider than one grid cell (≈0.044° of longitude at θ=13) so
        // every route rasterises into its own column and contributes new
        // coverage.
        let routes: Vec<TransitRoute> = (0..6)
            .map(|i| vertical(i, -77.08 + i as f64 * 0.05, 38.80, 39.00))
            .collect();
        let small = plan_transfers(
            &routes,
            &query,
            &TransferPlanConfig {
                k: 2,
                ..TransferPlanConfig::default()
            },
        );
        assert_eq!(small.selected.len(), 2);
        // A one-cell transfer distance admits every crossing route (they
        // either share the crossing cell or sit in the neighbouring one after
        // rasterisation).
        let strict = plan_transfers(
            &routes,
            &query,
            &TransferPlanConfig {
                max_transfer_cells: 1.0,
                k: 6,
                ..TransferPlanConfig::default()
            },
        );
        assert_eq!(strict.selected.len(), 6);
        for t in &strict.transfers {
            assert!(t.distance_cells <= 1.0);
        }
    }

    #[test]
    fn far_away_routes_are_never_selected() {
        let query = horizontal(100, 38.90, -77.10, -76.90);
        let routes = vec![
            horizontal(0, 45.0, 10.0, 10.2),
            vertical(1, 120.0, -5.0, 5.0),
        ];
        let plan = plan_transfers(&routes, &query, &TransferPlanConfig::default());
        assert!(plan.selected.is_empty());
        assert!(plan.transfers.is_empty());
        assert_eq!(plan.coverage, plan.query_coverage);
        assert_eq!(plan.coverage_gain(), 0);
    }

    #[test]
    fn degenerate_inputs_degrade_gracefully() {
        let query = horizontal(100, 38.90, -77.10, -76.90);
        // No candidate routes at all.
        let plan = plan_transfers(&[], &query, &TransferPlanConfig::default());
        assert!(plan.selected.is_empty());
        assert!(plan.coverage > 0, "query itself still counts");
        // Invalid resolution.
        let plan = plan_transfers(
            &[vertical(0, -77.0, 38.8, 39.0)],
            &query,
            &TransferPlanConfig {
                resolution: 0,
                ..TransferPlanConfig::default()
            },
        );
        assert_eq!(plan.coverage, 0);
        // The query itself appears in the candidate list: it must not be
        // selected as its own transfer.
        let plan = plan_transfers(
            &[query.clone(), vertical(0, -77.0, 38.8, 39.0)],
            &query,
            &TransferPlanConfig::default(),
        );
        assert!(!plan.selected.contains(&query.id));
    }

    #[test]
    fn synthetic_network_produces_a_rich_plan() {
        let routes = generate_network(&NetworkConfig::default());
        let query = routes[0].clone();
        let plan = plan_transfers(
            &routes,
            &query,
            &TransferPlanConfig {
                k: 5,
                ..TransferPlanConfig::default()
            },
        );
        assert!(!plan.selected.is_empty());
        assert_eq!(plan.selected.len(), plan.transfers.len());
        assert!(plan.coverage >= plan.query_coverage);
        // Transfer distances are all within the configured bound.
        for t in &plan.transfers {
            assert!(t.distance_cells <= TransferPlanConfig::default().max_transfer_cells);
        }
    }
}
