//! Transit planning end to end: the paper's motivating example as code.
//!
//! Generates a synthetic city transit network, finds rebranded near-duplicate
//! routes with the overlap joinable search, and plans a transfer network
//! around a chosen corridor with the coverage joinable search.
//!
//! ```text
//! cargo run --release --example transit_planning
//! ```

use joinable_spatial_search::transit::{
    find_near_duplicates, generate_network, plan_transfers, NearDuplicateConfig, NetworkConfig,
    TransferPlanConfig,
};

fn main() {
    // 1. A synthetic city: grid bus routes, radial metro lines and a few
    //    rebranded duplicates.
    let network = generate_network(&NetworkConfig {
        grid_routes: 24,
        radial_routes: 10,
        duplicates: 6,
        ..NetworkConfig::default()
    });
    println!("generated {} routes", network.len());

    // 2. Near-duplicate detection (OJSP): which routes are the same shape
    //    under a different name?
    let duplicates = find_near_duplicates(&network, &NearDuplicateConfig::default());
    println!("\nnear-duplicate pairs (overlap ≥ 80% of the smaller route):");
    for pair in duplicates.iter().take(8) {
        println!(
            "  routes {:>2} and {:>2}: {:>3} shared cells ({:.0}% overlap)",
            pair.first,
            pair.second,
            pair.shared_cells,
            pair.overlap_fraction * 100.0
        );
    }

    // 3. Transfer planning (CJSP): extend the first bus corridor with up to
    //    five connected routes that maximise the covered area.
    let corridor = network[0].clone();
    let plan = plan_transfers(
        &network,
        &corridor,
        &TransferPlanConfig {
            k: 5,
            ..TransferPlanConfig::default()
        },
    );
    println!(
        "\ntransfer plan around '{}' ({} → {} covered cells):",
        corridor.name, plan.query_coverage, plan.coverage
    );
    for (route, transfer) in plan.selected.iter().zip(plan.transfers.iter()) {
        let name = network
            .iter()
            .find(|r| r.id == *route)
            .map(|r| r.name.as_str())
            .unwrap_or("?");
        println!(
            "  transfer to {:<20} at ({:>8.4}, {:>7.4}), {:.1} cells away",
            name, transfer.location.x, transfer.location.y, transfer.distance_cells
        );
    }
}
