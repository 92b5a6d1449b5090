//! Federated search across the five (synthetic) open-data portals of the
//! paper: one `SearchRequest` per search kind goes to the framework, the
//! query engine routes the batch with DITS-G, ships clipped queries to the
//! candidate sources in parallel (one source = one shard), and aggregates
//! their local results — while the communication cost of every exchange is
//! measured in actual bytes.
//!
//! `SearchRequest` + `MultiSourceFramework::search` is the query surface.
//! (For the same requests over a real TCP federation, see
//! `examples/federated_tcp.rs`.)
//!
//! ```text
//! cargo run --release --example multi_source_federation
//! ```

use joinable_spatial_search::datagen::{
    generate_source, paper_sources, select_queries, GeneratorConfig, SourceScale,
};
use joinable_spatial_search::multisource::{
    CommConfig, DistributionStrategy, FrameworkConfig, MultiSourceFramework, SearchRequest,
};
use joinable_spatial_search::spatial::SpatialDataset;

fn main() {
    // Generate all five sources at 1/50 of the paper's size.
    let generator = GeneratorConfig {
        scale: SourceScale::Fiftieth,
        seed: 2025,
        max_points_per_dataset: Some(500),
    };
    let source_data: Vec<(String, Vec<SpatialDataset>)> = paper_sources()
        .iter()
        .map(|p| (p.name.to_string(), generate_source(p, &generator)))
        .collect();
    for (name, datasets) in &source_data {
        println!("{name:<18} {:>5} datasets", datasets.len());
    }

    // Pick ten query datasets from the federation.
    let pool: Vec<SpatialDataset> = source_data
        .iter()
        .flat_map(|(_, d)| d.iter().cloned())
        .collect();
    let queries = select_queries(&pool, 10, 3);

    let comm_config = CommConfig::default();
    for strategy in [
        DistributionStrategy::Broadcast,
        DistributionStrategy::Pruned,
        DistributionStrategy::PrunedClipped,
    ] {
        let framework = MultiSourceFramework::try_build(
            &source_data,
            FrameworkConfig {
                resolution: 12,
                leaf_capacity: 10,
                delta_cells: 10.0,
                strategy,
                workers: 0, // one engine worker per CPU
            },
        )
        .expect("static configuration is valid");

        // One unified request per search kind; each batch goes through the
        // parallel QueryEngine (every (query, candidate source) pair is one
        // shard task).
        let ojsp = framework
            .search(&SearchRequest::ojsp_batch(queries.clone()).k(10))
            .expect("in-process search");
        let cjsp = framework
            .search(&SearchRequest::cjsp_batch(queries.clone()).k(10))
            .expect("in-process search");
        let knn = framework
            .search(&SearchRequest::knn_batch(queries.clone()).k(5))
            .expect("in-process search");
        println!(
            "\nstrategy {:?}\n  OJSP: {} requests, {} bytes, {:.1} ms transmission, {:.1} ms search, {} index nodes visited",
            strategy,
            ojsp.comm.requests,
            ojsp.comm.total_bytes(),
            ojsp.comm.transmission_time_ms(&comm_config),
            ojsp.elapsed.as_secs_f64() * 1e3,
            ojsp.search.nodes_visited,
        );
        println!(
            "  CJSP: {} requests, {} bytes, {:.1} ms transmission, {:.1} ms search",
            cjsp.comm.requests,
            cjsp.comm.total_bytes(),
            cjsp.comm.transmission_time_ms(&comm_config),
            cjsp.elapsed.as_secs_f64() * 1e3,
        );
        println!(
            "  kNN : {} requests, {} bytes ({} sources contacted)",
            knn.comm.requests,
            knn.comm.total_bytes(),
            knn.comm.sources_contacted,
        );
        // Show the best federated match of the first query.
        let answers = ojsp.overlap().expect("OJSP answers");
        if let Some((source, result)) = answers[0].results.first() {
            println!(
                "  best match for query 0: dataset {} of source {} ({} shared cells)",
                result.dataset, source, result.overlap
            );
        }
        let neighbors = knn.knn().expect("kNN answers");
        if let Some((source, neighbor)) = neighbors[0].neighbors.first() {
            println!(
                "  nearest dataset to query 0: dataset {} of source {} (distance {:.1} cells)",
                neighbor.dataset, source, neighbor.distance
            );
        }
    }
}
