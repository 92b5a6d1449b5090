//! A real 3-source TCP federation: every data source serves the framed
//! multi-source protocol on its own loopback socket, the data center
//! bootstraps DITS-G by polling the sockets for root summaries, and the same
//! `SearchRequest`s that drive the in-process benchmarks execute over the
//! wire — with byte-identical answers and byte-identical communication
//! accounting.
//!
//! The servers here run as threads of this process for a self-contained
//! demo; the `source-server` binary serves the identical protocol as a
//! standalone process (`source-server --id 0 --data points.tsv …`), so the
//! same client code federates sources on other machines.
//!
//! ```text
//! cargo run --release --example federated_tcp
//! ```

use joinable_spatial_search::datagen::{
    generate_source, paper_sources, select_queries, GeneratorConfig, SourceScale,
};
use joinable_spatial_search::dits::DitsLocalConfig;
use joinable_spatial_search::multisource::{
    DataCenter, DataSource, EngineConfig, QueryEngine, SearchRequest, SourceServer,
};
use joinable_spatial_search::spatial::{Grid, SpatialDataset};
use net::PooledTcpTransport;

fn main() {
    let resolution = 12;
    let leaf_capacity = 10;
    let delta_cells = 10.0;

    // Three synthetic portals (a subset of the paper's five).
    let generator = GeneratorConfig {
        scale: SourceScale::Fiftieth,
        seed: 7,
        max_points_per_dataset: Some(400),
    };
    let grid = Grid::global(resolution).expect("valid resolution");
    let source_data: Vec<(String, Vec<SpatialDataset>)> = paper_sources()
        .iter()
        .take(3)
        .map(|p| (p.name.to_string(), generate_source(p, &generator)))
        .collect();

    // One TCP server per source, each on its own ephemeral loopback port.
    let mut endpoints = Vec::new();
    for (id, (name, datasets)) in source_data.iter().enumerate() {
        let source = DataSource::build(
            id as u16,
            name.clone(),
            grid,
            datasets,
            DitsLocalConfig { leaf_capacity },
        );
        let server = SourceServer::spawn("127.0.0.1:0", source).expect("bind loopback");
        println!(
            "{name:<18} {:>5} datasets  serving on {}",
            datasets.len(),
            server.addr()
        );
        endpoints.push(server.endpoint());
    }

    // The data center learns the federation by polling summaries over TCP.
    let transport = PooledTcpTransport::new(endpoints).expect("pooled transport");
    let center =
        DataCenter::from_transport(&transport, leaf_capacity).expect("summary poll over TCP");
    println!(
        "\ndata center bootstrapped: {} sources registered in DITS-G\n",
        center.global().source_count()
    );

    // The same unified requests the in-process deployment runs.
    let engine = QueryEngine::new(
        &center,
        &transport,
        EngineConfig {
            delta_cells,
            ..EngineConfig::default()
        },
    );
    let pool: Vec<SpatialDataset> = source_data
        .iter()
        .flat_map(|(_, d)| d.iter().cloned())
        .collect();
    let queries = select_queries(&pool, 8, 5);

    for (label, request) in [
        ("OJSP", SearchRequest::ojsp_batch(queries.clone()).k(10)),
        ("CJSP", SearchRequest::cjsp_batch(queries.clone()).k(5)),
        ("kNN ", SearchRequest::knn_batch(queries.clone()).k(5)),
    ] {
        let response = engine.run(&request).expect("federated search");
        println!(
            "{label}: {} queries, {} requests over TCP, {} protocol bytes, {:.1} ms wall clock",
            response.results.len(),
            response.comm.requests,
            response.comm.total_bytes(),
            response.elapsed.as_secs_f64() * 1e3,
        );
        for timing in &response.per_source {
            println!(
                "      source {}: {} requests, {} bytes, {:.2} ms on the wire",
                timing.source,
                timing.requests,
                timing.bytes,
                timing.elapsed.as_secs_f64() * 1e3,
            );
        }
    }

    // Show the best federated match of the first query.
    let response = engine
        .run(&SearchRequest::ojsp(queries[0].clone()).k(1))
        .expect("federated search");
    if let Some((source, result)) = response.overlap().expect("OJSP answers")[0].results.first() {
        println!(
            "\nbest match for query {}: dataset {} of source {source} ({} shared cells)",
            queries[0].id, result.dataset, result.overlap
        );
    }
}
