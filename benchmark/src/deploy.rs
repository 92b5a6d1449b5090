//! The deployment under test and its in-process twin.
//!
//! Federated workloads reach five `source-server` processes through
//! `net::PooledTcpTransport` → `DataCenter::from_transport` →
//! `QueryEngine::new`, all with default configurations.  The twin is a
//! `MultiSourceFramework` over the same corpus: the correctness oracle, and
//! the object the layer probe calls into.  For `knn_batch` the framework
//! *is* the deployment.

use std::path::{Path, PathBuf};
use std::time::Instant;

use multisource::{DataCenter, FrameworkConfig, MultiSourceFramework};
use net::PooledTcpTransport;

use crate::fleet::Fleet;
use crate::stats::median;
use crate::workload::{generate_corpus, DELTA_CELLS, LEAF_CAPACITY, THETA};

/// Where the pieces a federated set-up needs live.
#[derive(Debug, Clone)]
pub struct DeployConfig {
    pub server_bin: PathBuf,
    /// Directory (inside the checkout) for the fleets' data files.
    pub scratch: PathBuf,
    pub quick: bool,
}

/// How long each step of one set-up took, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimings {
    pub generate_s: f64,
    pub tsv_s: f64,
    pub spawn_s: f64,
    pub connect_s: f64,
    pub bootstrap_s: f64,
    pub build_s: f64,
    /// The gated figure: generation to a bootstrapped center (federated),
    /// or generation to a built framework (in-process).
    pub total_s: f64,
}

/// The federated half.  Field order is drop order: the center and the pool
/// go before the fleet, so the servers see their connections close before
/// they are asked to drain.
pub struct Federation {
    pub center: DataCenter,
    pub pool: PooledTcpTransport,
    pub fleet: Fleet,
}

/// The framework configuration of the paper's defaults; `workers = 0` is
/// one engine worker per CPU.
pub fn framework_config() -> FrameworkConfig {
    let config = FrameworkConfig::default();
    debug_assert_eq!(
        (
            config.resolution,
            config.leaf_capacity,
            config.delta_cells,
            config.workers
        ),
        (THETA, LEAF_CAPACITY, DELTA_CELLS, 0)
    );
    config
}

/// One federated set-up from nothing: generate, write TSVs, spawn, connect,
/// bootstrap.
pub fn setup_federation(config: &DeployConfig) -> Result<(Federation, SetupTimings), String> {
    let started = Instant::now();
    let corpus = generate_corpus(config.quick);
    let generate_s = started.elapsed().as_secs_f64();

    let spawn_started = Instant::now();
    let (fleet, tsv) = Fleet::spawn(&config.server_bin, &config.scratch, &corpus)?;
    let tsv_s = tsv.as_secs_f64();
    let spawn_s = spawn_started.elapsed().as_secs_f64() - tsv_s;

    let connect_started = Instant::now();
    let pool =
        PooledTcpTransport::new(fleet.endpoints()).map_err(|e| format!("pooled transport: {e}"))?;
    let connect_s = connect_started.elapsed().as_secs_f64();

    let bootstrap_started = Instant::now();
    let center = DataCenter::from_transport(&pool, LEAF_CAPACITY)
        .map_err(|e| format!("summary poll: {e}"))?;
    let bootstrap_s = bootstrap_started.elapsed().as_secs_f64();

    let timings = SetupTimings {
        generate_s,
        tsv_s,
        spawn_s,
        connect_s,
        bootstrap_s,
        build_s: 0.0,
        total_s: started.elapsed().as_secs_f64(),
    };
    Ok((
        Federation {
            center,
            pool,
            fleet,
        },
        timings,
    ))
}

/// One in-process set-up from nothing: generate, build every DITS-L and
/// DITS-G.
pub fn setup_in_process(quick: bool) -> (MultiSourceFramework, SetupTimings) {
    let started = Instant::now();
    let corpus = generate_corpus(quick);
    let generate_s = started.elapsed().as_secs_f64();
    let build_started = Instant::now();
    let framework = MultiSourceFramework::build(&corpus, framework_config());
    let timings = SetupTimings {
        generate_s,
        build_s: build_started.elapsed().as_secs_f64(),
        total_s: started.elapsed().as_secs_f64(),
        ..SetupTimings::default()
    };
    (framework, timings)
}

/// The median of each step over a run's set-ups, so that work moved into
/// set-up shows and one slow spawn does not.
pub fn median_timings(all: &[SetupTimings]) -> SetupTimings {
    let pick = |f: fn(&SetupTimings) -> f64| median(&all.iter().map(f).collect::<Vec<f64>>());
    SetupTimings {
        generate_s: pick(|t| t.generate_s),
        tsv_s: pick(|t| t.tsv_s),
        spawn_s: pick(|t| t.spawn_s),
        connect_s: pick(|t| t.connect_s),
        bootstrap_s: pick(|t| t.bootstrap_s),
        build_s: pick(|t| t.build_s),
        total_s: pick(|t| t.total_s),
    }
}

/// The `source-server` the root workspace built, relative to the checkout
/// root the benchmark is run from.
pub fn default_server_bin() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("release").join("source-server")
}

/// `benchmark/out`, the only place the benchmark writes.
pub fn default_out_dir() -> PathBuf {
    Path::new("benchmark").join("out")
}
