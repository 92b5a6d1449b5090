//! What the federation suites share, written once: the source builders (the
//! θ = 11 cell space of the named cases, the per-source resolutions of the
//! random federations), the generated federation and its framework, the
//! merged brute-force oracles, the one in-process interception double every
//! fault and oracle transport of the suites is made of, and the two fleets —
//! `SourceServer` threads, and spawned `source-server` processes behind the
//! pooled transport.
//!
//! No suite uses all of it, so each item carries its own
//! `#[allow(dead_code)]` and the reason for it.

use std::io::{BufRead, BufReader, Write as _};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};

use datagen::{generate_source, paper_sources, select_queries, GeneratorConfig, SourceScale};
use dits::knn::nearest_datasets_bruteforce;
use dits::overlap::overlap_search_bruteforce;
use dits::{DatasetNode, DitsLocalConfig, Neighbor, OverlapResult};
use multisource::{
    DataCenter, DataSource, DistributionStrategy, FrameworkConfig, InProcessTransport, Message,
    MultiSourceFramework, SearchRequest, SearchResponse, SourceServer, SourceTransport,
    TransportError, TransportReply,
};
use net::PooledTcpTransport;
use spatial::zorder::cell_id;
use spatial::{Grid, SourceId, SpatialDataset};

// Only the suites that compare the strategies.
#[allow(dead_code)]
pub const STRATEGIES: [DistributionStrategy; 3] = [
    DistributionStrategy::Broadcast,
    DistributionStrategy::Pruned,
    DistributionStrategy::PrunedClipped,
];

/// A dataset with one point at the centre of each cell `(x, y)` of the
/// θ = 11 grid the named cases are laid out in.
// Only the suites with named cases.
#[allow(dead_code)]
pub fn dataset(id: u32, cells: &[(u32, u32)]) -> SpatialDataset {
    let grid = Grid::global(11).expect("θ = 11");
    let points = cells
        .iter()
        .map(|&(x, y)| grid.cell_center(cell_id(x, y)))
        .collect();
    SpatialDataset::new(id, points)
}

/// A source of the θ = 11 cell space the named cases are laid out in.
// Only the suites with named cases.
#[allow(dead_code)]
pub fn source(id: SourceId, datasets: &[SpatialDataset]) -> DataSource {
    source_at(id, 11, datasets)
}

/// Each source of a federation, given as its resolution and datasets, ids
/// ascending from 0.
// Only the suites that generate random federations.
#[allow(dead_code)]
pub fn build_sources(specs: &[(u32, Vec<SpatialDataset>)]) -> Vec<DataSource> {
    specs
        .iter()
        .zip(0..)
        .map(|((resolution, datasets), id)| source_at(id, *resolution, datasets))
        .collect()
}

fn source_at(id: SourceId, resolution: u32, datasets: &[SpatialDataset]) -> DataSource {
    DataSource::build(
        id,
        format!("s{id}"),
        Grid::global(resolution).expect("a valid resolution"),
        datasets,
        DitsLocalConfig::default(),
    )
}

/// The center a summary poll of `sources` bootstraps — the only way a center
/// comes to know its sources, in process as over sockets.
// Only the suites that hold a center beside their own sources.
#[allow(dead_code)]
pub fn polled_center(sources: &[DataSource], leaf_capacity: usize) -> DataCenter {
    DataCenter::from_transport(&InProcessTransport::new(sources), leaf_capacity)
        .expect("summary poll")
}

/// The paper's first `sources` sources, generated from `seed` at scale
/// divisor `scale` with at most `points` points per dataset.
// Only the suites over generated data.
#[allow(dead_code)]
pub fn build_data(
    (scale, points, sources): (u32, usize, usize),
    seed: u64,
) -> Vec<(String, Vec<SpatialDataset>)> {
    let config = GeneratorConfig {
        scale: SourceScale::Custom(scale),
        seed,
        max_points_per_dataset: Some(points),
    };
    paper_sources()
        .iter()
        .take(sources)
        .map(|p| (p.name.to_string(), generate_source(p, &config)))
        .collect()
}

/// The in-process deployment of generated data: θ = 11, `PrunedClipped`.
// Only the suites over generated data.
#[allow(dead_code)]
pub fn framework(data: &[(String, Vec<SpatialDataset>)]) -> MultiSourceFramework {
    MultiSourceFramework::build(
        data,
        FrameworkConfig {
            resolution: 11,
            strategy: DistributionStrategy::PrunedClipped,
            ..FrameworkConfig::default()
        },
    )
}

/// Six queries picked from the datasets of `data`.
// Only the suites that compare deployments.
#[allow(dead_code)]
pub fn probe_queries(data: &[(String, Vec<SpatialDataset>)]) -> Vec<SpatialDataset> {
    let pool: Vec<SpatialDataset> = data.iter().flat_map(|(_, d)| d.iter().cloned()).collect();
    select_queries(&pool, 6, 3)
}

/// One batch of each search kind over `queries`: OJSP (k = 5), CJSP (k = 3)
/// and kNN (k = 4).
// Only the suites over generated data.
#[allow(dead_code)]
pub fn every_kind(queries: &[SpatialDataset]) -> [SearchRequest; 3] {
    [
        SearchRequest::ojsp_batch(queries.to_vec()).k(5),
        SearchRequest::cjsp_batch(queries.to_vec()).k(3),
        SearchRequest::knn_batch(queries.to_vec()).k(4),
    ]
}

/// Five generated sources of longer routes than the other suites' and a
/// CJSP batch of two datasets of each: picks chain away from the query, so
/// some travel as stubs and the center comes back for their cells.
// Only the suites that fetch cells over a socket.
#[allow(dead_code)]
pub fn fetching_cjsp() -> (Vec<(String, Vec<SpatialDataset>)>, SearchRequest) {
    let data = build_data((400, 100, 5), 77);
    let queries: Vec<SpatialDataset> = data
        .iter()
        .flat_map(|(_, d)| d.iter().take(2).cloned())
        .collect();
    (data, SearchRequest::cjsp_batch(queries).k(3))
}

/// Holds `remote` to `local`: the same answers, byte counts and search
/// statistics.
// Only the suites that compare deployments.
#[allow(dead_code)]
pub fn assert_same_response(local: &SearchResponse, remote: &SearchResponse, what: &str) {
    assert_eq!(local.results, remote.results, "{what}: answers diverged");
    assert_eq!(local.comm, remote.comm, "{what}: byte accounting diverged");
    assert_eq!(
        local.search, remote.search,
        "{what}: search statistics diverged"
    );
}

/// The OJSP oracle: every source's brute force at its own resolution, merged
/// the way the center merges replies.
// Only the suites that ask OJSP queries of a hand-built federation.
#[allow(dead_code)]
pub fn merged_ojsp_bruteforce(
    sources: &[DataSource],
    query: &SpatialDataset,
    k: usize,
) -> Vec<(SourceId, OverlapResult)> {
    let mut all: Vec<(SourceId, OverlapResult)> = Vec::new();
    for source in sources {
        let nodes: Vec<DatasetNode> = source.dataset_nodes().into_iter().cloned().collect();
        let local = overlap_search_bruteforce(&nodes, &source.grid_query(query), k);
        all.extend(local.into_iter().map(|r| (source.id, r)));
    }
    all.sort_unstable_by(|a, b| {
        b.1.overlap
            .cmp(&a.1.overlap)
            .then(a.0.cmp(&b.0))
            .then(a.1.dataset.cmp(&b.1.dataset))
    });
    all.truncate(k);
    all
}

/// The kNN oracle: every source's brute force at its own resolution, merged
/// the way the center merges replies.
// Only the suites that ask kNN queries of a hand-built federation.
#[allow(dead_code)]
pub fn merged_knn_bruteforce(
    sources: &[DataSource],
    query: &SpatialDataset,
    k: usize,
) -> Vec<(SourceId, Neighbor)> {
    let mut all: Vec<(SourceId, Neighbor)> = Vec::new();
    for source in sources {
        let nodes: Vec<DatasetNode> = source.dataset_nodes().into_iter().cloned().collect();
        let local = nearest_datasets_bruteforce(&nodes, &source.grid_query(query), k);
        all.extend(local.into_iter().map(|n| (source.id, n)));
    }
    all.sort_unstable_by(|a, b| {
        a.1.distance
            .total_cmp(&b.1.distance)
            .then(a.0.cmp(&b.0))
            .then(a.1.dataset.cmp(&b.1.dataset))
    });
    all.truncate(k);
    all
}

type Refusal<'a> = Box<dyn Fn(SourceId, &Message) -> Option<TransportError> + Sync + 'a>;
type Rewrite<'a> = Box<dyn Fn(SourceId, &mut Message) + Sync + 'a>;

/// In-process sources behind a hook — the one interception double: every
/// in-process fault and every oracle protocol of the suites is this double
/// with its hook.  A refusal hook may fail a call before it reaches its
/// source; a reply hook may change the reply that comes back, whose
/// `reply_bytes` are then recounted.
// Only the suites that inject faults or replay an older protocol.
#[allow(dead_code)]
pub struct Intercepted<'a> {
    sources: &'a [DataSource],
    refuse: Refusal<'a>,
    rewrite: Rewrite<'a>,
}

// Only the suites that inject faults or replay an older protocol.
#[allow(dead_code)]
impl<'a> Intercepted<'a> {
    /// The double with a refusal hook: an error it returns fails the call.
    pub fn refusing(
        sources: &'a [DataSource],
        refuse: impl Fn(SourceId, &Message) -> Option<TransportError> + Sync + 'a,
    ) -> Self {
        let rewrite = Box::new(|_: SourceId, _: &mut Message| {});
        Self {
            sources,
            refuse: Box::new(refuse),
            rewrite,
        }
    }

    /// The double with a reply hook, which sees every reply.
    pub fn rewriting(
        sources: &'a [DataSource],
        rewrite: impl Fn(SourceId, &mut Message) + Sync + 'a,
    ) -> Self {
        let refuse = Box::new(|_: SourceId, _: &Message| None);
        Self {
            sources,
            refuse,
            rewrite: Box::new(rewrite),
        }
    }
}

impl std::fmt::Debug for Intercepted<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Intercepted").finish_non_exhaustive()
    }
}

impl SourceTransport for Intercepted<'_> {
    fn source_ids(&self) -> Vec<SourceId> {
        InProcessTransport::new(self.sources).source_ids()
    }

    fn call(
        &self,
        source: SourceId,
        request: &Message,
        want_stats: bool,
    ) -> Result<TransportReply, TransportError> {
        if let Some(error) = (self.refuse)(source, request) {
            return Err(error);
        }
        let mut reply = InProcessTransport::new(self.sources).call(source, request, want_stats)?;
        (self.rewrite)(source, &mut reply.message);
        reply.reply_bytes = reply.message.wire_size();
        Ok(reply)
    }
}

/// In-process sources of which `dead` fails every call — or, with
/// `fetches_only`, every fetch of cells — with a clone of `error`.
// Only the suites that inject faults.
#[allow(dead_code)]
pub fn with_dead_source(
    sources: &[DataSource],
    dead: SourceId,
    fetches_only: bool,
    error: TransportError,
) -> Intercepted<'_> {
    Intercepted::refusing(sources, move |source, request| {
        let hit = !fetches_only || matches!(request, Message::CellsQuery { .. });
        (source == dead && hit).then(|| error.clone())
    })
}

/// A `SourceServer` thread serving each of `sources` on a loopback port.
// Only the suites that serve over sockets from this process.
#[allow(dead_code)]
pub fn serve_in_threads<'s>(
    sources: impl IntoIterator<Item = &'s DataSource>,
) -> Vec<SourceServer> {
    sources
        .into_iter()
        .map(|s| SourceServer::spawn("127.0.0.1:0", s.clone()).expect("bind loopback"))
        .collect()
}

/// Spawned `source-server` processes, one per `(resolution, datasets)`, ids
/// ascending from 0, and the pooled transport reaching them, which is
/// dropped before them.
// Only the suites that spawn the binary.
#[allow(dead_code)]
pub struct Fleet {
    pub pooled: PooledTcpTransport,
    pub servers: Vec<ServerProcess>,
}

/// Spawns a [`Fleet`]: [`spawn_servers`], then a pooled transport over them.
// Only the suites that spawn the binary.
#[allow(dead_code)]
pub fn spawn_fleet<'d>(sources: impl IntoIterator<Item = (u32, &'d [SpatialDataset])>) -> Fleet {
    let servers = spawn_servers(sources);
    let endpoints = servers.iter().zip(0..).map(|(s, id)| (id, s.addr.clone()));
    let pooled = PooledTcpTransport::new(endpoints).expect("pooled transport");
    Fleet { pooled, servers }
}

/// Spawns one `source-server` process per `(resolution, datasets)`, ids
/// ascending from 0, that nothing has connected to yet.  The data files go
/// to a temp dir of its own, removed once every server has loaded its file:
/// a server loads before it listens.
// Only the suites that spawn the binary.
#[allow(dead_code)]
pub fn spawn_servers<'d>(
    sources: impl IntoIterator<Item = (u32, &'d [SpatialDataset])>,
) -> Vec<ServerProcess> {
    static FLEETS: AtomicUsize = AtomicUsize::new(0);
    let fleet = FLEETS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("fleet-{}-{fleet}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let servers = sources
        .into_iter()
        .zip(0..)
        .map(|((resolution, datasets), id)| spawn_server(id, resolution, &dir, datasets))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    servers
}

/// Spawned `source-server` child with its parsed listen address, killed when
/// dropped.  Stdin is piped (for the `SHUTDOWN` drain line) and stdout kept
/// open (for the `DRAINED` confirmation).
pub struct ServerProcess {
    pub child: Child,
    pub addr: String,
    // Only some tests read it; all hold it open, so the server can write.
    #[allow(dead_code)]
    pub stdout: BufReader<ChildStdout>,
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Writes `datasets` to a data file in `dir` and spawns a `source-server`
/// over it, at grid resolution `resolution`, listening on a loopback port.
fn spawn_server(
    id: SourceId,
    resolution: u32,
    dir: &std::path::Path,
    datasets: &[SpatialDataset],
) -> ServerProcess {
    // One `dataset_id lon lat` triple per line.
    let data_path = dir.join(format!("source-{id}.tsv"));
    let mut file = std::fs::File::create(&data_path).expect("create data file");
    for d in datasets {
        for p in &d.points {
            writeln!(file, "{} {} {}", d.id, p.x, p.y).expect("write data file");
        }
    }
    drop(file);
    let mut child = Command::new(env!("CARGO_BIN_EXE_source-server"))
        .args(["--id", &id.to_string()])
        .args(["--resolution", &resolution.to_string()])
        .args(["--listen", "127.0.0.1:0"])
        .args(["--data", data_path.to_str().expect("utf8 path")])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn source-server");
    // The server prints `LISTENING <addr>` once bound.
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read ready line");
    let addr = line
        .trim()
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("unexpected ready line {line:?}"))
        .to_string();
    ServerProcess {
        child,
        addr,
        stdout,
    }
}
