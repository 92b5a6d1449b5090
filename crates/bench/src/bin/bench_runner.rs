//! Perf-trajectory runner: a fixed OJSP / CJSP / kNN batch suite on
//! deterministic datagen seeds, emitting a schema'd `BENCH_<date>.json`
//! snapshot that is committed alongside each change.
//!
//! Usage:
//!
//! ```text
//! bench-runner [--quick] [--out PATH]
//! bench-runner --validate PATH
//!
//! --quick          reduced scale and iteration counts (the CI smoke run)
//! --out PATH       where to write the snapshot (default BENCH_<date>.json)
//! --validate PATH  check an existing snapshot against the schema and exit
//! ```
//!
//! Every measured kernel reports throughput (`ops_per_sec`) plus per-op
//! `p50_ns` / `p99_ns`; the `deltas` section pairs a kernel with a baseline
//! **measured in the same run**, so the committed speedup is
//! apples-to-apples on one machine.  Rows without a same-run baseline are
//! compared across snapshots:
//!
//! * `kernel/intersection/dense-grid` — the word-parallel (popcount) cell
//!   intersection against the scalar sorted-merge on dense grid sets (the
//!   one delta).
//! * `kernel/distance/cached` — the dataset distance kernel over the cached
//!   packed and boundary state (the bounded variant is parity-checked at its
//!   own cutoff but not timed: a cutoff equal to the distance never prunes).
//! * `kernel/inverted/build`, `kernel/inverted/verify` — building one leaf's
//!   columnar inverted index from its entries, and one exact verification
//!   (sorted query merged against a leaf's key column).
//! * `batch/ojsp/per-query`, `batch/cjsp/per-query`, `knn/per-query` — the
//!   per-query search loops over the five local indexes.
//! * `engine/ojsp/per-query` — the same OJSP batch end to end through the
//!   in-process multi-source engine.
//!
//! The `transport` section measures the federated deployment itself: the
//! same OJSP / kNN workload driven over loopback TCP through the pooled,
//! pipelined [`net::PooledTcpTransport`], reporting sustained QPS plus
//! per-query p50/p99.  Answers are asserted identical to the in-process
//! oracle before the transport is timed.
//!
//! The `knn_comm` section counts what federated kNN puts on the wire per
//! query under each distribution strategy — `Broadcast` (one whole query to
//! every source), `Pruned` (two waves: the first reply's k-th key skips the
//! sources that could not beat it, ties at its distance from a higher id
//! included) and `PrunedClipped` (it also sends the rest only the query
//! cells within that distance of their rectangle and their sketch's blocks);
//! `shards_per_query` counts the requests of both waves.  The rows come out
//! of the check that runs before any row over the federation is timed: every
//! strategy's answer equals the merged per-source brute force, and request
//! bytes never grow from one strategy to the next.
//!
//! The `ojsp_comm` section does the same for federated OJSP, whose strategies
//! differ in one wave: `Broadcast` sends every source the whole query,
//! `Pruned` the sources DITS-G routes to, `PrunedClipped` sends those only
//! the query cells inside their root rectangle whose block their sketch
//! shows occupied — `shards_per_query` counts the requests that leaves.
//! Every strategy's answer carries the merged brute force's overlaps and is
//! the same answer as the strategy before it.  `summary_bytes` is what the
//! filter costs up front: the bytes of each source's answer to the summary
//! poll, block sketch included.
//!
//! The `cjsp_comm` section counts what federated CJSP moves per query with
//! every pick of every source shipped with its cells (`every-pick-inline`:
//! the protocol before cells travelled on demand, kept here as a transport
//! under the same engine) and with stubs and fetches (`cells-on-demand`, the
//! engine as it is): bytes each way, exchanges, candidates named and
//! candidates whose cells travelled.  Like `knn_comm`, the rows come out of
//! a check made before anything is timed — the two answers must be equal,
//! so a pick lost to a stub fails the run.
//!
//! The `maintenance` section weighs the one maintenance exchange: a fixed
//! 72-op batch (24 inserts, 24 updates, 24 deletes against the largest
//! source) as the [`Message::ApplyUpdates`] the center puts on the wire —
//! bytes per op, and encode / decode time per op.  Before timing, the
//! decoded batch served by one copy of the source and the raw ops applied to
//! another (`DataSource::apply_updates`) must leave identical trees
//! (`DitsLocal` equality).
//!
//! The `index` block sizes what every process of the federation carries:
//! keys, postings and bytes of the leaf inverted indexes (bytes per posting
//! from `InvertedIndex::memory_bytes`), the DITS-L total, and the process's
//! resident set before and after `MultiSourceFramework::build`
//! (`/proc/self/status`).
//!
//! The `phases` section reports each engine entry's source-side
//! traversal-vs-verification time split, measured through a traced
//! (`SearchRequest::with_trace`) run of the same workload, and the `env`
//! section records the machine context (CPU count, cargo profile, git
//! commit) the numbers were taken in.
//!
//! The suite asserts result parity between every kernel and its baseline or
//! oracle before timing it, so a snapshot can never report the speed of
//! diverging code.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use bench::ExperimentEnv;
use dits::knn::nearest_datasets_bruteforce;
use dits::local::NodeKind;
use dits::overlap::overlap_search_bruteforce;
use dits::{
    coverage_search, nearest_datasets, overlap_search, CoverageConfig, DatasetNode, DitsLocal,
    DitsLocalConfig, InvertedIndex, Neighbor,
};
use multisource::{
    CallOptions, CandidateCells, CommStats, DataCenter, DataSource, DistributionStrategy,
    FrameworkConfig, InProcessTransport, Message, MultiSourceFramework, QueryEngine, SearchRequest,
    SearchResponse, SearchResults, SourceServer, SourceTransport, TransportError, TransportReply,
    UpdateOp,
};
use net::PooledTcpTransport;
use spatial::distance::{dataset_distance, dataset_distance_bounded};
use spatial::zorder::cell_id;
use spatial::{CellSet, SourceId, SpatialDataset};

const USAGE: &str = "\
Usage: bench-runner [--quick] [--out PATH]
       bench-runner --validate PATH

--quick          reduced scale and iteration counts (the CI smoke run)
--out PATH       where to write the snapshot (default BENCH_<date>.json)
--validate PATH  check an existing snapshot against the schema and exit";

/// Schema version stamped into (and required from) every snapshot.
/// v2 added the `env` block and the `phases` breakdown; v3 added the
/// verification-sweep kernels (`kernel/distance/*`, `knn/per-query` delta)
/// and requires the phase breakdown to cover every engine mode; v4 added
/// the `transport` section (QPS and p50/p99 over a loopback source-server
/// fleet); v5 added the `kernel/inverted/*` rows and the `index` block; v6
/// added the `maintenance` section; v7 dropped the `batch/*/frontier` and
/// `engine/ojsp/per-source-batch` rows with the code they measured; v8
/// dropped the `transport/per-call/*` rows likewise; v9 the
/// `kernel/distance/unbounded` and `knn/per-query/unbounded` rows and the
/// three deltas they were the baseline of.  Dropping the
/// `kernel/distance/bounded` row changed no field `--validate` reads, so
/// the version stayed 9.
const SCHEMA_VERSION: u64 = 9;

/// The maintenance row every snapshot must carry, and its batch size.
const MAINTENANCE_ROW: &str = "maintenance/apply_updates";
const MAINTENANCE_BATCH_OPS: usize = 72;

/// Kernel rows every snapshot must carry.
const REQUIRED_INDEX_KERNELS: [&str; 2] = ["kernel/inverted/build", "kernel/inverted/verify"];

/// Engine entries whose traversal/verify phase split every snapshot must
/// report — a snapshot that drops one silently loses the trajectory of the
/// paper's "verification dominates" claim.
const REQUIRED_PHASES: [&str; 3] = [
    "engine/ojsp/per-query",
    "engine/cjsp/per-query",
    "engine/knn/per-query",
];

/// The federated deployment every snapshot's `transport` section must cover.
const REQUIRED_TRANSPORT_PREFIX: &str = "transport/pooled/";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out: Option<String> = None;
    let mut validate: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--quick" => quick = true,
            "--out" => {
                out = args.get(i + 1).cloned();
                if out.is_none() {
                    eprintln!("--out needs a path\n{USAGE}");
                    std::process::exit(2);
                }
                i += 1;
            }
            "--validate" => {
                validate = args.get(i + 1).cloned();
                if validate.is_none() {
                    eprintln!("--validate needs a path\n{USAGE}");
                    std::process::exit(2);
                }
                i += 1;
            }
            other => {
                eprintln!("unknown flag {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if let Some(path) = validate {
        match validate_snapshot(&path) {
            Ok(summary) => println!("{path}: OK ({summary})"),
            Err(e) => {
                eprintln!("{path}: INVALID — {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let date = today_utc();
    let out = out.unwrap_or_else(|| format!("BENCH_{date}.json"));
    let suite = run_suite(quick);
    let json = render_snapshot(&date, quick, &env_info(), &suite);
    std::fs::write(&out, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    // A snapshot that does not parse against its own schema must never be
    // committed; re-validating what was just written keeps writer and
    // validator honest with each other.
    if let Err(e) = validate_snapshot(&out) {
        eprintln!("{out}: snapshot failed self-validation — {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");
    let ix = &suite.index;
    println!(
        "  index: {} postings in {} bytes of leaf inverted indexes ({:.2} B/posting), \
         DITS-L {} bytes, RSS {:.1} -> {:.1} MiB across the framework build",
        ix.postings,
        ix.inverted_bytes,
        ix.bytes_per_posting(),
        ix.local_index_bytes,
        ix.rss_before_build_mb,
        ix.rss_after_build_mb,
    );
    for d in &suite.deltas {
        println!("  {:<40} {:>6.2}x vs {}", d.name, d.speedup, d.baseline);
    }
    for t in &suite.transport {
        println!(
            "  {:<40} {:>8.0} qps  p50 {:>9.0} ns  p99 {:>9.0} ns",
            t.name, t.qps, t.p50_ns, t.p99_ns
        );
    }
    for c in suite.knn_comm.iter().chain(&suite.ojsp_comm) {
        println!(
            "  {:<40} {:>8.1} B/query out  {:>8.1} B/query back  {:>5.2} sources/query  \
             {:>5.2} shards/query",
            c.name,
            c.request_bytes_per_query,
            c.reply_bytes_per_query,
            c.sources_per_query,
            c.shards_per_query
        );
    }
    for b in &suite.summary_bytes {
        println!("  {:<40} {:>8} B  {:>6} blocks", b.name, b.bytes, b.blocks);
    }
    for c in &suite.cjsp_comm {
        println!(
            "  {:<40} {:>8.1} B/query out  {:>8.1} B/query back  {:>5.2} exchanges/query  \
             {:>5.2} candidates named, {:>5.2} shipped",
            c.name,
            c.request_bytes_per_query,
            c.reply_bytes_per_query,
            c.exchanges_per_query,
            c.candidates_named_per_query,
            c.candidates_shipped_per_query
        );
    }
    let m = &suite.maintenance;
    println!(
        "  {:<40} {:>8.1} B/op  encode {:>7.1} ns/op  decode {:>7.1} ns/op",
        m.name, m.bytes_per_op, m.encode_ns_per_op, m.decode_ns_per_op
    );
    for p in &suite.phases {
        println!(
            "  {:<40} verify {:>5.1}% of source time",
            p.name,
            p.verify_share * 100.0
        );
    }
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

/// One measured kernel: throughput plus per-op latency percentiles.
struct KernelReport {
    name: String,
    iters: usize,
    ops_per_sec: f64,
    p50_ns: f64,
    p99_ns: f64,
}

/// One same-run comparison: `new` kernel over `baseline` kernel.
struct Delta {
    name: String,
    new: String,
    baseline: String,
    speedup: f64,
}

/// One engine entry's source-side phase split, from a traced run of the same
/// workload the kernel timings cover.
struct PhaseReport {
    name: String,
    traversal_ns: u64,
    verify_ns: u64,
    verify_share: f64,
}

/// One federated deployment's sustained throughput and per-query latency
/// over loopback TCP.
struct TransportReport {
    name: String,
    qps: f64,
    p50_ns: f64,
    p99_ns: f64,
}

impl TransportReport {
    /// Reinterprets a measured kernel as a transport row: per-op throughput
    /// is queries per second once the op is "run one query over the wire".
    fn from_kernel(k: &KernelReport) -> Self {
        Self {
            name: k.name.clone(),
            qps: k.ops_per_sec,
            p50_ns: k.p50_ns,
            p99_ns: k.p99_ns,
        }
    }
}

/// What the leaf inverted indexes and the built framework weigh.
struct IndexReport {
    leaves: usize,
    keys: usize,
    postings: usize,
    inverted_bytes: usize,
    local_index_bytes: usize,
    rss_before_build_mb: f64,
    rss_after_build_mb: f64,
}

impl IndexReport {
    fn bytes_per_posting(&self) -> f64 {
        self.inverted_bytes as f64 / self.postings.max(1) as f64
    }
}

/// What one maintenance batch weighs on the wire and costs to encode and
/// decode, per operation.
struct MaintenanceReport {
    name: String,
    ops: usize,
    bytes_per_op: f64,
    encode_ns_per_op: f64,
    decode_ns_per_op: f64,
}

/// What a federated search kind moves per query under one distribution
/// strategy: a row of the `knn_comm` or the `ojsp_comm` section.
struct StrategyCommReport {
    name: String,
    request_bytes_per_query: f64,
    reply_bytes_per_query: f64,
    /// Sources routed to.
    sources_per_query: f64,
    /// Requests sent: a routed source whose clipped query is empty is sent
    /// nothing, and kNN counts both of its waves.
    shards_per_query: f64,
}

/// What one source answers a summary poll with, once per bootstrap.
struct SummaryBytesReport {
    name: String,
    bytes: usize,
    blocks: usize,
}

/// What federated CJSP moves per query under one reply protocol.
struct CjspCommReport {
    name: String,
    request_bytes_per_query: f64,
    reply_bytes_per_query: f64,
    exchanges_per_query: f64,
    candidates_named_per_query: f64,
    candidates_shipped_per_query: f64,
}

struct Suite {
    kernels: Vec<KernelReport>,
    deltas: Vec<Delta>,
    transport: Vec<TransportReport>,
    knn_comm: Vec<StrategyCommReport>,
    ojsp_comm: Vec<StrategyCommReport>,
    summary_bytes: Vec<SummaryBytesReport>,
    cjsp_comm: Vec<CjspCommReport>,
    maintenance: MaintenanceReport,
    phases: Vec<PhaseReport>,
    index: IndexReport,
}

/// The process's resident set in MiB (`VmRSS` of `/proc/self/status`), or 0
/// where there is no procfs.
fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Extracts the traversal/verify split out of a traced [`SearchResponse`].
fn phase_report(name: &str, response: &SearchResponse) -> PhaseReport {
    let trace = response.trace.as_ref().expect("run was traced");
    let traversal = trace.total_named("traversal");
    let verify = trace.total_named("verify");
    let total = traversal + verify;
    PhaseReport {
        name: name.to_string(),
        traversal_ns: traversal.as_nanos() as u64,
        verify_ns: verify.as_nanos() as u64,
        verify_share: if total > Duration::ZERO {
            verify.as_secs_f64() / total.as_secs_f64()
        } else {
            0.0
        },
    }
}

/// The machine context a snapshot was measured in.
struct EnvInfo {
    cpus: usize,
    profile: &'static str,
    git_commit: String,
}

fn env_info() -> EnvInfo {
    EnvInfo {
        cpus: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        git_commit: std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string()),
    }
}

/// Times `work` (which performs `ops` operations per call) `samples` times
/// and folds the per-op nanosecond samples into a [`KernelReport`].
fn measure(name: &str, samples: usize, ops: usize, mut work: impl FnMut()) -> KernelReport {
    work(); // warm-up: caches (packed words, page-ins) are steady state
    let mut per_op_ns: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let started = Instant::now();
        work();
        per_op_ns.push(started.elapsed().as_nanos() as f64 / ops as f64);
    }
    per_op_ns.sort_unstable_by(|a, b| a.total_cmp(b));
    let p50 = percentile(&per_op_ns, 50.0);
    let p99 = percentile(&per_op_ns, 99.0);
    KernelReport {
        name: name.to_string(),
        iters: samples * ops,
        ops_per_sec: if p50 > 0.0 { 1.0e9 / p50 } else { 0.0 },
        p50_ns: p50,
        p99_ns: p99,
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn delta(name: &str, new: &KernelReport, baseline: &KernelReport) -> Delta {
    Delta {
        name: name.to_string(),
        new: new.name.clone(),
        baseline: baseline.name.clone(),
        speedup: if baseline.p50_ns > 0.0 {
            baseline.p50_ns / new.p50_ns.max(f64::MIN_POSITIVE)
        } else {
            0.0
        },
    }
}

/// A dense axis-aligned block of grid cells starting at `(x0, y0)`.
fn dense_block(x0: u32, y0: u32, w: u32, h: u32) -> CellSet {
    CellSet::from_cells((0..w).flat_map(|dx| (0..h).map(move |dy| cell_id(x0 + dx, y0 + dy))))
}

/// The rows of one `<family>/comm/*` family: `run` executes the batch under a
/// strategy (and holds its answer to the family's oracle), and neither
/// requests nor request bytes may grow from `Broadcast` to `Pruned` to
/// `PrunedClipped`.
fn strategy_comm_reports(
    family: &str,
    queries: usize,
    mut run: impl FnMut(&str, DistributionStrategy) -> CommStats,
) -> Vec<StrategyCommReport> {
    let rows = [
        ("broadcast", DistributionStrategy::Broadcast),
        ("pruned", DistributionStrategy::Pruned),
        ("pruned-clipped", DistributionStrategy::PrunedClipped),
    ]
    .map(|(suffix, strategy)| {
        let name = format!("{family}/comm/{suffix}");
        let comm = run(&name, strategy);
        (name, comm)
    });
    for pair in rows.windows(2) {
        assert!(
            pair[1].1.requests <= pair[0].1.requests
                && pair[1].1.bytes_to_sources <= pair[0].1.bytes_to_sources,
            "a stricter strategy sent more: {pair:?}"
        );
    }
    let per_query = |count: usize| count as f64 / queries as f64;
    rows.into_iter()
        .map(|(name, comm)| StrategyCommReport {
            name,
            request_bytes_per_query: per_query(comm.bytes_to_sources),
            reply_bytes_per_query: per_query(comm.bytes_to_center),
            sources_per_query: per_query(comm.sources_contacted),
            shards_per_query: per_query(comm.requests),
        })
        .collect()
}

/// Federated OJSP against its oracle, under every distribution strategy:
/// rank by rank the overlaps must be those of the merged per-source brute
/// force (which of several datasets tied at the k-th overlap a source
/// reports depends on its tree), and each strategy must give the very
/// answer of the one before it.  Returns what each strategy moved per query.
fn ojsp_comm_reports(
    fw: &MultiSourceFramework,
    nodes_by_source: &[Vec<DatasetNode>],
    queries: &[SpatialDataset],
    k: usize,
) -> Vec<StrategyCommReport> {
    let oracle: Vec<Vec<usize>> = queries
        .iter()
        .map(|query| {
            let mut all: Vec<usize> = Vec::new();
            for (source, nodes) in fw.sources().iter().zip(nodes_by_source) {
                let local = overlap_search_bruteforce(nodes, &source.grid_query(query), k);
                all.extend(local.into_iter().map(|r| r.overlap));
            }
            all.sort_unstable_by(|a, b| b.cmp(a));
            all.truncate(k);
            all
        })
        .collect();
    let mut previous: Option<SearchResults> = None;
    strategy_comm_reports("ojsp", queries.len(), |name, strategy| {
        let request = SearchRequest::ojsp_batch(queries.to_vec())
            .k(k)
            .strategy(strategy);
        let response = fw.engine().run(&request).expect("federated OJSP");
        let overlaps: Vec<Vec<usize>> = response
            .overlap()
            .expect("an OJSP response")
            .iter()
            .map(|a| a.results.iter().map(|(_, r)| r.overlap).collect())
            .collect();
        assert_eq!(
            overlaps, oracle,
            "{name}: federated OJSP diverged from the merged brute force"
        );
        if let Some(previous) = previous.replace(response.results.clone()) {
            assert_eq!(
                response.results, previous,
                "{name}: a stricter strategy changed an answer"
            );
        }
        response.comm
    })
}

/// What each source of the federation answers a summary poll with: its
/// whole block sketch, which must be the sketch of its datasets.
fn summary_bytes_reports(fw: &MultiSourceFramework) -> Vec<SummaryBytesReport> {
    fw.sources()
        .iter()
        .map(|source| {
            let reply = source.serve_readonly(&Message::summary_poll()).message;
            let Message::SummaryRefresh { blocks, .. } = &reply else {
                panic!(
                    "{}: a summary poll was answered with {reply:?}",
                    source.name
                );
            };
            assert_eq!(
                *blocks,
                source.index().sketch(),
                "{}: the poll reply is not the sketch of its datasets",
                source.name
            );
            SummaryBytesReport {
                name: format!("summary/{}", source.name),
                bytes: reply.wire_size(),
                blocks: blocks.len(),
            }
        })
        .collect()
}

/// Federated kNN against its oracle, under every distribution strategy:
/// the answer must be the merge of one brute-force search per source, and
/// neither requests nor request bytes may grow from `Broadcast` to `Pruned`
/// to `PrunedClipped`.  Returns what each strategy moved per query.
fn knn_comm_reports(
    fw: &MultiSourceFramework,
    nodes_by_source: &[Vec<DatasetNode>],
    queries: &[SpatialDataset],
    k: usize,
) -> Vec<StrategyCommReport> {
    let oracle: Vec<Vec<(SourceId, Neighbor)>> = queries
        .iter()
        .map(|query| {
            let mut all: Vec<(SourceId, Neighbor)> = Vec::new();
            for (source, nodes) in fw.sources().iter().zip(nodes_by_source) {
                let local = nearest_datasets_bruteforce(nodes, &source.grid_query(query), k);
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
        })
        .collect();
    strategy_comm_reports("knn", queries.len(), |name, strategy| {
        let request = SearchRequest::knn_batch(queries.to_vec())
            .k(k)
            .strategy(strategy);
        let response = fw.engine().run(&request).expect("federated kNN");
        let answers: Vec<_> = response
            .knn()
            .expect("a kNN response")
            .iter()
            .map(|a| a.neighbors.clone())
            .collect();
        assert_eq!(
            answers, oracle,
            "{name}: federated kNN diverged from the merged brute force"
        );
        response.comm
    })
}

/// In-process sources behind a tap on the CJSP exchange: counts the
/// candidates `CoverageQuery` replies name and the candidates whose cells
/// travel, and — with `every_pick_inline` — answers as sources did before
/// cells travelled on demand, every stub replaced by the dataset's cells, so
/// the engine above it never fetches and aggregates every pick of every
/// source.
#[derive(Debug)]
struct CandidateTap<'a> {
    sources: &'a [DataSource],
    every_pick_inline: bool,
    named: AtomicUsize,
    shipped: AtomicUsize,
}

impl SourceTransport for CandidateTap<'_> {
    fn source_ids(&self) -> Vec<SourceId> {
        InProcessTransport::new(self.sources).source_ids()
    }

    fn call_with(
        &self,
        source: SourceId,
        request: &Message,
        opts: CallOptions,
    ) -> Result<TransportReply, TransportError> {
        let mut reply = InProcessTransport::new(self.sources).call_with(source, request, opts)?;
        let Message::CoverageReply { candidates, .. } = &mut reply.message else {
            return Ok(reply);
        };
        if matches!(request, Message::CoverageQuery { .. }) {
            self.named.fetch_add(candidates.len(), Ordering::Relaxed);
        }
        if self.every_pick_inline {
            let owner = self.sources.iter().find(|s| s.id == source);
            for candidate in candidates.iter_mut() {
                if matches!(candidate.cells, CandidateCells::Stub(_)) {
                    let (_, node) = owner
                        .and_then(|s| s.index().find_dataset(candidate.dataset))
                        .expect("a source names its own datasets");
                    candidate.cells = CandidateCells::Inline(node.cells.clone());
                }
            }
        }
        let inline =
            |c: &&multisource::CoverageCandidate| matches!(c.cells, CandidateCells::Inline(_));
        self.shipped
            .fetch_add(candidates.iter().filter(inline).count(), Ordering::Relaxed);
        reply.reply_bytes = reply.message.wire_size();
        Ok(reply)
    }
}

/// Federated CJSP against its oracle: the answer with cells on demand must
/// equal the answer with every pick shipped inline, and no more cell sets
/// may travel than are named.  Returns what each protocol moved per query.
fn cjsp_comm_reports(fw: &MultiSourceFramework, request: &SearchRequest) -> Vec<CjspCommReport> {
    let queries = request.queries().len();
    let per_query = |count: usize| count as f64 / queries as f64;
    let run = |name: &str, every_pick_inline: bool| {
        let tap = CandidateTap {
            sources: fw.sources(),
            every_pick_inline,
            named: AtomicUsize::new(0),
            shipped: AtomicUsize::new(0),
        };
        let response = QueryEngine::new(fw.center(), &tap, *fw.engine().config())
            .run(request)
            .expect("federated CJSP");
        let (named, shipped) = (tap.named.into_inner(), tap.shipped.into_inner());
        assert!(shipped <= named, "{name}: a cell set travelled twice");
        let report = CjspCommReport {
            name: name.to_string(),
            request_bytes_per_query: per_query(response.comm.bytes_to_sources),
            reply_bytes_per_query: per_query(response.comm.bytes_to_center),
            exchanges_per_query: per_query(response.comm.requests),
            candidates_named_per_query: per_query(named),
            candidates_shipped_per_query: per_query(shipped),
        };
        (response.results, report)
    };
    let (oracle, every_pick_inline) = run("cjsp/comm/every-pick-inline", true);
    let (answers, cells_on_demand) = run("cjsp/comm/cells-on-demand", false);
    assert_eq!(
        answers, oracle,
        "cjsp/comm/cells-on-demand: a stub cost the federated answer a pick"
    );
    vec![every_pick_inline, cells_on_demand]
}

fn run_suite(quick: bool) -> Suite {
    let (divisor, queries_n, samples) = if quick { (400, 8, 5) } else { (100, 32, 20) };
    let theta = 11;
    let k = 10;
    let delta_cells = 4.0;
    let mut kernels = Vec::new();
    let mut deltas = Vec::new();

    // -- Kernel: dense-grid cell intersection, word-parallel vs scalar ------
    eprintln!("[1/9] kernel/intersection/dense-grid");
    let pairs: Vec<(CellSet, CellSet)> = (0..32)
        .map(|i| {
            let bx = (i as u32 % 8) * 96;
            let by = (i as u32 / 8) * 80;
            // Two 64x64 blocks overlapping in a 32-column band: dense in
            // word space, non-trivial intersection.
            (
                dense_block(bx, by, 64, 64),
                dense_block(bx + 32, by, 64, 64),
            )
        })
        .collect();
    for (a, b) in &pairs {
        assert_eq!(
            a.intersection_size_packed(b),
            a.intersection_size_linear(b),
            "packed and scalar kernels disagree"
        );
    }
    let kernel_samples = samples * 10;
    let packed = measure(
        "kernel/intersection/dense-grid/packed",
        kernel_samples,
        pairs.len(),
        || {
            for (a, b) in &pairs {
                std::hint::black_box(a.intersection_size_packed(std::hint::black_box(b)));
            }
        },
    );
    let scalar = measure(
        "kernel/intersection/dense-grid/scalar",
        kernel_samples,
        pairs.len(),
        || {
            for (a, b) in &pairs {
                std::hint::black_box(a.intersection_size_linear(std::hint::black_box(b)));
            }
        },
    );
    let adaptive = measure(
        "kernel/intersection/dense-grid/adaptive",
        kernel_samples,
        pairs.len(),
        || {
            for (a, b) in &pairs {
                std::hint::black_box(a.intersection_size(std::hint::black_box(b)));
            }
        },
    );
    deltas.push(delta("kernel/intersection/dense-grid", &packed, &scalar));
    kernels.extend([packed, scalar, adaptive]);

    // -- Kernel: dataset distance --------------------------------------------
    eprintln!("[2/9] kernel/distance (cached)");
    let env = ExperimentEnv::new(divisor, 0xBEEF);
    // The framework is built before anything else allocates, so the resident
    // set around the build is the framework's own.
    let rss_before_build_mb = rss_mb();
    let fw = env.framework(FrameworkConfig {
        resolution: theta,
        ..FrameworkConfig::default()
    });
    let rss_after_build_mb = rss_mb();
    let indexes: Vec<DitsLocal> = (0..env.source_data.len())
        .map(|s| DitsLocal::build(env.dataset_nodes(s, theta), DitsLocalConfig::default()))
        .collect();
    let nodes_by_source: Vec<Vec<DatasetNode>> = (0..env.source_data.len())
        .map(|s| env.dataset_nodes(s, theta))
        .collect();
    let queries = env.query_cells(queries_n, theta);
    assert!(!queries.is_empty(), "query workload must not be empty");
    let batch_ops = indexes.len() * queries.len();
    // Before any row over the federation is timed: a lost neighbour fails
    // the run here.
    let raw_queries = env.query_datasets(queries_n);
    let knn_comm = knn_comm_reports(&fw, &nodes_by_source, &raw_queries, k);
    let ojsp_comm = ojsp_comm_reports(&fw, &nodes_by_source, &raw_queries, k);
    let summary_bytes = summary_bytes_reports(&fw);
    let cjsp_request = SearchRequest::cjsp_batch(raw_queries.clone())
        .k(k)
        .delta_cells(delta_cells);
    let cjsp_comm = cjsp_comm_reports(&fw, &cjsp_request);

    // Query-vs-dataset pairs drawn from the real workload, so the kernel
    // sees the coordinate distributions the kNN verifier actually walks.
    let distance_nodes = &nodes_by_source[0];
    let distance_pairs: Vec<(&CellSet, &CellSet)> = queries
        .iter()
        .flat_map(|q| distance_nodes.iter().step_by(7).map(move |n| (q, &n.cells)))
        .take(64)
        .collect();
    assert!(
        !distance_pairs.is_empty(),
        "distance workload must not be empty"
    );
    // This pass also materialises the cached packed and boundary state the
    // row reuses; the bounded kernel must be exact at its own cutoff.
    for &(q, c) in &distance_pairs {
        let truth = dataset_distance(q, c);
        assert_eq!(
            dataset_distance_bounded(q, c, truth),
            truth,
            "bounded distance diverged from the exact one at its own cutoff"
        );
    }
    let distance_cached = measure(
        "kernel/distance/cached",
        kernel_samples,
        distance_pairs.len(),
        || {
            for (q, c) in &distance_pairs {
                std::hint::black_box(dataset_distance(q, std::hint::black_box(c)));
            }
        },
    );
    kernels.push(distance_cached);

    // -- Leaf inverted index: column build and exact verification -----------
    eprintln!("[3/9] kernel/inverted (leaf column build + verification merge)");
    let leaves: Vec<(&[DatasetNode], &InvertedIndex)> = indexes
        .iter()
        .flat_map(|index| {
            index
                .leaves()
                .into_iter()
                .filter_map(move |l| match &index.node(l).kind {
                    NodeKind::Leaf { entries, inverted } => Some((entries.as_slice(), inverted)),
                    NodeKind::Internal { .. } => None,
                })
        })
        .collect();
    let index_report = IndexReport {
        leaves: leaves.len(),
        keys: leaves.iter().map(|(_, inv)| inv.key_count()).sum(),
        postings: leaves
            .iter()
            .flat_map(|(entries, _)| entries.iter().map(DatasetNode::coverage))
            .sum(),
        // Measured before any query packs the key columns: the columns alone.
        inverted_bytes: leaves.iter().map(|(_, inv)| inv.memory_bytes()).sum(),
        local_index_bytes: indexes.iter().map(DitsLocal::memory_bytes).sum(),
        rss_before_build_mb,
        rss_after_build_mb,
    };
    let inverted_build = measure(
        "kernel/inverted/build",
        kernel_samples,
        leaves.len(),
        || {
            for (entries, _) in &leaves {
                std::hint::black_box(InvertedIndex::build(
                    entries.iter().map(|e| (e.id, &e.cells)),
                ));
            }
        },
    );
    // Every (query, leaf) pair that shares a cell: what verification sees.
    let verify_pairs: Vec<(&CellSet, &[DatasetNode], &InvertedIndex)> = queries
        .iter()
        .flat_map(|q| leaves.iter().map(move |&(entries, inv)| (q, entries, inv)))
        .filter(|(q, _, inv)| !inv.intersection_counts(q).is_empty())
        .take(256)
        .collect();
    assert!(
        !verify_pairs.is_empty(),
        "verify workload must not be empty"
    );
    for &(q, entries, inv) in &verify_pairs {
        let mut exact: Vec<_> = entries
            .iter()
            .map(|e| (e.id, e.cells.intersection_size(q)))
            .filter(|&(_, n)| n > 0)
            .collect();
        exact.sort_unstable();
        assert_eq!(
            inv.intersection_counts(q),
            exact,
            "leaf verification diverged from per-dataset intersection"
        );
    }
    let inverted_verify = measure(
        "kernel/inverted/verify",
        kernel_samples,
        verify_pairs.len(),
        || {
            for &(q, _, inv) in &verify_pairs {
                std::hint::black_box(inv.intersection_counts(std::hint::black_box(q)));
            }
        },
    );
    kernels.extend([inverted_build, inverted_verify]);

    // -- Batch OJSP / CJSP over the five local indexes ----------------------
    eprintln!("[4/9] batch/ojsp + batch/cjsp (scale 1/{divisor}, {queries_n} queries)");

    kernels.push(measure("batch/ojsp/per-query", samples, batch_ops, || {
        for index in &indexes {
            for q in &queries {
                std::hint::black_box(overlap_search(index, q, k));
            }
        }
    }));
    let coverage_config = CoverageConfig::new(k, delta_cells);
    kernels.push(measure("batch/cjsp/per-query", samples, batch_ops, || {
        for index in &indexes {
            for q in &queries {
                std::hint::black_box(coverage_search(index, q, coverage_config));
            }
        }
    }));

    eprintln!("[5/9] knn/per-query");
    for (index, nodes) in indexes.iter().zip(&nodes_by_source) {
        for q in &queries {
            assert_eq!(
                nearest_datasets(index, q, k).0,
                nearest_datasets_bruteforce(nodes, q, k),
                "bounded kNN diverged from the brute force"
            );
        }
    }
    kernels.push(measure("knn/per-query", samples, batch_ops, || {
        for index in &indexes {
            for q in &queries {
                std::hint::black_box(nearest_datasets(index, q, k));
            }
        }
    }));

    // -- The in-process engine over the full multi-source framework ----------
    eprintln!("[6/9] engine/ojsp/per-query");
    let in_process_engine = fw.engine();
    let ojsp_request = SearchRequest::ojsp_batch(raw_queries.clone()).k(k);
    kernels.push(measure(
        "engine/ojsp/per-query",
        samples,
        raw_queries.len(),
        || {
            std::hint::black_box(in_process_engine.run(&ojsp_request).expect("OJSP"));
        },
    ));

    // -- Transport: pooled pipelined TCP over a loopback fleet --------------
    // Every source runs as its own server (real sockets, real frames); the
    // same workload is answered through the pooled transport, after
    // asserting it matches the in-process oracle bit for bit.
    eprintln!("[7/9] transport/pooled (loopback fleet)");
    let servers: Vec<SourceServer> = fw
        .sources()
        .iter()
        .map(|s| SourceServer::spawn("127.0.0.1:0", s.clone()).expect("bind loopback"))
        .collect();
    let pooled = PooledTcpTransport::new(servers.iter().map(SourceServer::endpoint))
        .expect("pooled transport");
    let pooled_center =
        DataCenter::from_transport(&pooled, fw.config().leaf_capacity).expect("summary poll");
    let pooled_engine = QueryEngine::new(&pooled_center, &pooled, *in_process_engine.config());
    let knn_request = SearchRequest::knn_batch(raw_queries.clone()).k(k);
    let mut transport = Vec::new();
    for (kind, request) in [("ojsp", &ojsp_request), ("knn", &knn_request)] {
        let truth = in_process_engine.run(request).expect("in-process oracle");
        let over_wire = pooled_engine.run(request).expect("federated run");
        assert_eq!(
            truth.results, over_wire.results,
            "transport/pooled/{kind} diverged from the in-process oracle"
        );
        assert_eq!(
            truth.comm, over_wire.comm,
            "transport/pooled/{kind} changed the counted protocol bytes"
        );
        let report = measure(
            &format!("transport/pooled/{kind}"),
            samples,
            raw_queries.len(),
            || {
                std::hint::black_box(pooled_engine.run(request).expect("federated run"));
            },
        );
        transport.push(TransportReport::from_kernel(&report));
    }
    // Drain the fleet so the run exits cleanly instead of leaking accept
    // loops; the pooled transport's connections close once its event loop
    // drops.
    drop(pooled);
    for server in servers {
        server.shutdown();
    }

    // -- Maintenance: the ApplyUpdates exchange on a fixed 72-op batch --------
    eprintln!("[8/9] {MAINTENANCE_ROW} ({MAINTENANCE_BATCH_OPS}-op batch on the wire)");
    let (target_idx, target) = fw
        .sources()
        .iter()
        .enumerate()
        .max_by_key(|(_, s)| s.dataset_count())
        .expect("the framework has sources");
    let resident = env.source(target_idx);
    let pick = |i: usize| &resident[i * 7 % resident.len()];
    let raw_ops: Vec<UpdateOp> = (0..MAINTENANCE_BATCH_OPS)
        .map(|i| match i % 3 {
            0 => UpdateOp::Insert(SpatialDataset::new(
                1_000_000 + i as u32,
                pick(i).points.clone(),
            )),
            1 => UpdateOp::Update(SpatialDataset::new(pick(i).id, pick(i + 1).points.clone())),
            _ => UpdateOp::Delete(pick(i).id),
        })
        .collect();
    let batch = Message::ApplyUpdates {
        resolution: theta,
        ops: raw_ops
            .iter()
            .map(|op| op.grid(target.grid()).expect("resident datasets grid"))
            .collect(),
    };
    let batch_bytes = batch.encode();
    let decoded = Message::decode(batch_bytes.clone()).expect("the batch decodes");
    assert_eq!(decoded, batch, "the batch changed across the codec");
    let (mut over_wire, mut raw_twin) = (target.clone(), target.clone());
    over_wire.serve(&decoded);
    raw_twin.apply_updates(&raw_ops).expect("valid batch");
    assert!(
        raw_twin.index() != target.index(),
        "the maintenance batch changed nothing"
    );
    assert!(
        over_wire.index() == raw_twin.index(),
        "cells over the wire diverged from raw ops applied in place"
    );
    let encode = measure("encode", kernel_samples, MAINTENANCE_BATCH_OPS, || {
        std::hint::black_box(std::hint::black_box(&batch).encode());
    });
    let decode = measure("decode", kernel_samples, MAINTENANCE_BATCH_OPS, || {
        std::hint::black_box(Message::decode(std::hint::black_box(&batch_bytes).clone()))
            .expect("the batch decodes");
    });
    let maintenance = MaintenanceReport {
        name: MAINTENANCE_ROW.to_string(),
        ops: MAINTENANCE_BATCH_OPS,
        bytes_per_op: batch_bytes.len() as f64 / MAINTENANCE_BATCH_OPS as f64,
        encode_ns_per_op: encode.p50_ns,
        decode_ns_per_op: decode.p50_ns,
    };

    // Phase breakdown: one traced run per engine entry splits the sources'
    // time into index traversal vs. candidate verification (the paper's
    // "verification dominates" claim, measured instead of asserted).
    eprintln!("[9/9] phase breakdown (traced engine runs)");
    let traced_ojsp = ojsp_request.clone().with_trace(true);
    let phases = vec![
        phase_report(
            "engine/ojsp/per-query",
            &in_process_engine.run(&traced_ojsp).expect("traced OJSP"),
        ),
        phase_report(
            "engine/cjsp/per-query",
            &in_process_engine
                .run(&cjsp_request.with_trace(true))
                .expect("traced CJSP"),
        ),
        phase_report(
            "engine/knn/per-query",
            &in_process_engine
                .run(
                    &SearchRequest::knn_batch(raw_queries.clone())
                        .k(k)
                        .with_trace(true),
                )
                .expect("traced kNN"),
        ),
    ];

    Suite {
        kernels,
        deltas,
        transport,
        knn_comm,
        ojsp_comm,
        summary_bytes,
        cjsp_comm,
        maintenance,
        phases,
        index: index_report,
    }
}

// ---------------------------------------------------------------------------
// Snapshot writing
// ---------------------------------------------------------------------------

fn render_snapshot(date: &str, quick: bool, env: &EnvInfo, suite: &Suite) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
    s.push_str(&format!("  \"date\": \"{}\",\n", escape_json(date)));
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!(
        "  \"env\": {{\"cpus\": {}, \"profile\": \"{}\", \"git_commit\": \"{}\"}},\n",
        env.cpus,
        escape_json(env.profile),
        escape_json(&env.git_commit)
    ));
    s.push_str("  \"kernels\": [\n");
    for (i, k) in suite.kernels.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"iters\": {}, \"ops_per_sec\": {:.1}, \
             \"p50_ns\": {:.1}, \"p99_ns\": {:.1}}}{}\n",
            escape_json(&k.name),
            k.iters,
            k.ops_per_sec,
            k.p50_ns,
            k.p99_ns,
            if i + 1 < suite.kernels.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"deltas\": [\n");
    for (i, d) in suite.deltas.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"new\": \"{}\", \"baseline\": \"{}\", \
             \"speedup\": {:.2}}}{}\n",
            escape_json(&d.name),
            escape_json(&d.new),
            escape_json(&d.baseline),
            d.speedup,
            if i + 1 < suite.deltas.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"transport\": [\n");
    for (i, t) in suite.transport.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"qps\": {:.1}, \"p50_ns\": {:.1}, \"p99_ns\": {:.1}}}{}\n",
            escape_json(&t.name),
            t.qps,
            t.p50_ns,
            t.p99_ns,
            if i + 1 < suite.transport.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str("  ],\n");
    for (section, rows) in [
        ("knn_comm", &suite.knn_comm),
        ("ojsp_comm", &suite.ojsp_comm),
    ] {
        s.push_str(&format!("  \"{section}\": [\n"));
        for (i, c) in rows.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"request_bytes_per_query\": {:.1}, \
                 \"reply_bytes_per_query\": {:.1}, \"sources_per_query\": {:.2}, \
                 \"shards_per_query\": {:.2}}}{}\n",
                escape_json(&c.name),
                c.request_bytes_per_query,
                c.reply_bytes_per_query,
                c.sources_per_query,
                c.shards_per_query,
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
    }
    s.push_str("  \"summary_bytes\": [\n");
    for (i, b) in suite.summary_bytes.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"bytes\": {}, \"blocks\": {}}}{}\n",
            escape_json(&b.name),
            b.bytes,
            b.blocks,
            if i + 1 < suite.summary_bytes.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"cjsp_comm\": [\n");
    for (i, c) in suite.cjsp_comm.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"request_bytes_per_query\": {:.1}, \
             \"reply_bytes_per_query\": {:.1}, \"exchanges_per_query\": {:.2}, \
             \"candidates_named_per_query\": {:.2}, \
             \"candidates_shipped_per_query\": {:.2}}}{}\n",
            escape_json(&c.name),
            c.request_bytes_per_query,
            c.reply_bytes_per_query,
            c.exchanges_per_query,
            c.candidates_named_per_query,
            c.candidates_shipped_per_query,
            if i + 1 < suite.cjsp_comm.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str("  ],\n");
    let m = &suite.maintenance;
    s.push_str(&format!(
        "  \"maintenance\": [\n    {{\"name\": \"{}\", \"ops\": {}, \"bytes_per_op\": {:.1}, \
         \"encode_ns_per_op\": {:.1}, \"decode_ns_per_op\": {:.1}}}\n  ],\n",
        escape_json(&m.name),
        m.ops,
        m.bytes_per_op,
        m.encode_ns_per_op,
        m.decode_ns_per_op,
    ));
    s.push_str("  \"phases\": [\n");
    for (i, p) in suite.phases.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"traversal_ns\": {}, \"verify_ns\": {}, \
             \"verify_share\": {:.4}}}{}\n",
            escape_json(&p.name),
            p.traversal_ns,
            p.verify_ns,
            p.verify_share,
            if i + 1 < suite.phases.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    let ix = &suite.index;
    s.push_str(&format!(
        "  \"index\": {{\"leaves\": {}, \"keys\": {}, \"postings\": {}, \
         \"inverted_bytes\": {}, \"bytes_per_posting\": {:.2}, \
         \"local_index_bytes\": {}, \"rss_before_build_mb\": {:.1}, \
         \"rss_after_build_mb\": {:.1}}}\n",
        ix.leaves,
        ix.keys,
        ix.postings,
        ix.inverted_bytes,
        ix.bytes_per_posting(),
        ix.local_index_bytes,
        ix.rss_before_build_mb,
        ix.rss_after_build_mb,
    ));
    s.push_str("}\n");
    s
}

fn escape_json(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Snapshot validation (hand-rolled JSON: the toolchain has no serde_json)
// ---------------------------------------------------------------------------

/// A parsed JSON value — just enough of the grammar for the snapshot schema.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_number(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or_else(|| self.error("unexpected end"))? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::String(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(&b) => {
                    // Multi-byte UTF-8 sequences pass through untouched.
                    let len = match b {
                        _ if b < 0x80 => 1,
                        _ if b >> 5 == 0b110 => 2,
                        _ if b >> 4 == 0b1110 => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .ok_or_else(|| self.error("truncated utf-8"))?;
                    out.push_str(
                        std::str::from_utf8(chunk).map_err(|_| self.error("invalid utf-8"))?,
                    );
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Number)
            .ok_or_else(|| self.error("expected a number"))
    }

    fn parse(mut self) -> Result<Json, String> {
        let value = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.error("trailing data"));
        }
        Ok(value)
    }
}

/// Validates a snapshot file against the schema; returns a short summary.
fn validate_snapshot(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let root = Parser::new(&text).parse()?;

    let version = root
        .get("schema_version")
        .and_then(Json::as_number)
        .ok_or("missing numeric schema_version")?;
    if version != SCHEMA_VERSION as f64 {
        return Err(format!(
            "unsupported schema_version {version} (this build reads {SCHEMA_VERSION})"
        ));
    }
    let date = root
        .get("date")
        .and_then(Json::as_str)
        .ok_or("missing string date")?;
    let date_ok = date.len() == 10
        && date.chars().enumerate().all(|(i, c)| {
            if i == 4 || i == 7 {
                c == '-'
            } else {
                c.is_ascii_digit()
            }
        });
    if !date_ok {
        return Err(format!("date {date:?} is not YYYY-MM-DD"));
    }
    if !matches!(root.get("quick"), Some(Json::Bool(_))) {
        return Err("missing boolean quick".into());
    }

    let env = root.get("env").ok_or("missing env object")?;
    let cpus = env
        .get("cpus")
        .and_then(Json::as_number)
        .ok_or("env missing numeric cpus")?;
    if !cpus.is_finite() || cpus < 1.0 {
        return Err(format!("env.cpus = {cpus} is not a positive CPU count"));
    }
    let profile = env
        .get("profile")
        .and_then(Json::as_str)
        .ok_or("env missing string profile")?;
    if profile != "release" && profile != "debug" {
        return Err(format!("env.profile {profile:?} is not release/debug"));
    }
    if env
        .get("git_commit")
        .and_then(Json::as_str)
        .is_none_or(str::is_empty)
    {
        return Err("env missing non-empty string git_commit".into());
    }

    let kernels = root
        .get("kernels")
        .and_then(Json::as_array)
        .ok_or("missing kernels array")?;
    if kernels.is_empty() {
        return Err("kernels array is empty".into());
    }
    for (i, k) in kernels.iter().enumerate() {
        for field in ["iters", "ops_per_sec", "p50_ns", "p99_ns"] {
            let n = k
                .get(field)
                .and_then(Json::as_number)
                .ok_or(format!("kernels[{i}] missing numeric {field}"))?;
            if !n.is_finite() || n < 0.0 {
                return Err(format!(
                    "kernels[{i}].{field} = {n} is not a valid measurement"
                ));
            }
        }
        if k.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("kernels[{i}] missing string name"));
        }
    }

    let deltas = root
        .get("deltas")
        .and_then(Json::as_array)
        .ok_or("missing deltas array")?;
    if deltas.is_empty() {
        return Err("deltas array is empty".into());
    }
    let kernel_names: Vec<&str> = kernels
        .iter()
        .filter_map(|k| k.get("name").and_then(Json::as_str))
        .collect();
    for (i, d) in deltas.iter().enumerate() {
        if d.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("deltas[{i}] missing string name"));
        }
        let speedup = d
            .get("speedup")
            .and_then(Json::as_number)
            .ok_or(format!("deltas[{i}] missing numeric speedup"))?;
        if !speedup.is_finite() || speedup <= 0.0 {
            return Err(format!("deltas[{i}].speedup = {speedup} is not positive"));
        }
        for side in ["new", "baseline"] {
            let name = d
                .get(side)
                .and_then(Json::as_str)
                .ok_or(format!("deltas[{i}] missing string {side}"))?;
            if !kernel_names.contains(&name) {
                return Err(format!(
                    "deltas[{i}].{side} {name:?} names no measured kernel"
                ));
            }
        }
    }

    let transport = root
        .get("transport")
        .and_then(Json::as_array)
        .ok_or("missing transport array")?;
    if transport.is_empty() {
        return Err("transport array is empty".into());
    }
    for (i, t) in transport.iter().enumerate() {
        if t.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("transport[{i}] missing string name"));
        }
        for field in ["qps", "p50_ns", "p99_ns"] {
            let n = t
                .get(field)
                .and_then(Json::as_number)
                .ok_or(format!("transport[{i}] missing numeric {field}"))?;
            if !n.is_finite() || n <= 0.0 {
                return Err(format!(
                    "transport[{i}].{field} = {n} is not a positive measurement"
                ));
            }
        }
    }
    if !transport
        .iter()
        .filter_map(|t| t.get("name").and_then(Json::as_str))
        .any(|n| n.starts_with(REQUIRED_TRANSPORT_PREFIX))
    {
        return Err(format!(
            "transport section has no {REQUIRED_TRANSPORT_PREFIX}* rows — the \
             federated deployment must be measured"
        ));
    }

    // Checked where present: the sections are newer than the schema
    // version, and the tree keeps a snapshot from before the newest — and so
    // are the fields a section gained later (the second list).
    const COMM_SECTIONS: [(&str, &[&str], &[&str]); 4] = [
        (
            "knn_comm",
            &[
                "request_bytes_per_query",
                "reply_bytes_per_query",
                "sources_per_query",
            ],
            &["shards_per_query"],
        ),
        (
            "ojsp_comm",
            &[
                "request_bytes_per_query",
                "reply_bytes_per_query",
                "sources_per_query",
                "shards_per_query",
            ],
            &[],
        ),
        ("summary_bytes", &["bytes", "blocks"], &[]),
        (
            "cjsp_comm",
            &[
                "request_bytes_per_query",
                "reply_bytes_per_query",
                "exchanges_per_query",
                "candidates_named_per_query",
                "candidates_shipped_per_query",
            ],
            &[],
        ),
    ];
    for (section, fields, newer) in COMM_SECTIONS {
        for (i, c) in root
            .get(section)
            .and_then(Json::as_array)
            .into_iter()
            .flatten()
            .enumerate()
        {
            if c.get("name").and_then(Json::as_str).is_none() {
                return Err(format!("{section}[{i}] missing string name"));
            }
            let present = newer.iter().filter(|field| c.get(field).is_some());
            for field in fields.iter().chain(present) {
                let n = c
                    .get(field)
                    .and_then(Json::as_number)
                    .ok_or(format!("{section}[{i}] missing numeric {field}"))?;
                if !n.is_finite() || n <= 0.0 {
                    return Err(format!(
                        "{section}[{i}].{field} = {n} is not a positive count"
                    ));
                }
            }
        }
    }

    let phases = root
        .get("phases")
        .and_then(Json::as_array)
        .ok_or("missing phases array")?;
    if phases.is_empty() {
        return Err("phases array is empty".into());
    }
    for (i, p) in phases.iter().enumerate() {
        if p.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("phases[{i}] missing string name"));
        }
        for field in ["traversal_ns", "verify_ns"] {
            let n = p
                .get(field)
                .and_then(Json::as_number)
                .ok_or(format!("phases[{i}] missing numeric {field}"))?;
            if !n.is_finite() || n < 0.0 {
                return Err(format!(
                    "phases[{i}].{field} = {n} is not a valid measurement"
                ));
            }
        }
        let share = p
            .get("verify_share")
            .and_then(Json::as_number)
            .ok_or(format!("phases[{i}] missing numeric verify_share"))?;
        if !share.is_finite() || !(0.0..=1.0).contains(&share) {
            return Err(format!(
                "phases[{i}].verify_share = {share} is not in [0, 1]"
            ));
        }
    }
    let phase_names: Vec<&str> = phases
        .iter()
        .filter_map(|p| p.get("name").and_then(Json::as_str))
        .collect();
    for required in REQUIRED_PHASES {
        if !phase_names.contains(&required) {
            return Err(format!("phases missing required engine entry {required:?}"));
        }
    }

    for required in REQUIRED_INDEX_KERNELS {
        if !kernel_names.contains(&required) {
            return Err(format!("kernels missing required row {required:?}"));
        }
    }
    let index = root.get("index").ok_or("missing index object")?;
    for field in [
        "leaves",
        "keys",
        "postings",
        "inverted_bytes",
        "bytes_per_posting",
        "local_index_bytes",
    ] {
        let n = index
            .get(field)
            .and_then(Json::as_number)
            .ok_or(format!("index missing numeric {field}"))?;
        if !n.is_finite() || n <= 0.0 {
            return Err(format!("index.{field} = {n} is not a positive size"));
        }
    }
    // 0 is what a machine without procfs reports.
    for field in ["rss_before_build_mb", "rss_after_build_mb"] {
        let n = index
            .get(field)
            .and_then(Json::as_number)
            .ok_or(format!("index missing numeric {field}"))?;
        if !n.is_finite() || n < 0.0 {
            return Err(format!("index.{field} = {n} is not a valid size"));
        }
    }

    let row = root
        .get("maintenance")
        .and_then(Json::as_array)
        .and_then(|rows| {
            rows.iter()
                .find(|r| r.get("name").and_then(Json::as_str) == Some(MAINTENANCE_ROW))
        })
        .ok_or(format!(
            "maintenance section has no {MAINTENANCE_ROW:?} row"
        ))?;
    for field in [
        "ops",
        "bytes_per_op",
        "encode_ns_per_op",
        "decode_ns_per_op",
    ] {
        let n = row
            .get(field)
            .and_then(Json::as_number)
            .ok_or(format!("{MAINTENANCE_ROW} missing numeric {field}"))?;
        if !n.is_finite() || n <= 0.0 {
            return Err(format!(
                "{MAINTENANCE_ROW}.{field} = {n} is not a positive measurement"
            ));
        }
    }

    Ok(format!(
        "{} kernels, {} deltas, {} transport rows, {} phases",
        kernels.len(),
        deltas.len(),
        transport.len(),
        phases.len()
    ))
}

// ---------------------------------------------------------------------------
// Civil date (no chrono in the toolchain)
// ---------------------------------------------------------------------------

/// Today's UTC date as `YYYY-MM-DD` (Howard Hinnant's `civil_from_days`).
fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let z = (secs / 86_400) as i64 + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let year = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { year + 1 } else { year };
    format!("{year:04}-{month:02}-{day:02}")
}
