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
//!   intersection `CellSet::intersection_size` runs, against a two-pointer
//!   merge of the same dense, equal-sized grid sets as sorted cell lists,
//!   the layout a `CellSet` kept beside its blocks until schema v11 (a
//!   delta).
//! * `build/framework` — `MultiSourceFramework::build` over the five
//!   sources on the worker pool (`build/framework/pool`, one worker per
//!   CPU), against the same build on one worker
//!   (`build/framework/workers-1`); the pool's sources are first asserted
//!   equal to the one-worker build's (a delta).
//! * `build/corpus` — `ExperimentEnv::new`: the five sources generated,
//!   their dataset bodies split across the CPUs (not a delta: the corpus is
//!   the same on any number of threads, which datagen's tests hold).
//! * `kernel/distance/cached` — the dataset distance kernel over the packed
//!   blocks and the cached boundary tiles (the bounded variant is parity-checked at its
//!   own cutoff but not timed: a cutoff equal to the distance never prunes).
//! * `kernel/inverted/build`, `kernel/inverted/verify` — building one leaf's
//!   columnar inverted index from its entries, and one exact verification
//!   (the query's packed blocks `AND`ed with a leaf's key blocks, each
//!   shared cell's membership bits counted through the rank directory).
//! * `batch/ojsp/per-query`, `batch/cjsp/per-query`, `knn/per-query` — the
//!   per-query search loops over the five local indexes.
//! * `engine/ojsp/per-query`, `engine/cjsp/per-query`,
//!   `engine/knn/per-query` — the same OJSP, CJSP and kNN batches end to end
//!   through the in-process multi-source engine (kNN's includes the center's
//!   wave-2 near-block clip).
//!
//! The other sections (one line each on [`SCHEMA_VERSION`]) measure the
//! federation: the pooled transport over a loopback fleet, what each query
//! kind puts on the wire under each distribution strategy or reply protocol
//! (the paper's Figs. 13–14), one maintenance batch, the engine's
//! traversal / verify split, and what the indexes weigh.
//!
//! The suite asserts result parity between every row and its baseline or
//! oracle before timing it — the transport against the in-process engine,
//! every strategy's kNN and OJSP answer against the merged per-source brute
//! force, each source's CoverageSearch against the SG greedy, CJSP with
//! cells on demand against every pick inline, the maintenance batch over the
//! wire against the raw ops applied in place — so a snapshot can never
//! report the speed of diverging code.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use baselines::sg_coverage_search;
use bench::ExperimentEnv;
use dits::knn::nearest_datasets_bruteforce;
use dits::local::NodeKind;
use dits::overlap::overlap_search_bruteforce;
use dits::{
    coverage_search, nearest_datasets, overlap_search, CoverageConfig, DatasetNode, DitsLocal,
    DitsLocalConfig, InvertedIndex, Neighbor, PhaseTimings,
};
use multisource::{
    CandidateCells, CommStats, DataCenter, DataSource, DistributionStrategy, FrameworkConfig,
    InProcessTransport, Message, MultiSourceFramework, QueryEngine, SearchRequest, SearchResponse,
    SearchResults, SourceServer, SourceTransport, TransportError, TransportReply, UpdateOp,
};
use net::PooledTcpTransport;
use spatial::cellset::super_block_runs;
use spatial::distance::{dataset_distance, dataset_distance_bounded};
use spatial::zorder::cell_id;
use spatial::{CellId, CellSet, SourceId, SpatialDataset};

const USAGE: &str = "\
Usage: bench-runner [--quick] [--out PATH]
       bench-runner --validate PATH

--quick          reduced scale and iteration counts (the CI smoke run)
--out PATH       where to write the snapshot (default BENCH_<date>.json)
--validate PATH  check an existing snapshot against the schema and exit";

/// Schema version stamped into (and required from) every snapshot: a header
/// (`schema_version`, `date`, `quick`, `env`) and every section of
/// [`SECTIONS`], each present and non-empty:
///
/// * `kernels` — throughput and per-op p50/p99 of every timed loop;
/// * `deltas` — a kernel's speedup over a baseline timed in the same run;
/// * `transport` — QPS and per-query p50/p99 over the pooled loopback fleet;
/// * `knn_comm`, `ojsp_comm` — bytes each way, sources routed and shards sent
///   per federated query under each distribution strategy;
/// * `summary_bytes` — each source's summary-poll answer and its sketch blocks;
/// * `cjsp_comm` — bytes, exchanges and candidates named and shipped per
///   federated CJSP query, every pick inline against cells on demand;
/// * `maintenance` — bytes and encode / decode time per op of a fixed 72-op
///   batch (24 inserts, updates and deletes against the largest source);
/// * `phases` — each engine entry's source-side traversal / verify split and
///   the distance kernel's bound tests per exact distance;
/// * `index` — leaf inverted indexes, DITS-L bytes, the datasets' cell sets
///   as stored, their verify state and the build's RSS.
const SCHEMA_VERSION: u64 = 13;

/// The maintenance row every snapshot must carry, and its batch size.
const MAINTENANCE_ROW: &str = "maintenance/apply_updates";
const MAINTENANCE_BATCH_OPS: usize = 72;

/// Kernel rows every snapshot must carry.
const REQUIRED_KERNELS: [&str; 5] = [
    "kernel/inverted/build",
    "kernel/inverted/verify",
    "build/corpus",
    "build/framework/workers-1",
    "build/framework/pool",
];

/// Same-run deltas every snapshot must carry: the framework build on the
/// pool over the same build on one worker.
const REQUIRED_DELTAS: [&str; 1] = ["build/framework"];

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

/// How a field prints.
#[derive(Clone, Copy)]
enum Print {
    Int,
    Text,
    /// A number with this many decimals.
    Fixed(usize),
}

/// What `--validate` requires of a field.
#[derive(Clone, Copy)]
enum Require {
    AtLeastZero,
    Positive,
    /// In `[0, 1]`.
    Share,
    NonEmpty,
}

/// One field of a row: its key, how it prints, what `--validate` requires.
struct Field(&'static str, Print, Require);

/// An array of named rows, or one unnamed object.
#[derive(Clone, Copy, PartialEq)]
enum Shape {
    Rows,
    Object,
}

struct Section {
    key: &'static str,
    shape: Shape,
    fields: &'static [Field],
}

use Print::{Fixed, Int, Text};
use Require::{AtLeastZero, NonEmpty, Positive, Share};

const STRATEGY_COMM: &[Field] = &[
    Field("request_bytes_per_query", Fixed(1), Positive),
    Field("reply_bytes_per_query", Fixed(1), Positive),
    Field("sources_per_query", Fixed(2), Positive),
    Field("shards_per_query", Fixed(2), Positive),
];

/// The snapshot's sections, in the order they are written.
#[rustfmt::skip]
const SECTIONS: [Section; 10] = [
    Section { key: "kernels", shape: Shape::Rows, fields: &[
        Field("iters", Int, AtLeastZero),
        Field("ops_per_sec", Fixed(1), AtLeastZero),
        Field("p50_ns", Fixed(1), AtLeastZero),
        Field("p99_ns", Fixed(1), AtLeastZero),
    ] },
    Section { key: "deltas", shape: Shape::Rows, fields: &[
        Field("new", Text, NonEmpty),
        Field("baseline", Text, NonEmpty),
        Field("speedup", Fixed(2), Positive),
    ] },
    Section { key: "transport", shape: Shape::Rows, fields: &[
        Field("qps", Fixed(1), Positive),
        Field("p50_ns", Fixed(1), Positive),
        Field("p99_ns", Fixed(1), Positive),
    ] },
    Section { key: "knn_comm", shape: Shape::Rows, fields: STRATEGY_COMM },
    Section { key: "ojsp_comm", shape: Shape::Rows, fields: STRATEGY_COMM },
    Section { key: "summary_bytes", shape: Shape::Rows, fields: &[
        Field("bytes", Int, Positive),
        Field("blocks", Int, Positive),
    ] },
    Section { key: "cjsp_comm", shape: Shape::Rows, fields: &[
        Field("request_bytes_per_query", Fixed(1), Positive),
        Field("reply_bytes_per_query", Fixed(1), Positive),
        Field("exchanges_per_query", Fixed(2), Positive),
        Field("candidates_named_per_query", Fixed(2), Positive),
        Field("candidates_shipped_per_query", Fixed(2), Positive),
    ] },
    Section { key: "maintenance", shape: Shape::Rows, fields: &[
        Field("ops", Int, Positive),
        Field("bytes_per_op", Fixed(1), Positive),
        Field("encode_ns_per_op", Fixed(1), Positive),
        Field("decode_ns_per_op", Fixed(1), Positive),
    ] },
    Section { key: "phases", shape: Shape::Rows, fields: &[
        Field("traversal_ns", Int, AtLeastZero),
        Field("verify_ns", Int, AtLeastZero),
        Field("verify_share", Fixed(4), Share),
        Field("bound_tests_per_exact", Fixed(1), AtLeastZero),
    ] },
    Section { key: "index", shape: Shape::Object, fields: &[
        Field("leaves", Int, Positive),
        Field("keys", Int, Positive),
        Field("postings", Int, Positive),
        Field("inverted_bytes", Int, Positive),
        Field("bytes_per_posting", Fixed(2), Positive),
        Field("local_index_bytes", Int, Positive),
        Field("cell_bytes", Int, Positive),
        Field("verify_state_bytes", Int, Positive),
        // 0 is what a machine without procfs reports.
        Field("rss_before_build_mb", Fixed(1), AtLeastZero),
        Field("rss_after_build_mb", Fixed(1), AtLeastZero),
    ] },
];

/// The place in [`SECTIONS`] of the section named `key`.
fn section_index(key: &str) -> usize {
    let at = SECTIONS.iter().position(|s| s.key == key);
    at.unwrap_or_else(|| panic!("no section {key:?}"))
}

/// One row of a section: its name (empty in an object) and its values in
/// the section's field order.
struct Row {
    name: String,
    values: Vec<Json>,
}

impl Row {
    fn new(name: impl Into<String>, values: impl IntoIterator<Item = Json>) -> Self {
        Self {
            name: name.into(),
            values: values.into_iter().collect(),
        }
    }

    /// The value of field `key`, this being a row of section `section_key`.
    fn get(&self, section_key: &str, key: &str) -> &Json {
        let fields = SECTIONS[section_index(section_key)].fields;
        let at = fields.iter().position(|f| f.0 == key);
        at.and_then(|i| self.values.get(i))
            .unwrap_or_else(|| panic!("{section_key} rows have no field {key:?}"))
    }

    fn num(&self, section_key: &str, key: &str) -> f64 {
        self.get(section_key, key).as_number().expect("a number")
    }
}

/// A whole snapshot: the header, and one list of rows per entry of
/// [`SECTIONS`], in its order.
struct Snapshot {
    date: String,
    quick: bool,
    env: EnvInfo,
    sections: Vec<Vec<Row>>,
}

impl Snapshot {
    fn rows(&self, key: &str) -> &[Row] {
        &self.sections[section_index(key)]
    }

    fn names(&self, key: &str) -> Vec<&str> {
        self.rows(key).iter().map(|r| r.name.as_str()).collect()
    }
}

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
    let snapshot = Snapshot {
        date,
        quick,
        env: env_info(),
        sections: run_suite(quick),
    };
    std::fs::write(&out, render_snapshot(&snapshot)).unwrap_or_else(|e| {
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
    for (section, rows) in SECTIONS.iter().zip(&snapshot.sections) {
        for row in rows {
            println!("  {:<14} {}", section.key, section.render(row));
        }
    }
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

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

/// The `phases` row of a [`SearchResponse`], folded from its records: the
/// sources' traversal/verify split, and the bound tests the distance kernel
/// ran per exact distance (0 where no distance is computed).
fn phase_report(name: &str, response: &SearchResponse) -> Row {
    let mut phases = PhaseTimings::default();
    for shard in &response.shards {
        phases.merge(&shard.phases);
    }
    let search = response.search();
    Row::new(
        name,
        [
            phases.traversal.as_nanos() as f64,
            phases.verify.as_nanos() as f64,
            phases.verify_share().unwrap_or(0.0),
            search.bound_tests as f64 / search.exact_computations.max(1) as f64,
        ]
        .map(Json::Number),
    )
}

/// The machine context a snapshot was measured in.
struct EnvInfo {
    cpus: usize,
    profile: String,
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
        }
        .to_string(),
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
/// and folds the per-op nanosecond samples into a `kernels` row.
fn measure(name: &str, samples: usize, ops: usize, mut work: impl FnMut()) -> Row {
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
    let ops_per_sec = if p50 > 0.0 { 1.0e9 / p50 } else { 0.0 };
    Row::new(
        name,
        [(samples * ops) as f64, ops_per_sec, p50, p99].map(Json::Number),
    )
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// The `deltas` row of kernel `new` over kernel `baseline`.
fn delta(name: &str, new: &Row, baseline: &Row) -> Row {
    let p50 = |kernel: &Row| kernel.num("kernels", "p50_ns");
    let speedup = if p50(baseline) > 0.0 {
        p50(baseline) / p50(new).max(f64::MIN_POSITIVE)
    } else {
        0.0
    };
    Row::new(
        name,
        [
            Json::String(new.name.clone()),
            Json::String(baseline.name.clone()),
            Json::Number(speedup),
        ],
    )
}

/// A dense axis-aligned block of grid cells starting at `(x0, y0)`.
fn dense_block(x0: u32, y0: u32, w: u32, h: u32) -> CellSet {
    CellSet::from_cells((0..w).flat_map(|dx| (0..h).map(move |dy| cell_id(x0 + dx, y0 + dy))))
}

/// `|a ∩ b|` by a merge of two sorted cell lists, the loop the deleted
/// cell-list kernel ran: the delta's baseline.
fn sorted_merge_size(mut a: &[CellId], mut b: &[CellId]) -> usize {
    let mut count = 0;
    while let ([x, a_rest @ ..], [y, b_rest @ ..]) = (a, b) {
        if x < y {
            a = a_rest;
        } else if x > y {
            b = b_rest;
        } else {
            count += 1;
            (a, b) = (a_rest, b_rest);
        }
    }
    count
}

/// The rows of one `<family>/comm/*` family: `run` executes the batch under a
/// strategy (and holds its answer to the family's oracle), and neither
/// requests nor request bytes may grow from `Broadcast` to `Pruned` to
/// `PrunedClipped`.  A row counts the sources routed to and the requests sent
/// (a routed source whose clipped query is empty is sent nothing, and kNN
/// counts both of its waves).
fn strategy_comm_reports(
    family: &str,
    queries: usize,
    mut run: impl FnMut(&str, DistributionStrategy) -> CommStats,
) -> Vec<Row> {
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
        .map(|(name, comm)| {
            let counts = [
                comm.bytes_to_sources,
                comm.bytes_to_center,
                comm.sources_contacted,
                comm.requests,
            ];
            Row::new(name, counts.map(|n| Json::Number(per_query(n))))
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
) -> Vec<Row> {
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
fn summary_bytes_reports(fw: &MultiSourceFramework) -> Vec<Row> {
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
            Row::new(
                format!("summary/{}", source.name),
                [reply.wire_size() as f64, blocks.len() as f64].map(Json::Number),
            )
        })
        .collect()
}

/// The federated kNN answer by brute force: per query, the merge of one
/// brute-force search per source, ordered by distance, source and dataset.
fn knn_oracle(
    fw: &MultiSourceFramework,
    nodes_by_source: &[Vec<DatasetNode>],
    queries: &[SpatialDataset],
    k: usize,
) -> Vec<Vec<(SourceId, Neighbor)>> {
    queries
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
        .collect()
}

/// The neighbours of every answer of a kNN engine run, in query order.
fn knn_answers(response: &SearchResponse) -> Vec<Vec<(SourceId, Neighbor)>> {
    (response.knn().expect("a kNN response").iter())
        .map(|a| a.neighbors.clone())
        .collect()
}

/// Federated kNN against its oracle, under every distribution strategy:
/// the answer must be [`knn_oracle`]'s, and neither requests nor request
/// bytes may grow from `Broadcast` to `Pruned` to `PrunedClipped`.  Returns
/// what each strategy moved per query.
fn knn_comm_reports(
    fw: &MultiSourceFramework,
    oracle: &[Vec<(SourceId, Neighbor)>],
    queries: &[SpatialDataset],
    k: usize,
) -> Vec<Row> {
    strategy_comm_reports("knn", queries.len(), |name, strategy| {
        let request = SearchRequest::knn_batch(queries.to_vec())
            .k(k)
            .strategy(strategy);
        let response = fw.engine().run(&request).expect("federated kNN");
        assert_eq!(
            knn_answers(&response),
            oracle,
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

    fn call(
        &self,
        source: SourceId,
        request: &Message,
        want_stats: bool,
    ) -> Result<TransportReply, TransportError> {
        let mut reply = InProcessTransport::new(self.sources).call(source, request, want_stats)?;
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
fn cjsp_comm_reports(fw: &MultiSourceFramework, request: &SearchRequest) -> Vec<Row> {
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
        let comm = &response.comm;
        let counts = [
            comm.bytes_to_sources,
            comm.bytes_to_center,
            comm.requests,
            named,
            shipped,
        ];
        let row = Row::new(name, counts.map(|n| Json::Number(per_query(n))));
        (response.results, row)
    };
    let (oracle, every_pick_inline) = run("cjsp/comm/every-pick-inline", true);
    let (answers, cells_on_demand) = run("cjsp/comm/cells-on-demand", false);
    assert_eq!(
        answers, oracle,
        "cjsp/comm/cells-on-demand: a stub cost the federated answer a pick"
    );
    vec![every_pick_inline, cells_on_demand]
}

/// Runs every measurement; returns one list of rows per entry of
/// [`SECTIONS`], in its order.
fn run_suite(quick: bool) -> Vec<Vec<Row>> {
    let (divisor, queries_n, samples) = if quick { (400, 8, 5) } else { (100, 32, 20) };
    let theta = 11;
    let k = 10;
    let delta_cells = 4.0;
    let mut kernels = Vec::new();
    let mut deltas = Vec::new();

    // -- Kernel: dense-grid cell intersection, packed blocks vs sorted lists -
    eprintln!("[1/10] kernel/intersection/dense-grid");
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
    let lists: Vec<(Vec<CellId>, Vec<CellId>)> = (pairs.iter())
        .map(|(a, b)| (a.iter().collect(), b.iter().collect()))
        .collect();
    for ((a, b), (la, lb)) in pairs.iter().zip(&lists) {
        assert_eq!(
            a.intersection_size(b),
            sorted_merge_size(la, lb),
            "packed kernel and sorted-list merge disagree"
        );
    }
    let kernel_samples = samples * 10;
    let packed = measure(
        "kernel/intersection/dense-grid/packed",
        kernel_samples,
        pairs.len(),
        || {
            for (a, b) in &pairs {
                std::hint::black_box(
                    a.packed()
                        .intersection_size(std::hint::black_box(b).packed()),
                );
            }
        },
    );
    let sorted = measure(
        "kernel/intersection/dense-grid/sorted-lists",
        kernel_samples,
        lists.len(),
        || {
            for (a, b) in &lists {
                std::hint::black_box(sorted_merge_size(a, std::hint::black_box(b)));
            }
        },
    );
    deltas.push(delta("kernel/intersection/dense-grid", &packed, &sorted));
    kernels.extend([packed, sorted]);

    // -- Kernel: dataset distance --------------------------------------------
    eprintln!("[2/10] kernel/distance (cached)");
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
    // Every dataset's cell set as stored, before any search builds verify
    // state on it.
    let cell_bytes: usize = (indexes.iter().flat_map(DitsLocal::dataset_nodes))
        .map(|node| node.cells.memory_bytes())
        .sum();
    let nodes_by_source: Vec<Vec<DatasetNode>> = (0..env.source_data.len())
        .map(|s| env.dataset_nodes(s, theta))
        .collect();
    let queries = env.query_cells(queries_n, theta);
    assert!(!queries.is_empty(), "query workload must not be empty");
    let batch_ops = indexes.len() * queries.len();
    // Before any row over the federation is timed: a lost neighbour fails
    // the run here.
    let raw_queries = env.query_datasets(queries_n);
    let knn_truth = knn_oracle(&fw, &nodes_by_source, &raw_queries, k);
    let knn_comm = knn_comm_reports(&fw, &knn_truth, &raw_queries, k);
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
    // This pass also materialises the cached boundary tiles the row reuses; the bounded kernel must be exact at its own cutoff.
    for &(q, c) in &distance_pairs {
        let truth = dataset_distance(q, c);
        assert_eq!(
            dataset_distance_bounded(q, c, truth).0,
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
    eprintln!("[3/10] kernel/inverted (leaf column build + verification merge)");
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
    let postings: usize = leaves
        .iter()
        .flat_map(|(entries, _)| entries.iter().map(DatasetNode::coverage))
        .sum();
    // The leaf columns hold no cache; the verify pass below re-reads this
    // sum and aborts if a query grew it, so the row cannot miss one.
    let leaf_bytes = || -> usize { leaves.iter().map(|(_, inv)| inv.memory_bytes()).sum() };
    let inverted_bytes = leaf_bytes();
    let local_index_bytes: usize = indexes.iter().map(DitsLocal::memory_bytes).sum();
    // Every dataset's verify state, built: what kNN verification holds once
    // it has reached every dataset.  The boundary tiles stay within 16 B a
    // tile and 24 B a super-block, next to the packed blocks' 16 B a tile.
    let mut verify_state_bytes = 0;
    for cells in leaves
        .iter()
        .flat_map(|(entries, _)| entries.iter().map(|e| &e.cells))
    {
        let bytes = cells.verify_state_bytes();
        let blocks = cells.packed().blocks();
        let supers = super_block_runs(blocks, |(key, _)| key).count();
        assert!(
            bytes <= 32 * blocks.len() + 24 * supers,
            "verify state over budget: {bytes} B for {} tiles and {supers} super-blocks",
            blocks.len()
        );
        verify_state_bytes += bytes;
    }
    let index = Row::new(
        "",
        [
            leaves.len() as f64,
            leaves.iter().map(|(_, inv)| inv.key_count()).sum::<usize>() as f64,
            postings as f64,
            inverted_bytes as f64,
            inverted_bytes as f64 / postings.max(1) as f64,
            local_index_bytes as f64,
            cell_bytes as f64,
            verify_state_bytes as f64,
            rss_before_build_mb,
            rss_after_build_mb,
        ]
        .map(Json::Number),
    );
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
    assert_eq!(
        leaf_bytes(),
        inverted_bytes,
        "verification grew the leaf columns: the `index` row would miss that memory"
    );
    kernels.extend([inverted_build, inverted_verify]);

    // -- Batch OJSP / CJSP over the five local indexes ----------------------
    eprintln!("[4/10] batch/ojsp + batch/cjsp (scale 1/{divisor}, {queries_n} queries)");

    kernels.push(measure("batch/ojsp/per-query", samples, batch_ops, || {
        for index in &indexes {
            for q in &queries {
                std::hint::black_box(overlap_search(index, q, k));
            }
        }
    }));
    let coverage_config = CoverageConfig::new(k, delta_cells);
    for (index, nodes) in indexes.iter().zip(&nodes_by_source) {
        for q in &queries {
            assert_eq!(
                coverage_search(index, q, coverage_config).0,
                sg_coverage_search(nodes, q, k, delta_cells).0,
                "CoverageSearch diverged from the SG greedy"
            );
        }
    }
    kernels.push(measure("batch/cjsp/per-query", samples, batch_ops, || {
        for index in &indexes {
            for q in &queries {
                std::hint::black_box(coverage_search(index, q, coverage_config));
            }
        }
    }));

    eprintln!("[5/10] knn/per-query");
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
    eprintln!("[6/10] engine/ojsp + engine/cjsp + engine/knn per-query");
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
    kernels.push(measure(
        "engine/cjsp/per-query",
        samples,
        raw_queries.len(),
        || {
            std::hint::black_box(in_process_engine.run(&cjsp_request).expect("CJSP"));
        },
    ));
    let knn_request = SearchRequest::knn_batch(raw_queries.clone()).k(k);
    assert_eq!(
        knn_answers(&in_process_engine.run(&knn_request).expect("kNN")),
        knn_truth,
        "engine/knn/per-query diverged from the merged brute force"
    );
    kernels.push(measure(
        "engine/knn/per-query",
        samples,
        raw_queries.len(),
        || {
            std::hint::black_box(in_process_engine.run(&knn_request).expect("kNN"));
        },
    ));

    // -- Transport: pooled TCP over a loopback fleet --------------------------
    // Every source runs as its own server (real sockets, real frames); the
    // same workload is answered through the pooled transport, after
    // asserting it matches the in-process oracle bit for bit.
    eprintln!("[7/10] transport/pooled (loopback fleet)");
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
        let timed = measure(
            &format!("transport/pooled/{kind}"),
            samples,
            raw_queries.len(),
            || {
                std::hint::black_box(pooled_engine.run(request).expect("federated run"));
            },
        );
        // Once the op is "run one query over the wire", ops per second are
        // queries per second.
        let values = ["ops_per_sec", "p50_ns", "p99_ns"].map(|f| timed.get("kernels", f).clone());
        transport.push(Row::new(timed.name, values));
    }
    // Drain the fleet so the run exits cleanly instead of leaking accept
    // loops; the pooled transport's connections close as it drops.
    drop(pooled);
    for server in servers {
        server.shutdown();
    }

    // -- Maintenance: the ApplyUpdates exchange on a fixed 72-op batch --------
    eprintln!("[8/10] {MAINTENANCE_ROW} ({MAINTENANCE_BATCH_OPS}-op batch on the wire)");
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
    let maintenance = Row::new(
        MAINTENANCE_ROW,
        [
            MAINTENANCE_BATCH_OPS as f64,
            batch_bytes.len() as f64 / MAINTENANCE_BATCH_OPS as f64,
            encode.num("kernels", "p50_ns"),
            decode.num("kernels", "p50_ns"),
        ]
        .map(Json::Number),
    );

    // Phase breakdown: one run per engine entry splits the sources' time
    // into index traversal vs. candidate verification (the paper's
    // "verification dominates" claim, measured instead of asserted).
    eprintln!("[9/10] phase breakdown (engine runs' records)");
    let phases: Vec<Row> = [
        ("ojsp", &ojsp_request),
        ("cjsp", &cjsp_request),
        ("knn", &knn_request),
    ]
    .map(|(kind, request)| {
        let response = in_process_engine.run(request).expect("engine run");
        phase_report(&format!("engine/{kind}/per-query"), &response)
    })
    .into();

    // -- The corpus, then the framework build on one worker and on the pool --
    eprintln!("[10/10] build/corpus, build/framework (workers-1 against the pool)");
    let corpus = measure("build/corpus", samples, 1, || {
        std::hint::black_box(ExperimentEnv::new(divisor, 0xBEEF));
    });
    kernels.push(corpus);
    let build_config = |workers| FrameworkConfig {
        resolution: theta,
        workers,
        ..FrameworkConfig::default()
    };
    // `fw` was built on the pool.
    let serial = env.framework(build_config(1));
    assert_eq!(fw.sources().len(), serial.sources().len());
    for (got, want) in fw.sources().iter().zip(serial.sources()) {
        assert!(
            got.index() == want.index(),
            "the pool built source {} differently",
            want.id
        );
    }
    drop(serial);
    let serial_build = measure("build/framework/workers-1", samples, 1, || {
        std::hint::black_box(env.framework(build_config(1)));
    });
    let pool_build = measure("build/framework/pool", samples, 1, || {
        std::hint::black_box(env.framework(build_config(0)));
    });
    deltas.push(delta("build/framework", &pool_build, &serial_build));
    kernels.extend([serial_build, pool_build]);

    vec![
        kernels,
        deltas,
        transport,
        knn_comm,
        ojsp_comm,
        summary_bytes,
        cjsp_comm,
        vec![maintenance],
        phases,
        vec![index],
    ]
}

// ---------------------------------------------------------------------------
// Snapshot writing
// ---------------------------------------------------------------------------

fn render_snapshot(snapshot: &Snapshot) -> String {
    let env = &snapshot.env;
    let mut s = format!(
        "{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"date\": \"{}\",\n  \"quick\": {},\n  \
         \"env\": {{\"cpus\": {}, \"profile\": \"{}\", \"git_commit\": \"{}\"}},\n",
        escape_json(&snapshot.date),
        snapshot.quick,
        env.cpus,
        escape_json(&env.profile),
        escape_json(&env.git_commit)
    );
    for (i, (section, rows)) in SECTIONS.iter().zip(&snapshot.sections).enumerate() {
        let rendered: Vec<String> = rows.iter().map(|row| section.render(row)).collect();
        let body = match section.shape {
            Shape::Rows => format!("[\n    {}\n  ]", rendered.join(",\n    ")),
            Shape::Object => rendered.concat(),
        };
        let comma = if i + 1 < SECTIONS.len() { "," } else { "" };
        s.push_str(&format!("  \"{}\": {body}{comma}\n", section.key));
    }
    s.push_str("}\n");
    s
}

impl Field {
    fn render(&self, value: &Json) -> String {
        match (self.1, value) {
            (Text, Json::String(text)) => format!("\"{}\"", escape_json(text)),
            (Int, Json::Number(n)) => format!("{n:.0}"),
            (Fixed(decimals), Json::Number(n)) => format!("{n:.decimals$}"),
            _ => panic!("{} cannot print {value:?}", self.0),
        }
    }

    /// Reads field `self` out of `row` (the row at `at`) and checks it.
    fn read(&self, row: &Json, at: &str) -> Result<Json, String> {
        let Field(key, print, require) = *self;
        let value = match (print, row.get(key)) {
            (Text, Some(Json::String(text))) => Json::String(text.clone()),
            (Int | Fixed(_), Some(Json::Number(n))) => Json::Number(*n),
            (Text, _) => return Err(format!("{at} missing string {key}")),
            _ => return Err(format!("{at} missing numeric {key}")),
        };
        let (ok, what) = match (&value, require) {
            (Json::String(text), NonEmpty) => (!text.is_empty(), "non-empty"),
            (Json::Number(n), AtLeastZero) => (n.is_finite() && *n >= 0.0, "≥ 0"),
            (Json::Number(n), Positive) => (n.is_finite() && *n > 0.0, "> 0"),
            (Json::Number(n), Share) => ((0.0..=1.0).contains(n), "in [0, 1]"),
            _ => (false, "of its printed kind"),
        };
        let shown = self.render(&value);
        ok.then_some(value)
            .ok_or(format!("{at}.{key} = {shown} is not {what}"))
    }
}

impl Section {
    fn render(&self, row: &Row) -> String {
        assert_eq!(row.values.len(), self.fields.len(), "{}", row.name);
        let name = (self.shape == Shape::Rows)
            .then(|| format!("\"name\": \"{}\"", escape_json(&row.name)));
        let fields = self
            .fields
            .iter()
            .zip(&row.values)
            .map(|(field, value)| format!("\"{}\": {}", field.0, field.render(value)));
        let fields: Vec<String> = name.into_iter().chain(fields).collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// Reads and checks every row of this section out of the snapshot
    /// `root`: present, non-empty, every field of the printed kind and
    /// meeting its requirement.
    fn read(&self, root: &Json) -> Result<Vec<Row>, String> {
        let key = self.key;
        let items = match (self.shape, root.get(key)) {
            (Shape::Rows, Some(Json::Array(items))) if !items.is_empty() => &items[..],
            (Shape::Object, Some(object @ Json::Object(_))) => std::slice::from_ref(object),
            _ => return Err(format!("missing non-empty {key}")),
        };
        let mut rows = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let at = format!("{key}[{i}]");
            let name = match self.shape {
                Shape::Rows => Field("name", Text, NonEmpty).read(item, &at)?,
                Shape::Object => Json::String(String::new()),
            };
            let values = self.fields.iter().map(|field| field.read(item, &at));
            let name = name.as_str().unwrap_or_default();
            rows.push(Row::new(name, values.collect::<Result<Vec<_>, _>>()?));
        }
        Ok(rows)
    }
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
    let snapshot = parse_snapshot(&text)?;
    let counts: Vec<String> = SECTIONS
        .iter()
        .zip(&snapshot.sections)
        .map(|(section, rows)| format!("{} {}", rows.len(), section.key))
        .collect();
    Ok(counts.join(", "))
}

/// Reads a snapshot and checks it: the header, every section by
/// [`SECTIONS`], then the rules that span sections.
fn parse_snapshot(text: &str) -> Result<Snapshot, String> {
    let root = Parser::new(text).parse()?;

    let number = |json: &Json, key: &str| json.get(key).and_then(Json::as_number);
    fn string<'a>(json: &'a Json, key: &str) -> Result<&'a str, String> {
        let value = json.get(key).and_then(Json::as_str);
        value.ok_or(format!("missing string {key}"))
    }
    let version = number(&root, "schema_version");
    if version != Some(SCHEMA_VERSION as f64) {
        return Err(format!(
            "schema_version {version:?} is not Some({SCHEMA_VERSION}.0)"
        ));
    }
    let date = string(&root, "date")?;
    if !date.split('-').map(str::len).eq([4, 2, 2])
        || !date.bytes().all(|b| b == b'-' || b.is_ascii_digit())
    {
        return Err(format!("date {date:?} is not YYYY-MM-DD"));
    }
    let Some(&Json::Bool(quick)) = root.get("quick") else {
        return Err("missing boolean quick".into());
    };

    let env = root.get("env").ok_or("missing env object")?;
    let cpus = number(env, "cpus").filter(|n| n.is_finite() && *n >= 1.0);
    let (profile, git_commit) = (string(env, "profile")?, string(env, "git_commit")?);
    if cpus.is_none() || !matches!(profile, "release" | "debug") || git_commit.is_empty() {
        return Err(format!(
            "env {{cpus: {cpus:?}, profile: {profile:?}, git_commit: {git_commit:?}}} is not \
             {{a CPU count, release or debug, a commit}}"
        ));
    }

    let snapshot = Snapshot {
        date: date.to_string(),
        quick,
        env: EnvInfo {
            cpus: cpus.unwrap_or_default() as usize,
            profile: profile.to_string(),
            git_commit: git_commit.to_string(),
        },
        sections: SECTIONS
            .iter()
            .map(|section| section.read(&root))
            .collect::<Result<_, _>>()?,
    };

    let kernels = snapshot.names("kernels");
    for (i, d) in snapshot.rows("deltas").iter().enumerate() {
        for side in ["new", "baseline"] {
            let name = d.get("deltas", side).as_str().unwrap_or_default();
            if !kernels.contains(&name) {
                return Err(format!(
                    "deltas[{i}].{side} {name:?} names no measured kernel"
                ));
            }
        }
    }
    let required = [
        ("kernels", &REQUIRED_KERNELS[..]),
        ("deltas", &REQUIRED_DELTAS[..]),
        ("phases", &REQUIRED_PHASES[..]),
        ("maintenance", &[MAINTENANCE_ROW][..]),
    ];
    for (key, rows) in required {
        let names = snapshot.names(key);
        if let Some(missing) = rows.iter().find(|row| !names.contains(row)) {
            return Err(format!("{key} missing required row {missing:?}"));
        }
    }
    if !snapshot
        .names("transport")
        .iter()
        .any(|n| n.starts_with(REQUIRED_TRANSPORT_PREFIX))
    {
        return Err(format!(
            "transport section has no {REQUIRED_TRANSPORT_PREFIX}* rows — the \
             federated deployment must be measured"
        ));
    }
    Ok(snapshot)
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `BENCH_*.json` at the repository root, with its text.
    fn committed_snapshots() -> Vec<(String, String)> {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut snapshots: Vec<(String, String)> = std::fs::read_dir(&root)
            .expect("the repository root")
            .filter_map(|entry| {
                let name = entry.ok()?.file_name().into_string().ok()?;
                (name.starts_with("BENCH_") && name.ends_with(".json")).then_some(name)
            })
            .map(|name| {
                let text = std::fs::read_to_string(root.join(&name)).expect("readable snapshot");
                (name, text)
            })
            .collect();
        snapshots.sort();
        assert!(!snapshots.is_empty(), "no committed BENCH_*.json");
        snapshots
    }

    #[test]
    fn every_committed_snapshot_validates_and_renders_back_byte_for_byte() {
        for (name, text) in committed_snapshots() {
            let snapshot = parse_snapshot(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                render_snapshot(&snapshot) == text,
                "{name}: rendered differently"
            );
        }
    }

    /// The byte range of the first `"key": ` value in `text`: up to the next
    /// `,` or `}` (a number), or through the closing quote (a string).
    fn value_span(text: &str, key: &str) -> std::ops::Range<usize> {
        let tag = format!("\"{key}\": ");
        let start = text.find(&tag).unwrap_or_else(|| panic!("no {key}")) + tag.len();
        let len = if text[start..].starts_with('"') {
            text[start + 1..].find('"').expect("a closing quote") + 2
        } else {
            text[start..].find([',', '}']).expect("a number ends")
        };
        start..start + len
    }

    fn set(text: &str, key: &str, value: &str) -> String {
        let mut out = text.to_string();
        out.replace_range(value_span(text, key), value);
        out
    }

    /// `text` without the line holding `needle`.
    fn without_line(text: &str, needle: &str) -> String {
        let at = text.find(needle).expect("the line is there");
        let start = text[..at].rfind('\n').map_or(0, |i| i + 1);
        let end = at + text[at..].find('\n').expect("a line end") + 1;
        format!("{}{}", &text[..start], &text[end..])
    }

    /// A one-edit mutation: what it does, a piece of the reason
    /// `--validate` must refuse it with, and the edit.
    type Mutation = (&'static str, &'static str, fn(&str) -> String);

    fn mutations() -> Vec<Mutation> {
        vec![
            ("schema_version 8", "schema_version", |t| {
                set(t, "schema_version", "8")
            }),
            ("date 2026-1-15", "YYYY-MM-DD", |t| {
                set(t, "date", "\"2026-1-15\"")
            }),
            ("env.profile fast", "profile: \"fast\"", |t| {
                set(t, "profile", "\"fast\"")
            }),
            ("empty env.git_commit", "git_commit: \"\"", |t| {
                set(t, "git_commit", "\"\"")
            }),
            ("a kernel p50_ns of -1", "kernels[0].p50_ns", |t| {
                set(t, "p50_ns", "-1")
            }),
            (
                "a delta baseline naming no kernel",
                "names no measured kernel",
                |t| set(t, "baseline", "\"kernel/none\""),
            ),
            ("a delta speedup of 0", "deltas[0].speedup", |t| {
                set(t, "speedup", "0")
            }),
            (
                "build/framework delta renamed",
                "deltas missing required row \"build/framework\"",
                |t| {
                    let row = "{\"name\": \"build/framework\", \"new\"";
                    t.replace(row, "{\"name\": \"build/other\", \"new\"")
                },
            ),
            (
                "build/corpus kernel renamed",
                "kernels missing required row \"build/corpus\"",
                |t| t.replace("{\"name\": \"build/corpus\"", "{\"name\": \"build/other\""),
            ),
            (
                "build/framework/pool kernel renamed",
                "\"build/framework/pool\" names no measured kernel",
                |t| {
                    let row = "{\"name\": \"build/framework/pool\", \"iters\"";
                    t.replace(row, "{\"name\": \"build/framework/other\", \"iters\"")
                },
            ),
            ("verify_share 1.5", "verify_share", |t| {
                set(t, "verify_share", "1.5")
            }),
            (
                "engine/cjsp/per-query phase removed",
                "\"engine/cjsp/per-query\"",
                |t| without_line(t, "{\"name\": \"engine/cjsp/per-query\", \"traversal_ns\""),
            ),
            (
                "no transport/pooled/ row",
                "no transport/pooled/* rows",
                |t| t.replace("\"transport/pooled/", "\"transport/other/"),
            ),
            (
                "maintenance row renamed",
                "\"maintenance/apply_updates\"",
                |t| t.replace("\"maintenance/apply_updates\"", "\"maintenance/renamed\""),
            ),
            ("index.postings 0", "index[0].postings", |t| {
                set(t, "postings", "0")
            }),
            ("index.cell_bytes 0", "index[0].cell_bytes", |t| {
                set(t, "cell_bytes", "0")
            }),
            (
                "index.verify_state_bytes 0",
                "index[0].verify_state_bytes",
                |t| set(t, "verify_state_bytes", "0"),
            ),
            (
                "a bound_tests_per_exact of -1",
                "phases[0].bound_tests_per_exact",
                |t| set(t, "bound_tests_per_exact", "-1"),
            ),
            (
                "a cjsp_comm count of 0",
                "cjsp_comm[0].exchanges_per_query",
                |t| set(t, "exchanges_per_query", "0"),
            ),
            ("trailing bytes", "trailing data", |t| format!("{t}0\n")),
            ("knn_comm removed", "missing non-empty knn_comm", |t| {
                let start = t.find("  \"knn_comm\": [").expect("a knn_comm section");
                let end = start + t[start..].find("  ],\n").expect("its end") + 5;
                format!("{}{}", &t[..start], &t[end..])
            }),
            (
                "shards_per_query removed",
                "knn_comm[0] missing numeric shards_per_query",
                |t| {
                    // The first occurrence is in `knn_comm`.
                    let span = value_span(t, "shards_per_query");
                    let key = ", \"shards_per_query\": ".len();
                    format!("{}{}", &t[..span.start - key], &t[span.end..])
                },
            ),
        ]
    }

    #[test]
    fn every_one_edit_mutation_of_a_committed_snapshot_is_refused() {
        for (name, text) in committed_snapshots() {
            for (what, reason, mutate) in mutations() {
                let mutated = mutate(&text);
                assert_ne!(mutated, text, "{what}: the edit changed nothing");
                match parse_snapshot(&mutated) {
                    Ok(_) => panic!("{name} with {what} was accepted"),
                    Err(e) => assert!(e.contains(reason), "{name} with {what}: {e}"),
                }
            }
        }
    }
}
