//! The traced run: a single-threaded probe that replays requests and, per
//! request, records spans from the benchmark's own code around public calls
//! into each layer.
//!
//! ```text
//! request ⊃ { multisource.engine.run_fed,
//!             multisource.engine.run_inproc,
//!             replay ⊃ { spatial.grid_query, dits.global.route,
//!                        shard (per routed source) ⊃ {
//!                            spatial.clip,
//!                            multisource.message.encode_request / decode_request,
//!                            net.pool.call,
//!                            multisource.source.serve, dits.local.search,
//!                            multisource.message.encode_reply / decode_reply,
//!                            multisource.transport.frame_roundtrip } } }
//! ```
//!
//! `dits.local.search` runs the same search a second time, next to
//! `multisource.source.serve` rather than inside it — the benchmark wraps
//! public calls only — so `multisource.source.self_us` is the difference of
//! the two spans, not a nested self time.

use std::collections::BTreeMap;
use std::path::Path;

use dits::{coverage_search, nearest_datasets, overlap_search, CoverageConfig};
use multisource::transport::{read_frame, write_frame, ServedReply};
use multisource::{
    DataSource, EngineConfig, Message, MultiSourceFramework, QueryEngine, SearchRequest,
    SourceTransport,
};
use spatial::{CellSet, Mbr, Point, SpatialDataset};

use crate::check::Checker;
use crate::deploy::Federation;
use crate::spans::Recorder;
use crate::spec::PER_LAYER;
use crate::stats::median;
use crate::workload::{QueryKind, DELTA_CELLS, K};

/// Per-request readings by metric name, reduced to medians (times) or means
/// and totals (counts) when the probe ends.
#[derive(Debug, Default)]
pub struct Readings {
    per_request: BTreeMap<&'static str, Vec<f64>>,
    totals: BTreeMap<&'static str, f64>,
    pub requests: u64,
}

impl Readings {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.per_request.entry(name).or_default().push(value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.totals.entry(name).or_default() += value;
    }

    /// Whether any per-request reading was pushed under `name`.
    pub fn has(&self, name: &str) -> bool {
        self.per_request.contains_key(name)
    }

    pub fn median(&self, name: &str) -> f64 {
        self.per_request.get(name).map_or(0.0, |v| median(v))
    }

    pub fn total(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }

    /// A total divided by the number of probed requests.
    pub fn mean(&self, name: &str) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total(name) / self.requests as f64
        }
    }
}

/// The probe's recorder and readings, written out and reduced when it ends.
#[derive(Default)]
pub struct Probe {
    pub rec: Recorder,
    pub readings: Readings,
}

impl Probe {
    /// Writes `benchmark/out/<workload>.trace.jsonl` and turns the readings
    /// into layer metrics.
    pub fn finish(
        self,
        out_dir: &Path,
        workload: &str,
        timed_p50_ms: f64,
        metrics: &mut BTreeMap<&'static str, f64>,
    ) -> Result<u64, String> {
        let path = out_dir.join(format!("{workload}.trace.jsonl"));
        self.rec
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        let readings = &self.readings;
        for m in PER_LAYER.iter().filter(|m| readings.has(m.name)) {
            metrics.insert(m.name, readings.median(m.name));
        }
        for name in [
            "spatial.query_cells",
            "dits.local.nodes_visited",
            "dits.local.nodes_pruned",
            "dits.local.exact_computations",
            "dits.local.candidates",
            "multisource.message.request_bytes",
            "multisource.message.reply_bytes",
            "multisource.engine.shards_per_query",
        ] {
            metrics.insert(name, readings.mean(name));
        }
        for name in [
            "dits.update.splits",
            "dits.update.collapses",
            "dits.update.reinserts",
        ] {
            metrics.insert(name, readings.total(name));
        }
        let ratio = |num: &str, den: &str| match readings.total(den) {
            den if den > 0.0 => readings.total(num) / den,
            _ => 0.0,
        };
        metrics.insert(
            "dits.global.routed_share",
            ratio("dits.global.routed", "dits.global.registered"),
        );
        metrics.insert(
            "dits.local.results_per_exact",
            ratio("dits.local.results", "dits.local.exact_computations"),
        );
        // The probe's own end-to-end reading against the untraced one.
        let probe_p50_ms = match readings.median("multisource.engine.run_fed_us") {
            fed if fed > 0.0 => fed / 1e3,
            _ => readings.median("multisource.engine.run_inproc_us") / 1e3,
        };
        if timed_p50_ms > 0.0 {
            metrics.insert("probe.tracing_overhead", probe_p50_ms / timed_p50_ms - 1.0);
        }
        Ok(readings.requests)
    }
}

/// Sums over the shards of one request.
#[derive(Debug, Default, Clone, Copy)]
struct ShardSums {
    shards: f64,
    call_ns: f64,
    service_ns: f64,
    serve_ns: f64,
    search_ns: f64,
    clip_ns: f64,
    encode_request_ns: f64,
    decode_request_ns: f64,
    encode_reply_ns: f64,
    decode_reply_ns: f64,
    frame_ns: f64,
    grid_ns: f64,
    route_ns: f64,
}

fn us(ns: f64) -> f64 {
    ns / 1_000.0
}

/// Probes one request: the deployment's engine, the twin's engine, then the
/// layer-by-layer replay.  `federation` is `None` for `knn_batch`, where the
/// framework is the deployment and `net` is not involved.
pub fn probe_request(
    probe: &mut Probe,
    checker: &mut Checker,
    index: usize,
    request: &SearchRequest,
    kind: QueryKind,
    twin: &MultiSourceFramework,
    federation: Option<&Federation>,
) {
    let Probe { rec, readings } = probe;
    rec.set_request(index as u32);
    readings.requests += 1;
    let whole = rec.enter("request");

    // The deployment, end to end.
    let mut run_fed_ns = 0.0;
    let fed_outcome = federation.map(|fed| {
        let engine = QueryEngine::new(&fed.center, &fed.pool, EngineConfig::default());
        let span = rec.enter("multisource.engine.run_fed");
        let outcome = engine.run(request);
        run_fed_ns = rec.exit(span) as f64;
        outcome
    });

    // The same request on the twin: through `QueryEngine::in_process` with
    // the federated engine's configuration, or — for `knn_batch` — through
    // the framework itself, once as configured and once on one worker.
    let (inproc_outcome, run_inproc_ns, sequential_ns) = match federation {
        Some(_) => {
            let engine =
                QueryEngine::in_process(twin.center(), twin.sources(), EngineConfig::default());
            let span = rec.enter("multisource.engine.run_inproc");
            let outcome = engine.run(request);
            let ns = rec.exit(span) as f64;
            (outcome, ns, ns)
        }
        None => {
            let span = rec.enter("multisource.engine.run_inproc");
            let outcome = twin.search(request);
            let ns = rec.exit(span) as f64;
            let sequential = request.clone().workers(1);
            let span = rec.enter("multisource.engine.run_sequential");
            let oracle = twin.search(&sequential);
            let sequential_ns = rec.exit(span) as f64;
            if let Some(response) = checker.observe(index, request, &outcome) {
                checker.compare(index, response, &oracle);
            }
            (outcome, ns, sequential_ns)
        }
    };
    if let Some(fed_outcome) = &fed_outcome {
        if let Some(response) = checker.observe(index, request, fed_outcome) {
            checker.compare(index, response, &inproc_outcome);
        }
    }

    // Layer by layer.
    let replay = rec.enter("replay");
    let mut sums = ShardSums::default();
    for query in request.queries() {
        replay_query(rec, readings, &mut sums, query, kind, twin, federation);
    }
    rec.exit(replay);
    rec.exit(whole);

    readings.push("spatial.grid_query_us", us(sums.grid_ns));
    readings.push("spatial.clip_us", us(sums.clip_ns));
    readings.push("dits.global.route_us", us(sums.route_ns));
    readings.push("dits.local.search_us", us(sums.search_ns));
    readings.push(
        "multisource.message.encode_request_us",
        us(sums.encode_request_ns),
    );
    readings.push(
        "multisource.message.decode_request_us",
        us(sums.decode_request_ns),
    );
    readings.push(
        "multisource.message.encode_reply_us",
        us(sums.encode_reply_ns),
    );
    readings.push(
        "multisource.message.decode_reply_us",
        us(sums.decode_reply_ns),
    );
    readings.push(
        "multisource.transport.frame_roundtrip_us",
        us(sums.frame_ns),
    );
    readings.push("multisource.source.serve_us", us(sums.serve_ns));
    readings.push(
        "multisource.source.self_us",
        us(sums.serve_ns - sums.search_ns),
    );
    readings.push("multisource.engine.run_inproc_us", us(run_inproc_ns));
    readings.add("multisource.engine.shards_per_query", sums.shards);

    // Plan + aggregate + accounting: what the engine spends on one worker
    // beyond serving the shards.
    let engine_self_ns = sequential_ns - sums.serve_ns;
    readings.push("multisource.engine.self_us", us(engine_self_ns));
    if federation.is_some() {
        readings.push("multisource.engine.run_fed_us", us(run_fed_ns));
        readings.push("multisource.source.service_us", us(sums.service_ns));
        readings.push("net.pool.call_us", us(sums.call_ns));
        readings.push("net.pool.overhead_us", us(sums.call_ns - sums.service_ns));
        readings.push(
            "multisource.engine.fanout_gap_us",
            us(run_fed_ns - engine_self_ns - sums.call_ns),
        );
        if run_fed_ns > 0.0 {
            readings.push(
                "probe.budget_coverage",
                (engine_self_ns + sums.call_ns) / run_fed_ns,
            );
        }
    } else {
        if run_inproc_ns > 0.0 {
            readings.push(
                "multisource.engine.batch_speedup",
                sequential_ns / run_inproc_ns,
            );
        }
        if sequential_ns > 0.0 {
            readings.push("probe.budget_coverage", sums.serve_ns / sequential_ns);
        }
    }
}

/// Replays one query the way the engine plans and executes it, one public
/// call per span.
fn replay_query(
    rec: &mut Recorder,
    readings: &mut Readings,
    sums: &mut ShardSums,
    query: &SpatialDataset,
    kind: QueryKind,
    twin: &MultiSourceFramework,
    federation: Option<&Federation>,
) {
    let grid = *twin.grid();
    let global = match federation {
        Some(fed) => fed.center.global(),
        None => twin.center().global(),
    };

    let span = rec.enter("spatial.grid_query");
    let cells = CellSet::from_points(&grid, &query.points);
    sums.grid_ns += rec.exit(span) as f64;
    readings.add("spatial.query_cells", cells.len() as f64);

    // Routing: MBR intersection for OJSP, widened by δ (in degrees of the
    // coarsest cell side) for CJSP.  kNN routes by distance bounds, which
    // keep every source while there are no more than k of them.
    let slack_cells = match kind {
        QueryKind::Cjsp => DELTA_CELLS,
        _ => 0.0,
    };
    let span = rec.enter("dits.global.route");
    let targets = match (kind, query.mbr()) {
        (QueryKind::Knn, _) => global.summaries(),
        (_, Some(rect)) => {
            let slack = slack_cells * grid.cell_width().max(grid.cell_height());
            global.candidate_sources(&rect, slack)
        }
        (_, None) => Vec::new(),
    };
    sums.route_ns += rec.exit(span) as f64;
    readings.add("dits.global.routed", targets.len() as f64);
    readings.add("dits.global.registered", global.source_count() as f64);

    for summary in targets {
        let Some(source) = twin.sources().iter().find(|s| s.id == summary.source) else {
            continue;
        };
        let shard = rec.enter("shard");
        let request = match kind {
            QueryKind::Knn => Message::KnnQuery {
                query: cells.clone(),
                k: K,
            },
            _ => {
                let span = rec.enter("spatial.clip");
                let root = summary.cell_space_rect(&grid);
                let window = Mbr::new(
                    Point::new(root.min.x - slack_cells, root.min.y - slack_cells),
                    Point::new(root.max.x + slack_cells, root.max.y + slack_cells),
                );
                let clipped = cells.clip_to_window(&window);
                sums.clip_ns += rec.exit(span) as f64;
                if clipped.is_empty() {
                    rec.exit(shard);
                    continue;
                }
                match kind {
                    QueryKind::Cjsp => Message::CoverageQuery {
                        query: clipped,
                        k: K,
                        delta: DELTA_CELLS,
                    },
                    _ => Message::OverlapQuery {
                        query: clipped,
                        k: K,
                    },
                }
            }
        };
        sums.shards += 1.0;
        probe_shard(rec, readings, sums, &request, source, federation);
        rec.exit(shard);
    }
}

/// One shard: codec, pool call, source service, local search, frames.
fn probe_shard(
    rec: &mut Recorder,
    readings: &mut Readings,
    sums: &mut ShardSums,
    request: &Message,
    source: &DataSource,
    federation: Option<&Federation>,
) {
    let span = rec.enter("multisource.message.encode_request");
    let request_bytes = request.encode();
    sums.encode_request_ns += rec.exit(span) as f64;
    readings.add(
        "multisource.message.request_bytes",
        request_bytes.len() as f64,
    );

    let span = rec.enter("multisource.message.decode_request");
    let decoded = Message::decode(request_bytes.clone());
    sums.decode_request_ns += rec.exit(span) as f64;
    std::hint::black_box(&decoded);

    if let Some(fed) = federation {
        let span = rec.enter("net.pool.call");
        let reply = fed.pool.call(source.id, request, true);
        sums.call_ns += rec.exit(span) as f64;
        if let Ok(reply) = &reply {
            sums.service_ns += reply.service.map_or(0.0, |d| d.as_nanos() as f64);
        }
    }

    let span = rec.enter("multisource.source.serve");
    let served = source.serve_readonly(request);
    sums.serve_ns += rec.exit(span) as f64;

    let span = rec.enter("dits.local.search");
    let results = match request {
        Message::OverlapQuery { query, k } => overlap_search(source.index(), query, *k).0.len(),
        Message::CoverageQuery { query, k, delta } => {
            let config = CoverageConfig::new(*k, *delta);
            coverage_search(source.index(), query, config)
                .0
                .datasets
                .len()
        }
        Message::KnnQuery { query, k } => nearest_datasets(source.index(), query, *k).0.len(),
        _ => 0,
    };
    sums.search_ns += rec.exit(span) as f64;

    let stats = served.search.unwrap_or_default();
    readings.add("dits.local.nodes_visited", stats.nodes_visited as f64);
    readings.add("dits.local.nodes_pruned", stats.nodes_pruned as f64);
    readings.add(
        "dits.local.exact_computations",
        stats.exact_computations as f64,
    );
    readings.add("dits.local.candidates", stats.candidates as f64);
    readings.add("dits.local.results", results as f64);

    let span = rec.enter("multisource.message.encode_reply");
    let reply_bytes = served.message.encode();
    sums.encode_reply_ns += rec.exit(span) as f64;
    readings.add("multisource.message.reply_bytes", reply_bytes.len() as f64);

    let span = rec.enter("multisource.message.decode_reply");
    let decoded = Message::decode(reply_bytes.clone());
    sums.decode_reply_ns += rec.exit(span) as f64;
    std::hint::black_box(&decoded);

    // What the transport does around the codec: both frames written to and
    // read back from memory (this re-encodes and re-decodes the messages).
    let framed_request = ServedReply::plain(request.clone());
    let mut wire: Vec<u8> = Vec::new();
    let span = rec.enter("multisource.transport.frame_roundtrip");
    let _ = write_frame(&mut wire, &framed_request, true);
    let request_frame = read_frame(&mut wire.as_slice());
    wire.clear();
    let _ = write_frame(&mut wire, &served, false);
    let reply_frame = read_frame(&mut wire.as_slice());
    sums.frame_ns += rec.exit(span) as f64;
    std::hint::black_box((&request_frame, &reply_frame));
}
