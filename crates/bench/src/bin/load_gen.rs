//! `load-gen` — open-loop load generator for the federated deployment.
//!
//! Spawns one `source-server` child process per data source — the binary
//! next to this one unless `--server-bin` names another — then fires
//! single-query OJSP / CJSP / kNN requests at the fleet with Poisson
//! (exponential inter-arrival) timing.  The loop is **open**: arrival times
//! are scheduled up front from the requested rate, and a request's latency
//! is measured from its *scheduled* arrival, so a saturated fleet shows up
//! as growing latency instead of a silently throttled rate
//! (no coordinated omission).
//!
//! ```text
//! cargo build --release -p multisource --bin source-server
//! load-gen --rate 200 --duration 5 --concurrency 8 --mix 2:1:1
//! ```
//!
//! The last stdout line is machine-readable:
//!
//! ```text
//! RESULT sent=1003 completed=1003 errors=0 qps=199.8 p50_ns=812345 p99_ns=2345678 retries=0 timeouts=0 backpressure=0
//! ```
//!
//! The last three fields are the pool's counters, what no reply can carry:
//! calls re-sent after a dropped connection, calls past their deadline and
//! calls shed by a saturated source.
//!
//! Everything is deterministic given `--seed` (data, arrival schedule, and
//! query-kind mix draw from the same vendored SplitMix64 generator).

use std::io::{BufRead, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use bench::ExperimentEnv;
use multisource::{DataCenter, EngineConfig, FrameworkConfig, QueryEngine, SearchRequest};
use net::PooledTcpTransport;
use rand::prelude::*;
use spatial::SourceId;

const USAGE: &str = "\
Usage: load-gen [OPTIONS]

Open-loop Poisson load against a loopback fleet of source-server processes.

  --rate QPS          mean arrival rate, queries/sec      (default: 200)
  --duration SECS     how long to schedule arrivals for   (default: 5)
  --concurrency N     worker threads issuing requests     (default: 8)
  --mix A:B:C         ojsp:cjsp:knn weight mix            (default: 1:1:1)
  --server-bin PATH   the source-server binary            (default: next to load-gen)
  --queries N         distinct query datasets to cycle    (default: 16)
  --k N               top-k per query                     (default: 5)
  --divisor N         datagen scale divisor               (default: 400)
  --seed N            deterministic seed                  (default: 53621)";

struct Args {
    rate: f64,
    duration: f64,
    concurrency: usize,
    mix: [u64; 3],
    server_bin: PathBuf,
    queries: usize,
    k: usize,
    divisor: u32,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        rate: 200.0,
        duration: 5.0,
        concurrency: 8,
        mix: [1, 1, 1],
        server_bin: PathBuf::new(),
        queries: 16,
        k: 5,
        divisor: 400,
        seed: 53_621,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            println!("{USAGE}");
            std::process::exit(0);
        }
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n\n{USAGE}"))
        };
        match flag.as_str() {
            "--rate" => {
                parsed.rate = value("--rate")?
                    .parse()
                    .map_err(|e| format!("--rate: {e}"))?
            }
            "--duration" => {
                parsed.duration = value("--duration")?
                    .parse()
                    .map_err(|e| format!("--duration: {e}"))?
            }
            "--concurrency" => {
                parsed.concurrency = value("--concurrency")?
                    .parse()
                    .map_err(|e| format!("--concurrency: {e}"))?
            }
            "--mix" => parsed.mix = parse_mix(&value("--mix")?)?,
            "--server-bin" => parsed.server_bin = PathBuf::from(value("--server-bin")?),
            "--queries" => {
                parsed.queries = value("--queries")?
                    .parse()
                    .map_err(|e| format!("--queries: {e}"))?
            }
            "--k" => parsed.k = value("--k")?.parse().map_err(|e| format!("--k: {e}"))?,
            "--divisor" => {
                parsed.divisor = value("--divisor")?
                    .parse()
                    .map_err(|e| format!("--divisor: {e}"))?
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
        }
    }
    if !(parsed.rate > 0.0 && parsed.rate.is_finite()) {
        return Err("--rate must be positive".into());
    }
    if !(parsed.duration > 0.0 && parsed.duration.is_finite()) {
        return Err("--duration must be positive".into());
    }
    if parsed.concurrency == 0 {
        return Err("--concurrency must be at least 1".into());
    }
    if parsed.queries == 0 || parsed.k == 0 {
        return Err("--queries and --k must be at least 1".into());
    }
    if parsed.server_bin.as_os_str().is_empty() {
        let exe = std::env::current_exe().map_err(|e| format!("locate load-gen: {e}"))?;
        parsed.server_bin = exe.with_file_name("source-server");
    }
    if !parsed.server_bin.is_file() {
        return Err(format!(
            "no source-server binary at {}: build it with \
             `cargo build --release -p multisource --bin source-server`, or pass --server-bin",
            parsed.server_bin.display()
        ));
    }
    Ok(parsed)
}

/// Parses an `A:B:C` weight triple; zero weights mute a kind entirely.
fn parse_mix(raw: &str) -> Result<[u64; 3], String> {
    let parts: Vec<&str> = raw.split(':').collect();
    let [a, b, c] = parts.as_slice() else {
        return Err(format!("--mix: {raw:?} is not A:B:C"));
    };
    let parse = |p: &str| p.parse::<u64>().map_err(|e| format!("--mix: {e}"));
    let mix = [parse(a)?, parse(b)?, parse(c)?];
    if mix.iter().sum::<u64>() == 0 {
        return Err("--mix: at least one weight must be positive".into());
    }
    Ok(mix)
}

const KIND_NAMES: [&str; 3] = ["ojsp", "cjsp", "knn"];

// ---------------------------------------------------------------------------
// Fleet: spawned source-server processes
// ---------------------------------------------------------------------------

/// One spawned `source-server` child with its stdin/stdout kept for the
/// `SHUTDOWN` / `DRAINED` drain handshake.
struct ServerProcess {
    child: Child,
    addr: String,
    stdin: Option<std::process::ChildStdin>,
    stdout: std::io::BufReader<std::process::ChildStdout>,
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The serving side of the benchmark: one `source-server` child per source
/// over loopback TCP, and the directory holding their data files.
struct Fleet {
    servers: Vec<ServerProcess>,
    dir: PathBuf,
}

impl Fleet {
    fn endpoints(&self) -> Vec<(SourceId, String)> {
        self.servers
            .iter()
            .enumerate()
            .map(|(i, s)| (i as SourceId, s.addr.clone()))
            .collect()
    }

    /// Drains every server gracefully: each child gets the `SHUTDOWN` line
    /// and is awaited until it confirms `DRAINED`.
    fn shutdown(mut self) {
        for server in &mut self.servers {
            if let Some(mut stdin) = server.stdin.take() {
                let _ = stdin.write_all(b"SHUTDOWN\n");
            }
            let mut line = String::new();
            while server.stdout.read_line(&mut line).is_ok_and(|n| n > 0) {
                if line.trim() == "DRAINED" {
                    break;
                }
                line.clear();
            }
            let _ = server.child.wait();
        }
        drop(self.servers);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn spawn_fleet(env: &ExperimentEnv, resolution: u32, bin: &Path) -> Fleet {
    let dir = std::env::temp_dir().join(format!("load-gen-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let servers = env
        .source_data
        .iter()
        .enumerate()
        .map(|(i, (_, datasets))| {
            // One `dataset_id lon lat` triple per line, the binary's format.
            let data_path = dir.join(format!("source-{i}.tsv"));
            let mut file = std::fs::File::create(&data_path).expect("create data file");
            for d in datasets {
                for p in &d.points {
                    writeln!(file, "{} {} {}", d.id, p.x, p.y).expect("write data file");
                }
            }
            drop(file);

            let mut child = Command::new(bin)
                .args([
                    "--id",
                    &i.to_string(),
                    "--resolution",
                    &resolution.to_string(),
                    "--listen",
                    "127.0.0.1:0",
                    "--data",
                    data_path.to_str().expect("utf8 path"),
                ])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn source-server");
            let stdin = child.stdin.take();
            let mut stdout = std::io::BufReader::new(child.stdout.take().expect("piped stdout"));
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
                stdin,
                stdout,
            }
        })
        .collect();
    Fleet { servers, dir }
}

// ---------------------------------------------------------------------------
// The open loop
// ---------------------------------------------------------------------------

/// What one worker thread brings home.
struct WorkerTally {
    latencies_ns: Vec<u64>,
    completed_by_kind: [u64; 3],
    errors: u64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let resolution = 11;

    eprintln!(
        "load-gen: rate={}/s for {}s, concurrency={}, mix ojsp:cjsp:knn = {}:{}:{}",
        args.rate, args.duration, args.concurrency, args.mix[0], args.mix[1], args.mix[2],
    );

    let env = ExperimentEnv::new(args.divisor, args.seed);
    let fleet = spawn_fleet(&env, resolution, &args.server_bin);
    let endpoints = fleet.endpoints();
    eprintln!(
        "load-gen: {} source-server processes serving on loopback",
        endpoints.len(),
    );

    // One engine over the pooled transport; the data center bootstraps its
    // DITS-G from the fleet itself, exactly as a real deployment would.
    let transport =
        PooledTcpTransport::new(endpoints).map_err(|e| format!("pooled transport: {e}"))?;
    let leaf_capacity = FrameworkConfig::default().leaf_capacity;
    let center = DataCenter::from_transport(&transport, leaf_capacity)
        .map_err(|e| format!("summary poll: {e}"))?;
    let engine = QueryEngine::new(&center, &transport, EngineConfig::default());

    // Single-query request templates, one per (kind, query): the hot loop
    // only indexes into this table.
    let query_data = env.query_datasets(args.queries);
    let requests: Vec<Vec<SearchRequest>> = (0..3)
        .map(|kind| {
            query_data
                .iter()
                .map(|q| match kind {
                    0 => SearchRequest::ojsp_batch(vec![q.clone()]).k(args.k),
                    1 => SearchRequest::cjsp_batch(vec![q.clone()])
                        .k(args.k)
                        .delta_cells(4.0),
                    _ => SearchRequest::knn_batch(vec![q.clone()]).k(args.k),
                })
                .collect()
        })
        .collect();

    // Schedule every arrival up front: exponential gaps at the target rate,
    // each arrival tagged with a weighted query kind and a query index.
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x4C4F_4144);
    let mix_total: u64 = args.mix.iter().sum();
    let mut arrivals: Vec<(u64, usize, usize)> = Vec::new();
    let mut clock_secs = 0.0_f64;
    while clock_secs < args.duration {
        let uniform: f64 = rng.random();
        clock_secs += -(1.0 - uniform).ln() / args.rate;
        if clock_secs >= args.duration {
            break;
        }
        let mut draw = rng.random_range(0..mix_total);
        let mut kind = 2;
        for (i, &weight) in args.mix.iter().enumerate() {
            if draw < weight {
                kind = i;
                break;
            }
            draw -= weight;
        }
        let query_idx = arrivals.len() % query_data.len();
        arrivals.push(((clock_secs * 1e9) as u64, kind, query_idx));
    }
    eprintln!("load-gen: scheduled {} arrivals", arrivals.len());

    // Workers pull arrivals off a shared cursor, sleep until each one's
    // scheduled instant, and measure latency from that instant — queueing
    // delay behind a slow fleet counts against the fleet.
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();
    let tallies: Vec<WorkerTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.concurrency)
            .map(|_| {
                scope.spawn(|| {
                    let mut tally = WorkerTally {
                        latencies_ns: Vec::new(),
                        completed_by_kind: [0; 3],
                        errors: 0,
                    };
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&(offset_ns, kind, query_idx)) = arrivals.get(i) else {
                            break;
                        };
                        let target = started + Duration::from_nanos(offset_ns);
                        if let Some(wait) = target.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let request = &requests[kind][query_idx];
                        match engine.run(request) {
                            Ok(response) => {
                                std::hint::black_box(&response);
                                let latency = Instant::now().duration_since(target);
                                tally.latencies_ns.push(latency.as_nanos() as u64);
                                tally.completed_by_kind[kind] += 1;
                            }
                            Err(_) => tally.errors += 1,
                        }
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let elapsed = started.elapsed();

    let mut latencies: Vec<u64> = Vec::new();
    let mut completed_by_kind = [0u64; 3];
    let mut errors = 0u64;
    for tally in tallies {
        latencies.extend(tally.latencies_ns);
        for (total, n) in completed_by_kind.iter_mut().zip(tally.completed_by_kind) {
            *total += n;
        }
        errors += tally.errors;
    }
    latencies.sort_unstable();
    let completed = latencies.len() as u64;
    let qps = completed as f64 / elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
    let p50 = percentile(&latencies, 50.0);
    let p99 = percentile(&latencies, 99.0);

    let per_kind: Vec<String> = KIND_NAMES
        .iter()
        .zip(completed_by_kind)
        .map(|(name, n)| format!("{name} {n}"))
        .collect();
    eprintln!(
        "load-gen: completed {completed} ({}), {errors} errors in {:.2}s",
        per_kind.join(", "),
        elapsed.as_secs_f64(),
    );
    let pool = transport.metrics();
    println!(
        "RESULT sent={} completed={completed} errors={errors} qps={qps:.1} \
         p50_ns={p50} p99_ns={p99} retries={} timeouts={} backpressure={}",
        arrivals.len(),
        pool.retries.get(),
        pool.timeouts.get(),
        pool.backpressure.get(),
    );

    fleet.shutdown();
    if errors > 0 {
        return Err(format!("{errors} requests failed"));
    }
    Ok(())
}

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("load-gen: {message}");
            std::process::ExitCode::FAILURE
        }
    }
}
