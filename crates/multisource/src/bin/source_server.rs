//! `source-server` — run one data source as its own process.
//!
//! The federated deployment of the paper's Fig. 3, for real: the server
//! loads raw datasets, grids them at its own resolution, builds its DITS-L,
//! then serves the framed multi-source protocol (OJSP / CJSP / kNN queries
//! and `ApplyUpdates` maintenance batches) over TCP.  Only the start-up file
//! holds points: a maintenance batch arrives as cell sets the data center
//! already gridded at `--resolution`, and one gridded at any other θ is
//! rejected whole.  A data center reaches
//! it through `net::PooledTcpTransport` and bootstraps its DITS-G with
//! [`multisource::DataCenter::from_transport`].
//!
//! ```text
//! source-server --id 2 --name parks --resolution 12 \
//!     --listen 127.0.0.1:7702 --data parks.tsv
//! ```
//!
//! The data file is whitespace-separated `dataset_id lon lat` triples, one
//! point per line (`#` starts a comment); points sharing a dataset id form
//! one dataset.  On startup the server prints `LISTENING <addr>` to stdout —
//! with `--listen 127.0.0.1:0` that is how callers learn the ephemeral port.
//!
//! Writing a line reading `SHUTDOWN` to the server's stdin drains it
//! gracefully: the server stops accepting, every connection finishes the
//! frame it is serving, and the process exits cleanly (printing `DRAINED`)
//! instead of dying mid-frame.  EOF on stdin is deliberately *not* a
//! shutdown trigger, so servers spawned with a null or inherited stdin run
//! forever, exactly as before.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::net::TcpListener;
use std::process::ExitCode;

use dits::DitsLocalConfig;
use multisource::DataSource;
use multisource::{serve_source_until, ShutdownSignal};
use spatial::{Grid, Point, SourceId, SpatialDataset};

struct Args {
    id: SourceId,
    name: String,
    resolution: u32,
    leaf_capacity: usize,
    listen: String,
    data: String,
}

const USAGE: &str = "usage: source-server --id N --data FILE \
[--name STR] [--resolution N] [--leaf-capacity N] [--listen ADDR]

Serves one multi-source data source over framed TCP.

  --id N             source id (u16), required
  --data FILE        whitespace-separated `dataset_id lon lat` lines, required
  --name STR         human-readable source name      (default: source-<id>)
  --resolution N     grid resolution theta, 1..=31   (default: 12)
  --leaf-capacity N  DITS-L leaf capacity f          (default: 10)
  --listen ADDR      bind address                    (default: 127.0.0.1:0)";

fn parse_args() -> Result<Args, String> {
    let mut id: Option<SourceId> = None;
    let mut name: Option<String> = None;
    let mut resolution: u32 = 12;
    let mut leaf_capacity: usize = 10;
    let mut listen = "127.0.0.1:0".to_string();
    let mut data: Option<String> = None;

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
            "--id" => id = Some(value("--id")?.parse().map_err(|e| format!("--id: {e}"))?),
            "--name" => name = Some(value("--name")?),
            "--resolution" => {
                resolution = value("--resolution")?
                    .parse()
                    .map_err(|e| format!("--resolution: {e}"))?
            }
            "--leaf-capacity" => {
                leaf_capacity = value("--leaf-capacity")?
                    .parse()
                    .map_err(|e| format!("--leaf-capacity: {e}"))?
            }
            "--listen" => listen = value("--listen")?,
            "--data" => data = Some(value("--data")?),
            other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
        }
    }
    let id = id.ok_or_else(|| format!("--id is required\n\n{USAGE}"))?;
    let data = data.ok_or_else(|| format!("--data is required\n\n{USAGE}"))?;
    Ok(Args {
        name: name.unwrap_or_else(|| format!("source-{id}")),
        id,
        resolution,
        leaf_capacity,
        listen,
        data,
    })
}

/// Parses `dataset_id lon lat` lines into datasets (grouped by id, points in
/// file order).
fn load_datasets(path: &str) -> Result<Vec<SpatialDataset>, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let mut by_id: BTreeMap<u32, Vec<Point>> = BTreeMap::new();
    for (line_no, line) in std::io::BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| format!("read {path}: {e}"))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_whitespace();
        let parse = |field: Option<&str>, what: &str| -> Result<f64, String> {
            field
                .ok_or_else(|| format!("{path}:{}: missing {what}", line_no + 1))?
                .parse::<f64>()
                .map_err(|e| format!("{path}:{}: bad {what}: {e}", line_no + 1))
        };
        let id = fields
            .next()
            .ok_or_else(|| format!("{path}:{}: missing dataset id", line_no + 1))?
            .parse::<u32>()
            .map_err(|e| format!("{path}:{}: bad dataset id: {e}", line_no + 1))?;
        let lon = parse(fields.next(), "longitude")?;
        let lat = parse(fields.next(), "latitude")?;
        by_id.entry(id).or_default().push(Point::new(lon, lat));
    }
    Ok(by_id
        .into_iter()
        .map(|(id, points)| SpatialDataset::new(id, points))
        .collect())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let grid = Grid::global(args.resolution).map_err(|e| e.to_string())?;
    // Scoped: the raw points are freed once gridded, before `LISTENING`.
    let source = {
        let datasets = load_datasets(&args.data)?;
        DataSource::build(
            args.id,
            args.name.clone(),
            grid,
            &datasets,
            DitsLocalConfig {
                leaf_capacity: args.leaf_capacity,
            },
        )
    };
    let listener =
        TcpListener::bind(&args.listen).map_err(|e| format!("bind {}: {e}", args.listen))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    eprintln!(
        "source-server: id {} ({}), {} datasets, θ={}, f={}",
        args.id,
        args.name,
        source.dataset_count(),
        args.resolution,
        args.leaf_capacity,
    );
    // The machine-readable ready line callers wait for.
    println!("LISTENING {addr}");
    let _ = std::io::stdout().flush();

    // Graceful shutdown: a `SHUTDOWN` line on stdin drains the server.  EOF
    // alone does not trigger it (a null stdin must not kill the server), so
    // the watcher simply exits when stdin closes without the magic line.
    let shutdown = ShutdownSignal::new();
    let signal = shutdown.clone();
    std::thread::spawn(move || {
        for line in std::io::stdin().lock().lines() {
            match line {
                Ok(line) if line.trim() == "SHUTDOWN" => {
                    eprintln!("source-server: shutdown requested, draining");
                    signal.trigger();
                    return;
                }
                Ok(_) => continue,
                Err(_) => return,
            }
        }
    });

    serve_source_until(listener, source, shutdown);
    // The machine-readable drained line: in-flight frames are answered and
    // every connection is closed.
    println!("DRAINED");
    let _ = std::io::stdout().flush();
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
