//! `source-server` — run one data source as its own process.
//!
//! The federated deployment of the paper's Fig. 3, for real: the server
//! reads its data file line by line, gridding each point at its own
//! resolution as its line is read, builds its DITS-L over the cell sets,
//! then serves the framed multi-source protocol (OJSP / CJSP / kNN queries
//! and `ApplyUpdates` maintenance batches) over TCP.  A source holds cells,
//! never points: no point outlives its line, so the process's memory
//! high-water mark is its index.  A maintenance batch arrives as cell sets
//! the data center already gridded at `--resolution`, and one gridded at
//! any other θ is rejected whole.  A data center reaches
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
//! one dataset, whether or not their lines are contiguous.  Points outside
//! the grid are dropped, and a dataset with none inside is not indexed.  On
//! startup the server prints `LISTENING <addr>` to stdout — with
//! `--listen 127.0.0.1:0` that is how callers learn the ephemeral port.
//!
//! Writing a line reading `SHUTDOWN` to the server's stdin drains it
//! gracefully: the server stops accepting, every connection finishes the
//! frame it is serving, and the process exits cleanly (printing `DRAINED`)
//! instead of dying mid-frame.  EOF on stdin is deliberately *not* a
//! shutdown trigger, so servers spawned with a null or inherited stdin run
//! forever, exactly as before.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::indexing_slicing,
        clippy::todo,
        clippy::unimplemented,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::net::TcpListener;
use std::process::ExitCode;

use dits::{DatasetNode, DitsLocalConfig};
use multisource::DataSource;
use multisource::{serve_source_until, ShutdownSignal};
use spatial::{CellId, CellSet, DatasetId, Grid, Point, SourceId};

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

/// Parses `dataset_id lon lat` lines, gridding each point as its line is
/// read (points outside the grid are dropped, as [`CellSet::from_points`]
/// drops them), so no point outlives its line.  A run of lines sharing an
/// id is collected, then folded into that id's cell set; a dataset whose
/// lines are not contiguous is still one dataset.  Nodes come out in
/// ascending id — the order [`DataSource::build`] sees its datasets in over
/// the same file — and a dataset with no cell is skipped.  `path` only
/// labels error messages.
fn read_nodes(
    mut reader: impl BufRead,
    path: &str,
    grid: &Grid,
) -> Result<Vec<DatasetNode>, String> {
    let mut by_id: BTreeMap<DatasetId, CellSet> = BTreeMap::new();
    let mut fold = |id: DatasetId, run: &mut Vec<CellId>| {
        let cells = CellSet::from_cells(run.drain(..));
        match by_id.get_mut(&id) {
            Some(set) => set.union_in_place(&cells),
            None => {
                by_id.insert(id, cells);
            }
        }
    };
    // The id of the current run of lines, and the cells its points fell in.
    let mut run_id: Option<DatasetId> = None;
    let mut run: Vec<CellId> = Vec::new();
    let mut line = String::new();
    let mut line_no = 0usize;
    loop {
        line.clear();
        if reader
            .read_line(&mut line)
            .map_err(|e| format!("read {path}: {e}"))?
            == 0
        {
            break;
        }
        line_no += 1;
        let text = line.trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        let mut fields = text.split_whitespace();
        let parse = |field: Option<&str>, what: &str| -> Result<f64, String> {
            field
                .ok_or_else(|| format!("{path}:{line_no}: missing {what}"))?
                .parse::<f64>()
                .map_err(|e| format!("{path}:{line_no}: bad {what}: {e}"))
        };
        let id = fields
            .next()
            .ok_or_else(|| format!("{path}:{line_no}: missing dataset id"))?
            .parse::<DatasetId>()
            .map_err(|e| format!("{path}:{line_no}: bad dataset id: {e}"))?;
        let lon = parse(fields.next(), "longitude")?;
        let lat = parse(fields.next(), "latitude")?;
        if run_id != Some(id) {
            if let Some(previous) = run_id.replace(id) {
                fold(previous, &mut run);
            }
        }
        if let Ok(cell) = grid.cell_of(&Point::new(lon, lat)) {
            run.push(cell);
        }
    }
    if let Some(last) = run_id {
        fold(last, &mut run);
    }
    Ok(by_id
        .into_iter()
        .filter_map(|(id, cells)| DatasetNode::from_cell_set(id, cells))
        .collect())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let grid = Grid::global(args.resolution).map_err(|e| e.to_string())?;
    let file = std::fs::File::open(&args.data).map_err(|e| format!("open {}: {e}", args.data))?;
    // No point outlives its line: the start-up high-water mark is the index.
    let nodes = read_nodes(std::io::BufReader::new(file), &args.data, &grid)?;
    let source = DataSource::from_nodes(
        args.id,
        args.name.clone(),
        grid,
        nodes,
        DitsLocalConfig {
            leaf_capacity: args.leaf_capacity,
        },
    );
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

#[cfg(test)]
mod tests {
    use super::*;
    use dits::DitsLocal;
    use spatial::SpatialDataset;

    const CONFIG: DitsLocalConfig = DitsLocalConfig { leaf_capacity: 2 };

    fn grid() -> Grid {
        Grid::global(6).unwrap()
    }

    /// Forty datasets of 1–40 points from a fixed linear congruential
    /// stream (enough that the node order shapes the tree); the sixth also
    /// holds a point outside the global grid, and the seventh holds nothing
    /// else.
    fn datasets() -> Vec<SpatialDataset> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |span: f64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * span
        };
        (0..40u32)
            .map(|i| {
                let points = if i == 6 {
                    vec![Point::new(200.0, 0.0), Point::new(0.0, -95.0)]
                } else {
                    let n = 1 + (next(40.0) as usize);
                    let (cx, cy) = (next(300.0) - 150.0, next(150.0) - 75.0);
                    let mut points: Vec<Point> = (0..n)
                        .map(|_| Point::new(cx + next(20.0), cy + next(10.0)))
                        .collect();
                    if i == 5 {
                        points.push(Point::new(-181.0, 0.0));
                    }
                    points
                };
                // Ids out of order and with a gap, as a portal hands them out.
                SpatialDataset::new(i * 7 % 41, points)
            })
            .collect()
    }

    fn line(id: u32, p: &Point) -> String {
        format!("{id} {} {}\n", p.x, p.y)
    }

    fn read(text: &[u8]) -> Result<Vec<DatasetNode>, String> {
        read_nodes(text, "data.tsv", &grid())
    }

    fn index_of(nodes: Vec<DatasetNode>) -> DitsLocal {
        DataSource::from_nodes(0, "loaded", grid(), nodes, CONFIG)
            .index()
            .clone()
    }

    fn built(datasets: &[SpatialDataset]) -> DitsLocal {
        let mut datasets = datasets.to_vec();
        datasets.sort_by_key(|d| d.id);
        DataSource::build(0, "built", grid(), &datasets, CONFIG)
            .index()
            .clone()
    }

    #[test]
    fn contiguous_interleaved_and_split_files_build_the_gridded_index() {
        let datasets = datasets();
        let expected = built(&datasets);
        assert_eq!(expected.dataset_count(), 39, "the seventh grids to nothing");

        let contiguous: String = datasets
            .iter()
            .flat_map(|d| d.points.iter().map(|p| line(d.id, p)))
            .collect();
        // Round robin: the i-th point of every dataset, then the (i+1)-th.
        let longest = datasets.iter().map(|d| d.points.len()).max().unwrap();
        let interleaved: String = (0..longest)
            .flat_map(|i| {
                datasets
                    .iter()
                    .filter_map(move |d| d.points.get(i).map(|p| line(d.id, p)))
            })
            .collect();
        // Every dataset in two runs: first halves, then second halves.
        let halves = |second: bool| {
            datasets.iter().flat_map(move |d| {
                let (a, b) = d.points.split_at(d.points.len() / 2);
                (if second { b } else { a }).iter().map(|p| line(d.id, p))
            })
        };
        let split: String = halves(false).chain(halves(true)).collect();

        for (name, text) in [
            ("contiguous", contiguous),
            ("interleaved", interleaved),
            ("split", split),
        ] {
            let nodes = read(text.as_bytes()).unwrap();
            let ids: Vec<DatasetId> = nodes.iter().map(|n| n.id).collect();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "{name}: {ids:?}");
            assert!(index_of(nodes) == expected, "{name} file");
        }
    }

    #[test]
    fn comments_blank_lines_crlf_and_points_outside_the_grid_are_skipped() {
        let text = "# header\r\n\r\n   \n3 10.0 20.0\r\n  # indented comment\n\
                    3 10.1 20.1\n3 500.0 0.0\r\n\t4 -30.0 -40.0  \r\n9 0.0 91.0\n";
        let nodes = read(text.as_bytes()).unwrap();
        let expected = built(&[
            SpatialDataset::new(3, vec![Point::new(10.0, 20.0), Point::new(10.1, 20.1)]),
            SpatialDataset::new(4, vec![Point::new(-30.0, -40.0)]),
        ]);
        assert_eq!(nodes.iter().map(|n| n.id).collect::<Vec<_>>(), [3, 4]);
        assert!(index_of(nodes) == expected);
        assert!(read(b"").unwrap().is_empty());
        assert!(read(b"# only a comment\n\n").unwrap().is_empty());
    }

    #[test]
    fn bad_lines_keep_their_message_and_line_number() {
        let cases: [(&[u8], &str); 5] = [
            (b"1 0 0\nx 1.0 2.0\n", "data.tsv:2: bad dataset id: "),
            (b"# c\n\n-4 1.0 2.0\n", "data.tsv:3: bad dataset id: "),
            (b"1 east 2.0\n", "data.tsv:1: bad longitude: "),
            (b"1 0 0\r\n\r\n1 2.0\r\n", "data.tsv:3: missing latitude"),
            (b"7\n", "data.tsv:1: missing longitude"),
        ];
        for (text, want) in cases {
            let err = read(text).unwrap_err();
            assert!(err.starts_with(want), "{err:?} should start with {want:?}");
        }
    }

    #[test]
    fn invalid_utf8_is_an_error_not_a_panic() {
        let err = read(b"1 0.0 0.0\n2 \xff\xfe 1.0\n").unwrap_err();
        assert!(err.starts_with("read data.tsv: "), "{err:?}");
    }
}
