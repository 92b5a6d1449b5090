//! `source-server` — run one data source as its own process.
//!
//! The federated deployment of the paper's Fig. 3, for real: the server
//! reads its data file through one fixed 64 KiB buffer, cutting lines and
//! fields in place and gridding each point at its own resolution as its
//! line is cut, builds its DITS-L over the cell sets, then serves the
//! framed multi-source protocol (OJSP / CJSP / kNN queries and
//! `ApplyUpdates` maintenance batches) over TCP.  A source holds cells,
//! never points: no point outlives its line, and reading takes one buffer
//! plus one carried partial line (a line that straddles a refill), so the
//! process's memory high-water mark is its index.  A maintenance batch
//! arrives as cell sets the data center already gridded at `--resolution`,
//! and one gridded at any other θ is rejected whole.  A data center reaches
//! it through `net::PooledTcpTransport` and bootstraps its DITS-G with
//! [`multisource::DataCenter::from_transport`].
//!
//! ```text
//! source-server --id 2 --name parks --resolution 12 \
//!     --listen 127.0.0.1:7702 --data parks.tsv
//! ```
//!
//! The data file is UTF-8 `dataset_id lon lat` triples, one point per
//! line, fields separated by ASCII whitespace (space, and tab to carriage
//! return: the ASCII characters `char::is_whitespace` takes); fields past
//! the third are ignored, and a line whose first field starts with `#` is a
//! comment.  Points sharing a dataset id form one dataset, whether or not
//! their lines are contiguous.  Points outside the grid are dropped, and a
//! dataset with none inside is not indexed.  On startup the server prints
//! `LISTENING <addr>` to stdout — with `--listen 127.0.0.1:0` that is how
//! callers learn the ephemeral port.
//!
//! Writing a line reading `SHUTDOWN` to the server's stdin drains it
//! gracefully: the server stops accepting, every connection answers the
//! request it has read (a peer stalled mid-request is dropped), and the
//! process exits cleanly (printing `DRAINED`) instead of dying mid-frame.
//! EOF on stdin is deliberately *not* a
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
  --data FILE        `dataset_id lon lat` lines, fields separated by ASCII
                     whitespace, `#` comment lines; read through one
                     64 KiB buffer, required
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

/// The one buffer the data file is read through: lines are cut from it in
/// place, and only a line that straddles a refill is copied.
const READ_BUFFER_BYTES: usize = 64 * 1024;

/// Whether a byte separates fields: the ASCII characters
/// [`char::is_whitespace`] takes — space, and `\t` to `\r` (vertical tab
/// included, which [`u8::is_ascii_whitespace`] leaves out).
fn is_blank(byte: u8) -> bool {
    matches!(byte, b' ' | b'\t'..=b'\r')
}

/// The first three fields of a line (runs of non-blank bytes), `None` past
/// its last: a blank line has none.
type Fields<'a> = [Option<&'a str>; 3];

/// Cuts `text` into lines at `\n` and each line into its first three fields,
/// in one pass over its bytes, and hands each line's fields to `on_line` at
/// its `\n`.  What follows the last `\n` is not a line yet and is left
/// alone.  A blank is ASCII, so every cut is a character boundary.
fn for_each_line<'a>(
    text: &'a str,
    mut on_line: impl FnMut(Fields<'a>) -> Result<(), String>,
) -> Result<(), String> {
    let bytes = text.as_bytes();
    let mut fields: Fields<'a> = [None; 3];
    let mut count = 0;
    let mut at = 0;
    while let Some(&byte) = bytes.get(at) {
        if byte == b'\n' {
            on_line(std::mem::take(&mut fields))?;
            count = 0;
            at += 1;
        } else if is_blank(byte) {
            at += 1;
        } else {
            let start = at;
            while bytes.get(at).is_some_and(|&b| !is_blank(b)) {
                at += 1;
            }
            if let Some(slot) = fields.get_mut(count) {
                *slot = text.get(start..at);
            }
            count += 1;
        }
    }
    Ok(())
}

/// Parses `dataset_id lon lat` lines, gridding each point as its line is
/// read (points outside the grid are dropped, as [`CellSet::from_points`]
/// drops them), so no point outlives its line.  Lines are cut in the
/// reader's own buffer ([`BufRead::fill_buf`]), checked as UTF-8 a buffer at
/// a time; only a line that straddles a refill is copied, so the memory
/// read takes is the buffer plus that one line.  A run of lines sharing an
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
    let mut line_no = 0usize;
    let mut read_line = |[id, lon, lat]: Fields| -> Result<(), String> {
        line_no += 1;
        let id = match id {
            None => return Ok(()),
            Some(comment) if comment.starts_with('#') => return Ok(()),
            Some(id) => id
                .parse::<DatasetId>()
                .map_err(|e| format!("{path}:{line_no}: bad dataset id: {e}"))?,
        };
        let parse = |field: Option<&str>, what: &str| -> Result<f64, String> {
            field
                .ok_or_else(|| format!("{path}:{line_no}: missing {what}"))?
                .parse::<f64>()
                .map_err(|e| format!("{path}:{line_no}: bad {what}: {e}"))
        };
        let lon = parse(lon, "longitude")?;
        let lat = parse(lat, "latitude")?;
        if run_id != Some(id) {
            if let Some(previous) = run_id.replace(id) {
                fold(previous, &mut run);
            }
        }
        if let Ok(cell) = grid.cell_of(&Point::new(lon, lat)) {
            run.push(cell);
        }
        Ok(())
    };
    let invalid_utf8 = || format!("read {path}: stream did not contain valid UTF-8");
    // The start of a line the buffer ended in, waiting for its `\n`.
    let mut partial: Vec<u8> = Vec::new();
    loop {
        let buffer = reader.fill_buf().map_err(|e| format!("read {path}: {e}"))?;
        if buffer.is_empty() {
            break;
        }
        let filled = buffer.len();
        let mut rest = buffer;
        if !partial.is_empty() {
            let Some(end) = rest.iter().position(|&b| b == b'\n') else {
                partial.extend_from_slice(rest);
                reader.consume(filled);
                continue;
            };
            let (head, tail) = rest.split_at(end + 1);
            partial.extend_from_slice(head);
            let line = std::str::from_utf8(&partial).map_err(|_| invalid_utf8())?;
            for_each_line(line, &mut read_line)?;
            partial.clear();
            rest = tail;
        }
        let whole = rest
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |end| end + 1);
        let (lines, tail) = rest.split_at(whole);
        match std::str::from_utf8(lines) {
            Ok(text) => for_each_line(text, &mut read_line)?,
            Err(e) => {
                // The lines before the invalid byte are read before it is
                // reported.
                let valid = (lines.get(..e.valid_up_to()))
                    .and_then(|valid| std::str::from_utf8(valid).ok())
                    .unwrap_or_default();
                for_each_line(valid, &mut read_line)?;
                return Err(invalid_utf8());
            }
        }
        partial.extend_from_slice(tail);
        reader.consume(filled);
    }
    if !partial.is_empty() {
        // The last line, with no newline of its own.
        partial.push(b'\n');
        let line = std::str::from_utf8(&partial).map_err(|_| invalid_utf8())?;
        for_each_line(line, &mut read_line)?;
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
    let nodes = read_nodes(
        std::io::BufReader::with_capacity(READ_BUFFER_BYTES, file),
        &args.data,
        &grid,
    )?;
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
    // The machine-readable drained line: every request read is answered and
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
    use proptest::Strategy;
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

    /// The line-at-a-time reader [`read_nodes`] replaced, kept as its
    /// oracle: one `read_line` into a `String` per line, trimmed and split
    /// by `str`'s whitespace.
    fn read_nodes_by_line(
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

    /// One data file fully determined by `case_seed`: a few datasets (ids
    /// drawn from a small range, so some repeat) laid out contiguous,
    /// interleaved or split in two runs, points partly outside the grid;
    /// fields separated and surrounded by runs of ASCII blanks, LF or CRLF
    /// line ends, comment and blank lines between, a last line with or
    /// without its newline; and in two files of three one or two bad lines,
    /// some of them invalid UTF-8.  Read through buffers of 1, 2, 7 and 64
    /// bytes and the default, so lines straddle refills, the reader must say
    /// what the line-at-a-time oracle says, errors byte for byte.
    fn run_loader_case(case_seed: u64) {
        let _replay = dits::ReplayOnPanic("run_loader_case", case_seed);
        let mut rng = proptest::TestRng::from_name(&format!("loader-{case_seed}"));
        let mut draw = |n: usize| (0..n).generate(&mut rng);
        // Runs of the ASCII blanks `str::trim` and `split_whitespace` take.
        const BLANKS: [&str; 6] = [" ", "\t", "  ", " \t ", "\x0b", "\x0c"];

        let datasets: Vec<(u32, Vec<(String, String)>)> = (0..1 + draw(6))
            .map(|_| {
                let id = draw(5) as u32 * 3;
                let points = (0..1 + draw(8))
                    .map(|_| {
                        // Degrees and hundredths: lon in ±200, lat in ±100.
                        let lon = (draw(40_001) as f64 - 20_000.0) / 100.0;
                        let lat = (draw(20_001) as f64 - 10_000.0) / 100.0;
                        let mut text = |v: f64| match draw(3) {
                            0 => format!("{v}"),
                            1 => format!("{v:.4}"),
                            _ => format!("{v:e}"),
                        };
                        (text(lon), text(lat))
                    })
                    .collect();
                (id, points)
            })
            .collect();
        let mut points: Vec<(u32, &(String, String))> = Vec::new();
        match draw(3) {
            0 => points.extend(
                datasets
                    .iter()
                    .flat_map(|(id, ps)| ps.iter().map(|p| (*id, p))),
            ),
            1 => {
                let longest = datasets.iter().map(|(_, ps)| ps.len()).max().unwrap_or(0);
                for i in 0..longest {
                    points.extend(
                        datasets
                            .iter()
                            .filter_map(|(id, ps)| ps.get(i).map(|p| (*id, p))),
                    );
                }
            }
            _ => {
                for second in [false, true] {
                    for (id, ps) in &datasets {
                        let (a, b) = ps.split_at(ps.len() / 2);
                        points.extend((if second { b } else { a }).iter().map(|p| (*id, p)));
                    }
                }
            }
        }

        fn blank(draw: &mut impl FnMut(usize) -> usize, empty_too: bool) -> &'static str {
            if empty_too && draw(2) == 0 {
                ""
            } else {
                BLANKS[draw(BLANKS.len())]
            }
        }
        let mut lines: Vec<Vec<u8>> = Vec::new();
        for (id, (lon, lat)) in points {
            match draw(8) {
                0 => lines.push(format!("{}# a comment café", blank(&mut draw, true)).into_bytes()),
                1 => lines.push(blank(&mut draw, true).as_bytes().to_vec()),
                _ => {}
            }
            let mut line = format!(
                "{}{id}{}{lon}{}{lat}{}",
                blank(&mut draw, true),
                blank(&mut draw, false),
                blank(&mut draw, false),
                blank(&mut draw, true),
            );
            if draw(10) == 0 {
                line.push_str(" extra fields");
            }
            lines.push(line.into_bytes());
        }
        // Up to two bad lines: the first one in the file is the one reported.
        for _ in 0..draw(3) {
            let bad: &[u8] = match draw(8) {
                0 => b"x 1.0 2.0",
                1 => b"-4 1.0 2.0",
                2 => b"1 east 2.0",
                3 => b"1 2.0",
                4 => b"7",
                5 => b"99999999999 0 0",
                6 => b"2 \xff\xfe 1.0",
                _ => b"# \xc3",
            };
            let at = draw(lines.len() + 1);
            lines.insert(at, bad.to_vec());
        }

        // Half the files end in a line with no newline.
        let unterminated = draw(2) == 0;
        let mut file: Vec<u8> = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            file.extend_from_slice(line);
            if !(unterminated && i + 1 == lines.len()) {
                file.extend_from_slice(if draw(2) == 0 { b"\n" } else { b"\r\n" });
            }
        }

        let want = read_nodes_by_line(&file[..], "data.tsv", &grid());
        for capacity in [Some(1), Some(2), Some(7), Some(64), None] {
            let got = match capacity {
                Some(c) => read_nodes(
                    std::io::BufReader::with_capacity(c, &file[..]),
                    "data.tsv",
                    &grid(),
                ),
                None => read_nodes(std::io::BufReader::new(&file[..]), "data.tsv", &grid()),
            };
            assert_eq!(
                got,
                want,
                "buffer of {capacity:?} bytes over {:?}",
                String::from_utf8_lossy(&file)
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]
        #[test]
        fn prop_the_reader_says_what_the_line_at_a_time_oracle_says(
            case_seed in proptest::any::<u64>(),
        ) {
            run_loader_case(case_seed);
        }
    }
}
