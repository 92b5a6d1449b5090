//! Test support shared by the integration tests that spawn the
//! `source-server` binary, and their kNN oracle.

use std::io::{BufRead, BufReader, Write as _};
use std::process::{Child, ChildStdout, Command, Stdio};

use dits::knn::nearest_datasets_bruteforce;
use dits::{DatasetNode, Neighbor};
use multisource::DataSource;
use spatial::{SourceId, SpatialDataset};

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
pub fn spawn_server(
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

/// The kNN oracle: every source's brute-force kNN at its own resolution,
/// merged the way the center merges replies.
// Only some tests ask kNN queries.
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
