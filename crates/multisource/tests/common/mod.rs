//! Test support shared by the integration tests that spawn the
//! `source-server` binary.

use std::io::{BufRead, BufReader, Write as _};
use std::process::{Child, ChildStdout, Command, Stdio};

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
