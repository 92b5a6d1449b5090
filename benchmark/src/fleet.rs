//! The `source-server` fleet: one real child process per source, driven
//! through the binary's CLI contract only (`--data` TSV, `LISTENING <addr>`
//! on stdout, `SHUTDOWN` on stdin answered by `DRAINED`), so the server
//! behind that contract can be replaced without editing the benchmark.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use spatial::{SourceId, SpatialDataset};

use crate::procfs;
use crate::workload::{Corpus, LEAF_CAPACITY, THETA};

/// How long a child may take to build its index and print `LISTENING`.
const READY_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a child may take to drain after `SHUTDOWN` before it is killed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Distinguishes the temp dirs of fleets built by one process.
static FLEET_SEQ: AtomicU32 = AtomicU32::new(0);

struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

/// What the children cost, read just before they were drained.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetUsage {
    pub peak_rss_mb: f64,
    pub cpu_us: f64,
}

/// Five running servers and the directory their data files live in.
/// Dropping the fleet — on success, on a failed check, on a panic — drains
/// and reaps every child and removes the directory.
pub struct Fleet {
    servers: Vec<Server>,
    dir: PathBuf,
}

impl Fleet {
    /// Writes one TSV per source under a fresh directory inside `scratch`,
    /// spawns `server_bin` on an ephemeral loopback port for each, and
    /// waits for every `LISTENING` line.  Returns the fleet and how long the
    /// data files took to write.
    pub fn spawn(
        server_bin: &Path,
        scratch: &Path,
        corpus: &Corpus,
    ) -> Result<(Self, Duration), String> {
        if !server_bin.is_file() {
            return Err(format!(
                "source-server binary not found at {}: build it with \
                 `cargo build --release -p multisource --bin source-server` at the repository \
                 root (benchmark/run.sh does), or pass --server-bin",
                server_bin.display()
            ));
        }
        let dir = scratch.join(format!(
            "fleet-{}-{}",
            std::process::id(),
            FLEET_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        // From here on the guard owns the directory and whatever children
        // exist, so every early return below cleans up.
        let mut fleet = Fleet {
            servers: Vec::new(),
            dir,
        };

        let tsv_started = Instant::now();
        let mut data_paths = Vec::new();
        for (i, (_, datasets)) in corpus.iter().enumerate() {
            let path = fleet.dir.join(format!("source-{i}.tsv"));
            write_tsv(&path, datasets).map_err(|e| format!("write {}: {e}", path.display()))?;
            data_paths.push(path);
        }
        let tsv_elapsed = tsv_started.elapsed();

        // Spawn all, then wait for all: the index builds run side by side.
        for (i, path) in data_paths.iter().enumerate() {
            let mut child = Command::new(server_bin)
                .args(["--id", &i.to_string()])
                .args(["--resolution", &THETA.to_string()])
                .args(["--leaf-capacity", &LEAF_CAPACITY.to_string()])
                .args(["--listen", "127.0.0.1:0"])
                .arg("--data")
                .arg(path)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", server_bin.display()))?;
            let stdin = child.stdin.take();
            let stdout = child.stdout.take().map(BufReader::new);
            let Some(stdout) = stdout else {
                let _ = child.kill();
                let _ = child.wait();
                return Err("source-server stdout was not piped".to_string());
            };
            fleet.servers.push(Server {
                child,
                stdin,
                stdout,
                addr: String::new(),
            });
        }
        for (i, server) in fleet.servers.iter_mut().enumerate() {
            server.addr = read_listening(server, i)?;
        }
        Ok((fleet, tsv_elapsed))
    }

    /// `(source id, "host:port")` for the transport.
    pub fn endpoints(&self) -> Vec<(SourceId, String)> {
        self.servers
            .iter()
            .enumerate()
            .map(|(i, s)| (i as SourceId, s.addr.clone()))
            .collect()
    }

    /// Peak memory and CPU time of the children so far (they must still be
    /// running: `/proc/<pid>` goes away when a child is reaped).
    pub fn usage(&self) -> FleetUsage {
        let mut usage = FleetUsage::default();
        for server in &self.servers {
            usage.peak_rss_mb += procfs::peak_rss_mb(server.child.id());
            usage.cpu_us += procfs::cpu_us(server.child.id());
        }
        usage
    }

    /// Drains the fleet and reports whether every child confirmed
    /// `DRAINED` and exited cleanly.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.drain()
    }

    fn drain(&mut self) -> Result<(), String> {
        let mut problems = Vec::new();
        // Ask everyone first so the drains overlap.
        for server in &mut self.servers {
            if let Some(mut stdin) = server.stdin.take() {
                let _ = stdin.write_all(b"SHUTDOWN\n");
                let _ = stdin.flush();
            }
        }
        for (i, mut server) in self.servers.drain(..).enumerate() {
            let deadline = Instant::now() + DRAIN_TIMEOUT;
            let status = loop {
                match server.child.try_wait() {
                    Ok(Some(status)) => break Some(status),
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    _ => break None,
                }
            };
            match status {
                Some(status) => {
                    // The child has exited, so reading to EOF cannot block.
                    let mut rest = String::new();
                    let _ = server.stdout.read_to_string(&mut rest);
                    if !status.success() || !rest.lines().any(|l| l.trim() == "DRAINED") {
                        problems.push(format!("source {i} exited {status} without DRAINED"));
                    }
                }
                None => {
                    let _ = server.child.kill();
                    let _ = server.child.wait();
                    problems.push(format!("source {i} did not drain and was killed"));
                }
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        // After `shutdown` there is nothing left to do; on any other path
        // this is what keeps children and temp files from outliving us.
        let _ = self.drain();
    }
}

/// One `dataset_id lon lat` triple per line, the binary's input format.
/// `{}` prints the shortest text that parses back to the same `f64`, so the
/// servers index exactly the points the in-process twin does.
fn write_tsv(path: &Path, datasets: &[SpatialDataset]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for d in datasets {
        for p in &d.points {
            writeln!(out, "{} {} {}", d.id, p.x, p.y)?;
        }
    }
    out.flush()
}

/// Waits for the child's `LISTENING <addr>` line.  The read happens on a
/// helper thread so a child that hangs before binding turns into a clear
/// error instead of a hung benchmark.
fn read_listening(server: &mut Server, index: usize) -> Result<String, String> {
    let (tx, rx) = std::sync::mpsc::channel();
    let line = std::thread::scope(|scope| {
        let stdout = &mut server.stdout;
        scope.spawn(move || {
            let mut line = String::new();
            let read = stdout.read_line(&mut line);
            let _ = tx.send(read.map(|_| line));
        });
        let outcome = rx.recv_timeout(READY_TIMEOUT);
        if outcome.is_err() {
            // Killing the child closes its stdout, which ends the read and
            // lets the scope join the helper.
            let _ = server.child.kill();
        }
        outcome
    });
    let line = match line {
        Ok(Ok(line)) => line,
        Ok(Err(e)) => return Err(format!("source {index}: reading the ready line: {e}")),
        Err(_) => {
            return Err(format!(
                "source {index}: no LISTENING line within {READY_TIMEOUT:?}"
            ))
        }
    };
    match line.trim().strip_prefix("LISTENING ") {
        Some(addr) if !addr.is_empty() => Ok(addr.to_string()),
        _ => Err(format!(
            "source {index}: expected `LISTENING <addr>`, got {:?} (did the server fail to load \
             its data?)",
            line.trim()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial::Point;

    #[test]
    fn missing_server_binary_is_a_clear_error() {
        let scratch = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let err = Fleet::spawn(Path::new("no/such/source-server"), &scratch, &Vec::new())
            .err()
            .expect("spawn must fail");
        assert!(
            err.contains("not found") && err.contains("cargo build"),
            "{err}"
        );
    }

    #[test]
    fn tsv_round_trips_coordinates_exactly() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-tsv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.tsv");
        let points = vec![
            Point::new(0.1 + 0.2, -77.036_871_234_567_89),
            Point::new(1e-9, 89.999_999_999_999),
        ];
        write_tsv(&path, &[SpatialDataset::new(42, points.clone())]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let parsed: Vec<Point> = text
            .lines()
            .map(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                assert_eq!(f[0], "42");
                Point::new(f[1].parse().unwrap(), f[2].parse().unwrap())
            })
            .collect();
        assert_eq!(parsed, points);
    }
}
