//! Drives the benchmark end to end in `--quick` mode (1/50 corpus, half-second
//! segments) through the binary, against real `source-server` processes.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

/// The root workspace's `source-server`, built once per test binary with the
/// root profile — exactly what `benchmark/run.sh` does.
fn server_bin() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let root = repo_root();
        let status = Command::new(env!("CARGO"))
            .args(["build", "--release", "--offline", "-p", "multisource"])
            .args(["--bin", "source-server"])
            .current_dir(&root)
            .status()
            .expect("run cargo");
        assert!(status.success(), "building source-server failed");
        let target =
            std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), PathBuf::from);
        let target = if target.is_absolute() {
            target
        } else {
            root.join(target)
        };
        target.join("release").join("source-server")
    })
}

/// Runs `fedbench` from the repository root with its output under `tag`.
fn fedbench(tag: &str, args: &[&str]) -> (Output, PathBuf) {
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{tag}-{}", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_fedbench"))
        .current_dir(repo_root())
        .arg("--server-bin")
        .arg(server_bin())
        .arg("--out")
        .arg(&out_dir)
        .args(args)
        .output()
        .expect("run fedbench");
    (output, out_dir)
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// No fleet directory may outlive a run, whatever its outcome.
fn assert_no_fleet_left(out_dir: &Path) {
    let leftovers: Vec<_> = std::fs::read_dir(out_dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with("fleet-"))
                .collect()
        })
        .unwrap_or_default();
    assert!(leftovers.is_empty(), "{leftovers:?}");
}

#[test]
fn quick_mode_runs_every_workload_and_writes_one_trace_each() {
    let (output, out_dir) = fedbench("all", &["--quick", "--seed", "7"]);
    let text = stdout(&output);
    assert!(
        output.status.success(),
        "{text}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    for workload in ["ojsp_fed", "cjsp_fed", "knn_batch", "churn_fed"] {
        assert!(
            text.contains(&format!("== {workload} (untraced)")),
            "{workload}"
        );
        assert!(
            text.contains(&format!("== {workload} (traced)")),
            "{workload}"
        );
        let trace = out_dir.join(format!("{workload}.trace.jsonl"));
        let spans = std::fs::read_to_string(&trace).expect("one span file per workload");
        assert!(spans.lines().count() > 10, "{workload}");
        assert!(spans.contains("\"name\": \"request\""));
        assert!(spans.contains("\"name\": \"dits.local.search\""));
        // net is on the path of the federated workloads only.
        assert_eq!(
            spans.contains("\"name\": \"net.pool.call\""),
            workload != "knn_batch"
        );
    }
    assert!(!text.contains("FAILED"), "{text}");
    assert!(text.contains("failed_share 0)"));
    let report = text.lines().last().expect("a report line");
    assert!(report.starts_with("{\"env\": {\"nproc\": "), "{report}");
    assert!(report.contains("\"probe.budget_coverage\""));
    assert_eq!(
        std::fs::read_to_string(out_dir.join("report.json")).expect("report.json"),
        report
    );
    assert_no_fleet_left(&out_dir);
    std::fs::remove_dir_all(&out_dir).expect("remove the test's output");
}

#[test]
fn driver_mode_ends_with_the_result_line_and_repeats_exactly() {
    let args = [
        "--quick",
        "--workload",
        "churn_fed",
        "--seed",
        "3",
        "--trace",
        "0",
    ];
    let (first, out_a) = fedbench("driver-a", &args);
    let (second, out_b) = fedbench("driver-b", &args);
    let (a, b) = (stdout(&first), stdout(&second));
    assert!(
        first.status.success() && second.status.success(),
        "{a}\n{b}"
    );
    let line = a.lines().last().expect("a result line");
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0, \"metrics\": {\"comm_bytes_per_query\": {\"value\": "));
    assert!(line.contains("\"setup_s\": {\"value\": "));
    assert!(
        !line.contains("net.pool") && !line.contains("client."),
        "{line}"
    );
    // The timings are printed all the same.
    assert!(a.contains("   client.latency_p50_ms"), "{a}");

    // Same seed, same code: the digest and the communication cost repeat
    // exactly; another seed changes both.
    let line_with = |text: &str, key: &str| {
        let line = text.lines().find(|l| l.contains(key));
        line.expect(key).to_string()
    };
    assert_eq!(line_with(&a, "digest of"), line_with(&b, "digest of"));
    assert_eq!(
        line_with(&a, "   comm_bytes_per_query"),
        line_with(&b, "   comm_bytes_per_query")
    );
    let (other, out_c) = fedbench(
        "driver-c",
        &[
            "--quick",
            "--workload",
            "churn_fed",
            "--seed",
            "4",
            "--trace",
            "0",
        ],
    );
    assert!(other.status.success());
    assert_ne!(
        line_with(&a, "digest of"),
        line_with(&stdout(&other), "digest of")
    );
    for dir in [out_a, out_b, out_c] {
        assert_no_fleet_left(&dir);
        std::fs::remove_dir_all(&dir).expect("remove the test's output");
    }
}

#[test]
fn a_corrupted_oracle_answer_fails_the_command() {
    for workload in ["ojsp_fed", "knn_batch", "churn_fed"] {
        let (output, out_dir) = fedbench(
            "corrupt",
            &[
                "--quick",
                "--workload",
                workload,
                "--trace",
                "0",
                "--corrupt-oracle",
            ],
        );
        let text = stdout(&output);
        assert_eq!(output.status.code(), Some(1), "{workload}: {text}");
        assert!(text.contains("FAILED: request"), "{text}");
        assert!(text.contains("CommStats differ from the oracle's"));
        let line = text.lines().last().expect("a result line");
        assert!(line.starts_with("{\"correct\": false, "), "{line}");
        assert!(line.contains("\"failed\": 1, "));
        // A failed check still drains the fleet and removes its files.
        assert_no_fleet_left(&out_dir);
        std::fs::remove_dir_all(&out_dir).expect("remove the test's output");
    }
}

#[test]
fn bad_invocations_are_clear_errors() {
    let missing = Command::new(env!("CARGO_BIN_EXE_fedbench"))
        .current_dir(repo_root())
        .args(["--quick", "--workload", "ojsp_fed", "--trace", "0"])
        .args(["--server-bin", "no/such/source-server"])
        .args([
            "--out",
            concat!(env!("CARGO_MANIFEST_DIR"), "/out/test-missing"),
        ])
        .output()
        .expect("run fedbench");
    assert_eq!(missing.status.code(), Some(2));
    let err = String::from_utf8_lossy(&missing.stderr);
    assert!(err.contains("source-server binary not found"), "{err}");
    assert!(
        !stdout(&missing).contains("\"correct\""),
        "no result line on a set-up error"
    );
    let _ = std::fs::remove_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/out/test-missing"));

    for args in [
        &["--workload", "nope"][..],
        &["--trace", "1"][..],
        &["--seconds", "0"][..],
        &["--frobnicate"][..],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_fedbench"))
            .args(args)
            .output()
            .expect("run fedbench");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
