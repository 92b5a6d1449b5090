//! `fedbench` command line.  `benchmark/run.sh` builds `source-server` and
//! this binary, then passes its arguments through.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use fedbench::deploy::{default_out_dir, default_server_bin, DeployConfig};
use fedbench::report::{
    compare_sets, env_json, print_run, reports_json, result_line, run_json, Reading,
};
use fedbench::run::{run_workload, RunConfig};
use fedbench::spec::{manifest_json, RUN_SECONDS, WORKLOADS};

const USAGE: &str = "\
Usage: benchmark/run.sh [OPTIONS]      (from the repository root)

With --trace, runs one workload once and ends with the result line the
benchmark driver reads.  Without it, runs every selected workload untraced
and then traced, and prints every metric.

  --workload NAME   ojsp_fed | cjsp_fed | knn_batch | churn_fed (repeatable;
                    default: all four)
  --seed N          seed of the request sequences          (default: 53621)
  --seconds S       length of the timed segment            (default: 15)
  --trace 0|1       0: end-to-end metrics only; 1: the layer probe
  --repeat N        run the whole set N times and gate the gaps between the
                    first two against the bounds            (default: 1)
  --quick           1/50 corpus, half-second segments: a smoke run
  --server-bin P    the source-server binary
                    (default: $CARGO_TARGET_DIR or target, /release/source-server)
  --out DIR         where traces and reports go            (default: benchmark/out)
  --manifest        print BENCHMARK.json and exit";

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    repeat: usize,
    quick: bool,
    server_bin: PathBuf,
    out_dir: PathBuf,
    corrupt_oracle: bool,
    report_line: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 53_621,
        seconds: None,
        trace: None,
        repeat: 1,
        quick: false,
        server_bin: default_server_bin(),
        out_dir: default_out_dir(),
        corrupt_oracle: false,
        report_line: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n\n{USAGE}"))
        };
        match flag.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            // The keep-awake child (see `keepawake`); never returns.
            "--spin" => fedbench::keepawake::spin_until_stdin_closes(),
            "--manifest" => {
                print!("{}", manifest_json());
                return Ok(None);
            }
            "--workload" => {
                let name = value()?;
                let known = WORKLOADS.iter().map(|(w, _)| *w).find(|w| *w == name);
                parsed
                    .workloads
                    .push(known.ok_or_else(|| format!("--workload: unknown workload {name:?}"))?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other:?} is not 0 or 1")),
                })
            }
            "--repeat" => {
                parsed.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if parsed.repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            "--quick" => parsed.quick = true,
            "--server-bin" => parsed.server_bin = PathBuf::from(value()?),
            "--out" => parsed.out_dir = PathBuf::from(value()?),
            // Test hook, deliberately not in the usage text.
            "--corrupt-oracle" => parsed.corrupt_oracle = true,
            // How the full mode asks a run it started for `run_json`.
            "--report-line" => parsed.report_line = true,
            other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
        }
    }
    if parsed.trace.is_some() && parsed.workloads.len() != 1 {
        return Err("--trace runs exactly one --workload".to_string());
    }
    if parsed.report_line && parsed.trace.is_none() {
        return Err("--report-line belongs to a single --trace run".to_string());
    }
    if parsed.trace.is_some() && parsed.repeat != 1 {
        return Err("--repeat compares whole sets; drop --trace".to_string());
    }
    Ok(Some(parsed))
}

fn run(args: Args) -> Result<bool, String> {
    let config = RunConfig {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.quick {
            0.5
        } else {
            f64::from(RUN_SECONDS)
        }),
        deploy: DeployConfig {
            server_bin: args.server_bin,
            scratch: args.out_dir.clone(),
            quick: args.quick,
        },
        out_dir: args.out_dir,
        corrupt_oracle: args.corrupt_oracle,
    };
    std::fs::create_dir_all(&config.out_dir)
        .map_err(|e| format!("create {}: {e}", config.out_dir.display()))?;
    if !args.report_line {
        println!("env: {}", env_json(&config));
    }

    // Driver mode: one workload, one mode, the result line last.
    if let Some(traced) = args.trace {
        let report = run_workload(&config, args.workloads[0], traced)?;
        print_run(&report);
        if args.report_line {
            println!("{}", run_json(&report));
        } else {
            println!("{}", result_line(&report));
        }
        return Ok(report.correct());
    }

    // Full mode: every selected workload untraced, then traced, each run in
    // a process of its own as under the driver.
    let workloads: Vec<&'static str> = if args.workloads.is_empty() {
        WORKLOADS.iter().map(|(w, _)| *w).collect()
    } else {
        args.workloads
    };
    let mut sets: Vec<Vec<Reading>> = Vec::new();
    let mut lines: Vec<Vec<String>> = Vec::new();
    for set in 0..args.repeat {
        if args.repeat > 1 {
            println!("=== set {} of {}", set + 1, args.repeat);
        }
        let (mut readings, mut set_lines) = (Vec::new(), Vec::new());
        for workload in &workloads {
            for traced in [false, true] {
                let (reading, line) = run_in_child(&config, workload, traced)?;
                readings.push(reading);
                set_lines.push(line);
            }
        }
        sets.push(readings);
        lines.push(set_lines);
    }
    let mut correct = sets.iter().flatten().all(|r| r.correct);
    if let [first, second, ..] = sets.as_slice() {
        let problems = compare_sets(first, second);
        for problem in &problems {
            println!("REPEATABILITY: {problem}");
        }
        correct &= problems.is_empty();
    }
    let json = reports_json(&config, &lines);
    let path = config.out_dir.join("report.json");
    std::fs::write(&path, &json).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("{json}");
    Ok(correct)
}

/// Runs one workload in one mode as a child of this executable, passes its
/// output on, and returns what its report line says, with the line itself.
fn run_in_child(
    config: &RunConfig,
    workload: &'static str,
    traced: bool,
) -> Result<(Reading, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--report-line", "--workload", workload])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--seed", &config.seed.to_string()])
        .args(["--seconds", &config.seconds.to_string()])
        .arg("--server-bin")
        .arg(&config.deploy.server_bin)
        .arg("--out")
        .arg(&config.out_dir)
        .stdout(Stdio::piped());
    if config.deploy.quick {
        command.arg("--quick");
    }
    if config.corrupt_oracle {
        command.arg("--corrupt-oracle");
    }
    let mut child = command
        .spawn()
        .map_err(|e| format!("start the {workload} run: {e}"))?;
    // Everything but the last line is for the reader; the last is the report.
    let mut last = String::new();
    if let Some(stdout) = child.stdout.take() {
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| format!("read the {workload} run: {e}"))?;
            if !last.is_empty() {
                println!("{last}");
            }
            last = line;
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("wait for the {workload} run: {e}"))?;
    // 0 and 1 are verdicts; anything else means the run did not happen, and
    // the child has said why on stderr.
    if !matches!(status.code(), Some(0 | 1)) {
        return Err(format!("the {workload} run ended with {status}"));
    }
    let reading = Reading::parse(workload, traced, &last)
        .ok_or_else(|| format!("the {workload} run ended without a report line"))?;
    Ok((reading, last))
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| args.map_or(Ok(true), run)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("fedbench: a check failed (see the FAILED / REPEATABILITY lines above)");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("fedbench: {message}");
            ExitCode::from(2)
        }
    }
}
