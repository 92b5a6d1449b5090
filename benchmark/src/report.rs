//! What the benchmark prints: every metric by name with its unit, the
//! driver's result line, the `env` block, and the `--repeat` comparison.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{metrics_object, number, quote};
use crate::run::{plan, RunConfig, WorkloadReport, CHURN_OPS_PER_BATCH};
use crate::spec::{specs_of, Better, MetricSpec, WORKLOADS};
use crate::stats::samples_beyond;

/// The commit of the checkout the benchmark runs in, read from `.git`
/// directly (no child process, nothing outside the checkout); `unknown` in
/// an exported tree.
pub fn git_commit(root: &Path) -> String {
    let read = |p: &str| std::fs::read_to_string(root.join(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(reference) {
        return hash.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `env` block: what the numbers depend on besides the code.
pub fn env_json(config: &RunConfig) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let plans: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, _)| {
            let p = plan(name, config.deploy.quick);
            format!(
                "{}: {{\"base_queries\": {}, \"fixed\": {}, \"warmup\": {}, \"oracle_every\": {}, \
                 \"probe\": {}, \"deployments\": {}}}",
                quote(name),
                if p.base_len == usize::MAX {
                    "\"corpus\"".to_string()
                } else {
                    p.base_len.to_string()
                },
                p.fixed,
                p.warmup,
                p.oracle_every,
                p.probe,
                p.deployments
            )
        })
        .collect();
    format!(
        "{{\"nproc\": {nproc}, \"git_commit\": {}, \"client_profile\": {}, \"server_profile\": {}, \
         \"server_bin\": {}, \"seed\": {}, \"seconds\": {}, \"quick\": {}, \
         \"churn_ops_per_batch\": {CHURN_OPS_PER_BATCH}, \"plans\": {{{}}}}}",
        quote(&git_commit(Path::new("."))),
        quote(if cfg!(debug_assertions) {
            "benchmark/Cargo.toml [profile.dev] (opt-level 3, debug assertions)"
        } else {
            "benchmark/Cargo.toml [profile.release] (opt-level 3, no debug info)"
        }),
        quote("root Cargo.toml [profile.release] (debug = true), as built by benchmark/run.sh"),
        quote(&config.deploy.server_bin.display().to_string()),
        config.seed,
        number(config.seconds),
        config.deploy.quick,
        plans.join(", ")
    )
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(report: &WorkloadReport) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics_object(&report.values(true))
    )
}

/// Prints one run: counts, digest, the latency sample count with the
/// percentile it supports, then every reported metric by name with its unit.
pub fn print_run(report: &WorkloadReport) {
    let mode = if report.traced { "traced" } else { "untraced" };
    println!("== {} ({mode})", report.workload);
    println!(
        "   requests: fixed {} + timed {} + probed {}; attempted {}, failed {} (failed_share {})",
        report.fixed_requests,
        report.timed_requests,
        report.probed_requests,
        report.attempted,
        report.failed,
        number(report.failed as f64 / report.attempted.max(1) as f64),
    );
    println!(
        "   digest of the fixed segment's answers: {}",
        report.digest
    );
    println!("   keep-awake spinners: {}", report.keep_awake_spinners);
    if report.maintenance_share > 0.0 {
        println!(
            "   maintenance batches: {:.1}% of the timed slices' busy time",
            report.maintenance_share * 100.0
        );
    }
    let n = report.latency_samples;
    let supported = report
        .supported_percentile
        .map_or("none".to_string(), |p| format!("p{p}"));
    println!(
        "   latency samples: {n} ({} beyond p90; highest percentile with ten beyond: {supported}); \
         {} deployment(s), timings {}",
        samples_beyond(n, 90.0),
        report.deployments,
        if report.per_deployment { "are medians over them" } else { "pooled" },
    );
    for note in &report.notes {
        println!("   FAILED: {note}");
    }
    for (name, value, unit) in report.values(false) {
        println!("   {name:<44} {:>16} {unit}", format_value(value));
    }
}

fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// One run as one JSON object: the last line of a run the full mode started
/// (`--report-line`), and an element of `report.json`.
pub fn run_json(r: &WorkloadReport) -> String {
    format!(
        "{{\"workload\": {}, \"traced\": {}, \"correct\": {}, \"attempted\": {}, \
         \"failed\": {}, \"digest\": {}, \"latency_samples\": {}, \
         \"fixed_requests\": {}, \"timed_requests\": {}, \"probed_requests\": {}, \
         \"keep_awake_spinners\": {}, \"metrics\": {}}}",
        quote(r.workload),
        r.traced,
        r.correct(),
        r.attempted,
        r.failed,
        quote(&r.digest),
        r.latency_samples,
        r.fixed_requests,
        r.timed_requests,
        r.probed_requests,
        r.keep_awake_spinners,
        metrics_object(&r.values(false))
    )
}

/// Everything one invocation produced, as one JSON object; `sets` holds the
/// `run_json` lines of each pass over the workloads.
pub fn reports_json(config: &RunConfig, sets: &[Vec<String>]) -> String {
    let sets: Vec<String> = sets
        .iter()
        .map(|runs| format!("[{}]", runs.join(", ")))
        .collect();
    format!(
        "{{\"env\": {}, \"sets\": [{}]}}",
        env_json(config),
        sets.join(", ")
    )
}

/// What the `--repeat` comparison needs of one run, read back from its
/// `run_json` line: the full mode gives every run a process of its own, as
/// the driver does, so that no run inherits another's heap or peak memory.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub workload: &'static str,
    pub traced: bool,
    pub correct: bool,
    pub digest: String,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Reading {
    /// Parses a `run_json` line.  Only this program's own output is ever
    /// read, so the parser knows `metrics_object`'s layout and nothing else
    /// of JSON; a line it does not recognise is `None`.
    pub fn parse(workload: &'static str, traced: bool, line: &str) -> Option<Self> {
        let after = |key: &str| line.find(key).map(|at| &line[at + key.len()..]);
        let correct = after("\"correct\": ")?.starts_with("true");
        let digest = after("\"digest\": \"")?.split('"').next()?.to_string();
        let mut metrics = BTreeMap::new();
        for spec in specs_of(traced, false) {
            let value = after(&format!("\"{}\": {{\"value\": ", spec.name))?;
            let end = value.find([',', '}'])?;
            metrics.insert(spec.name, value[..end].parse().ok()?);
        }
        Some(Self {
            workload,
            traced,
            correct,
            digest,
            metrics,
        })
    }
}

/// Relative gap between two readings of one metric: `|a - b|` over their
/// mean; 0 when both are 0.
pub fn relative_gap(a: f64, b: f64) -> f64 {
    let mean = (a.abs() + b.abs()) / 2.0;
    if mean == 0.0 {
        0.0
    } else {
        (a - b).abs() / mean
    }
}

/// Whether a layer metric is a count that must repeat exactly between two
/// runs of the same code and seed.
fn is_exact_count(m: &MetricSpec) -> bool {
    (m.unit == "count" || m.unit == "bytes")
        && !matches!(
            m.name,
            // Sampled from /proc or the allocator, or timing-dependent.
            "multisource.center.ctx_switches_per_query"
                | "dits.local.index_bytes"
                | "dits.global.index_bytes"
                | "net.pool.retries"
                | "net.pool.timeouts"
                | "net.pool.backpressure"
        )
}

/// The `--repeat` comparison of two sets of runs of the same code: prints
/// both values and their relative gap per (metric, workload), and returns
/// what broke the gate — an end-to-end gap beyond its bound, or a digest,
/// `comm_bytes_per_query` or count that did not repeat exactly.
pub fn compare_sets(first: &[Reading], second: &[Reading]) -> Vec<String> {
    let mut problems = Vec::new();
    println!("== repeatability: set 1 vs set 2");
    for (a, b) in first.iter().zip(second) {
        if a.digest != b.digest {
            problems.push(format!(
                "{}: digests differ ({} vs {})",
                a.workload, a.digest, b.digest
            ));
        }
        for m in specs_of(a.traced, false) {
            let (x, y) = (
                a.metrics.get(m.name).copied().unwrap_or(0.0),
                b.metrics.get(m.name).copied().unwrap_or(0.0),
            );
            let gap = relative_gap(x, y);
            let worse = match m.better {
                Better::Lower => y > x,
                Better::Higher => y < x,
            };
            let verdict = match m.bound {
                _ if m.name == "comm_bytes_per_query" || (a.traced && is_exact_count(m)) => {
                    if x == y {
                        "exact"
                    } else {
                        problems.push(format!(
                            "{} {}: {x} vs {y}, must repeat exactly",
                            a.workload, m.name
                        ));
                        "NOT EXACT"
                    }
                }
                Some(bound) if gap > bound => {
                    problems.push(format!(
                        "{} {}: gap {:.1}% exceeds the bound of {:.0}%",
                        a.workload,
                        m.name,
                        gap * 100.0,
                        bound * 100.0
                    ));
                    "OVER BOUND"
                }
                Some(_) => "within bound",
                None => "",
            };
            println!(
                "   {:<10} {:<44} {:>14} {:>14} {:>7.2}% {} {verdict}",
                a.workload,
                m.name,
                format_value(x),
                format_value(y),
                gap * 100.0,
                if gap == 0.0 {
                    "="
                } else if worse {
                    "-"
                } else {
                    "+"
                },
            );
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A run read back from its own report line, as the full mode reads it.
    fn reading(traced: bool, rss: f64, bytes: f64, digest: &str) -> Reading {
        let line = run_json(&report(traced, rss, bytes, digest));
        Reading::parse("ojsp_fed", traced, &line).expect("a run_json line parses")
    }

    fn report(traced: bool, rss: f64, bytes: f64, digest: &str) -> WorkloadReport {
        let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
        metrics.insert("peak_rss_mb", rss);
        // Ungated: any gap between two readings passes.
        metrics.insert("client.throughput_qps", rss * bytes);
        metrics.insert("comm_bytes_per_query", bytes);
        metrics.insert("spatial.query_cells", bytes);
        WorkloadReport {
            workload: "ojsp_fed",
            traced,
            attempted: 10,
            failed: 0,
            notes: Vec::new(),
            digest: digest.to_string(),
            latency_samples: 10,
            supported_percentile: None,
            per_deployment: false,
            deployments: 1,
            fixed_requests: 5,
            timed_requests: 5,
            probed_requests: 0,
            maintenance_share: 0.0,
            keep_awake_spinners: 0,
            metrics,
        }
    }

    #[test]
    fn repeat_gate_flags_gaps_beyond_the_bound_and_inexact_counts() {
        let gaps = |a: Reading, b: Reading| compare_sets(&[a], &[b]);
        let base = || reading(false, 1000.0, 2048.0, "5:abc");
        assert!(gaps(base(), reading(false, 1040.0, 2048.0, "5:abc")).is_empty());
        let grown = gaps(base(), reading(false, 1200.0, 2048.0, "5:abc"));
        assert_eq!(grown.len(), 1, "{grown:?}");
        assert!(grown[0].contains("peak_rss_mb"));
        let drift = gaps(base(), reading(false, 1000.0, 2049.0, "5:abd"));
        assert_eq!(drift.len(), 2, "{drift:?}");
        let layer = gaps(
            reading(true, 0.0, 7.0, "5:abc"),
            reading(true, 0.0, 8.0, "5:abc"),
        );
        assert_eq!(layer.len(), 1, "{layer:?}");
        assert!(layer[0].contains("spatial.query_cells"));
    }

    #[test]
    fn a_report_line_reads_back_with_every_digit() {
        let mut report = report(false, 0.1 + 0.2, 1e-9, "12:00ff");
        report.failed = 1;
        let back = reading(false, 0.1 + 0.2, 1e-9, "12:00ff");
        assert_eq!(back.metrics["peak_rss_mb"], 0.1 + 0.2);
        assert_eq!(back.metrics["comm_bytes_per_query"], 1e-9);
        assert_eq!(
            back.metrics["setup_s"], 0.0,
            "a metric the run left out reads 0"
        );
        assert_eq!((back.digest.as_str(), back.correct), ("12:00ff", true));
        let failed = Reading::parse("ojsp_fed", false, &run_json(&report)).expect("parses");
        assert!(!failed.correct);
        assert!(Reading::parse("ojsp_fed", false, "fedbench: no such thing").is_none());
        // A traced line carries every layer metric; an untraced one does not.
        assert!(Reading::parse("ojsp_fed", true, &run_json(&report)).is_none());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(&report(false, 1.5, 2.0, "1:0"));
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        for m in crate::spec::END_TO_END {
            assert!(
                line.contains(&format!("\"{}\": {{\"value\": ", m.name)),
                "{}",
                m.name
            );
        }
        assert!(!line.contains("spatial.query_cells") && !line.contains("client."));
        assert_eq!(relative_gap(0.0, 0.0), 0.0);
        assert!((relative_gap(90.0, 110.0) - 0.2).abs() < 1e-12);
    }
}
