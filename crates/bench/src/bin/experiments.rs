//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Section VII) on the synthetic five-source environment.
//!
//! Usage:
//!
//! ```text
//! experiments [EXPERIMENT] [--scale DIVISOR] [--quick]
//!
//! EXPERIMENT: all | table1 | table2 | fig7 | fig8 | fig9 | fig10 | fig11 |
//!             fig12 | fig13 | fig14 | fig15 | fig16 | fig17 | fig18 |
//!             fig19 | fig20 | fig21 | fig22
//! --scale N   generate 1/N of the paper's dataset counts (default 20)
//! --quick     use a reduced parameter grid and a smaller scale (divisor 100)
//! ```
//!
//! Every figure prints a tab-separated table whose rows mirror the series of
//! the corresponding plot.

use std::time::{Duration, Instant};

use baselines::{sg_coverage_search, sg_dits_coverage_search};
use bench::{ExperimentEnv, IndexKind};
use datagen::ParameterGrid;
use dits::{coverage_search, CoverageConfig, DatasetNode, DitsLocal, DitsLocalConfig};
use multisource::{CommConfig, DistributionStrategy, FrameworkConfig, SearchRequest};
use spatial::SourceStats;

const USAGE: &str = "\
Usage: experiments [EXPERIMENT] [--scale DIVISOR] [--quick]

EXPERIMENT: all | table1 | table2 | fig7 | fig8 | fig9 | fig10 | fig11 |
            fig12 | fig13 | fig14 | fig15 | fig16 | fig17 | fig18 |
            fig19 | fig20 | fig21 | fig22
--scale N   generate 1/N of the paper's dataset counts (default 20)
--quick     use a reduced parameter grid and a smaller scale (divisor 100)";

/// The divisor `--scale` names: a positive integer, or `None` when the
/// value is missing, not a number, or zero.
fn parse_scale(value: Option<&str>) -> Option<u32> {
    value?.parse().ok().filter(|&divisor| divisor > 0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = "all".to_string();
    let mut divisor: u32 = 20;
    let mut quick = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--scale" => {
                let Some(scale) = parse_scale(args.get(i + 1).map(String::as_str)) else {
                    eprintln!("--scale takes a positive integer\n{USAGE}");
                    std::process::exit(2);
                };
                divisor = scale;
                i += 1;
            }
            "--quick" => quick = true,
            other if !other.starts_with('-') => experiment = other.to_string(),
            other => {
                eprintln!("unknown flag {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    const EXPERIMENTS: [&str; 19] = [
        "all", "table1", "table2", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
        "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22",
    ];
    if !EXPERIMENTS.contains(&experiment.as_str()) {
        eprintln!("unknown experiment {experiment:?}\n{USAGE}");
        std::process::exit(2);
    }
    if quick {
        divisor = divisor.max(100);
    }
    let grid_params = if quick {
        ParameterGrid::quick()
    } else {
        ParameterGrid::paper()
    };

    eprintln!("# generating five synthetic sources at 1/{divisor} of Table I scale …");
    let env = ExperimentEnv::new(divisor, 0x1CDE_2025);
    eprintln!("# total datasets: {}", env.dataset_count());

    let run = |name: &str| experiment == "all" || experiment == name;

    if run("table1") {
        table1(&env);
    }
    if run("table2") {
        table2(&grid_params);
    }
    if run("fig7") {
        fig7(&env);
    }
    if run("fig8") {
        fig8(&env, &grid_params);
    }
    if run("fig9") {
        ojsp_sweep(&env, &grid_params, Sweep::K);
    }
    if run("fig10") {
        ojsp_sweep(&env, &grid_params, Sweep::Theta);
    }
    if run("fig11") {
        ojsp_sweep(&env, &grid_params, Sweep::Q);
    }
    if run("fig12") {
        fig12(&env, &grid_params);
    }
    if run("fig13") || run("fig14") {
        fig13_14(&env, &grid_params);
    }
    if run("fig15") {
        cjsp_sweep(&env, &grid_params, Sweep::K);
    }
    if run("fig16") {
        cjsp_sweep(&env, &grid_params, Sweep::Theta);
    }
    if run("fig17") {
        cjsp_sweep(&env, &grid_params, Sweep::Q);
    }
    if run("fig18") {
        cjsp_sweep(&env, &grid_params, Sweep::Delta);
    }
    if run("fig19") || run("fig20") {
        fig19_20(&env, &grid_params);
    }
    if run("fig21") {
        maintenance(&env, &grid_params, Maintenance::Insert);
    }
    if run("fig22") {
        maintenance(&env, &grid_params, Maintenance::Update);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn header(title: &str) {
    println!();
    println!("# {title}");
}

// ---------------------------------------------------------------------------
// Table I & II, Fig. 7
// ---------------------------------------------------------------------------

fn table1(env: &ExperimentEnv) {
    header("Table I — statistics of the five (synthetic) data sources");
    println!("source\tdatasets\tpoints\tlon range\tlat range");
    for (name, datasets) in &env.source_data {
        let stats = SourceStats::compute(name.clone(), datasets);
        let (lon, lat) = match stats.extent {
            Some(e) => (
                format!("[{:.2}, {:.2}]", e.min.x, e.max.x),
                format!("[{:.2}, {:.2}]", e.min.y, e.max.y),
            ),
            None => ("-".to_string(), "-".to_string()),
        };
        println!(
            "{}\t{}\t{}\t{}\t{}",
            stats.name, stats.dataset_count, stats.point_count, lon, lat
        );
    }
}

fn table2(grid: &ParameterGrid) {
    header("Table II — parameter settings (defaults marked with *)");
    let fmt = |values: &[String], default: &str| {
        values
            .iter()
            .map(|v| {
                if v == default {
                    format!("{v}*")
                } else {
                    v.clone()
                }
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!(
        "k: number of results\t{}",
        fmt(
            &grid
                .k_values
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>(),
            &grid.default_k.to_string()
        )
    );
    println!(
        "q: number of queries\t{}",
        fmt(
            &grid
                .q_values
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>(),
            &grid.default_q.to_string()
        )
    );
    println!(
        "theta: resolution\t{}",
        fmt(
            &grid
                .theta_values
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>(),
            &grid.default_theta.to_string()
        )
    );
    println!(
        "delta: connectivity threshold\t{}",
        fmt(
            &grid
                .delta_values
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>(),
            &grid.default_delta.to_string()
        )
    );
    println!(
        "f: leaf node capacity\t{}",
        fmt(
            &grid
                .f_values
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>(),
            &grid.default_f.to_string()
        )
    );
}

fn fig7(env: &ExperimentEnv) {
    header("Fig. 7 — dataset distribution heatmaps (16x16 occupancy grid, % of datasets per row)");
    for idx in 0..env.source_data.len() {
        let datasets = env.source(idx);
        let mut counts = [[0usize; 16]; 16];
        let stats = SourceStats::compute(env.source_name(idx), datasets);
        let Some(extent) = stats.extent else { continue };
        let mut total = 0usize;
        for d in datasets {
            if let Some(m) = d.mbr() {
                let c = m.center();
                let gx = (((c.x - extent.min.x) / extent.width().max(1e-9)) * 16.0).clamp(0.0, 15.0)
                    as usize;
                let gy = (((c.y - extent.min.y) / extent.height().max(1e-9)) * 16.0)
                    .clamp(0.0, 15.0) as usize;
                counts[gy][gx] += 1;
                total += 1;
            }
        }
        println!("## {}", env.source_name(idx));
        for row in counts.iter().rev() {
            let line: Vec<String> = row
                .iter()
                .map(|c| format!("{:3.0}", 100.0 * *c as f64 / total.max(1) as f64))
                .collect();
            println!("{}", line.join(" "));
        }
    }
}

// ---------------------------------------------------------------------------
// Fig. 8 — index construction time and memory vs θ
// ---------------------------------------------------------------------------

fn fig8(env: &ExperimentEnv, grid: &ParameterGrid) {
    header("Fig. 8 (left) — index construction time vs theta (seconds, per source)");
    println!(
        "source\ttheta\t{}",
        IndexKind::all().map(|k| k.name()).join("\t")
    );
    let mut memory_rows: Vec<String> = Vec::new();
    for source_idx in 0..env.source_data.len() {
        for &theta in &grid.theta_values {
            let nodes = env.dataset_nodes(source_idx, theta);
            let mut time_cells = Vec::new();
            let mut mem_cells = Vec::new();
            for kind in IndexKind::all() {
                let start = Instant::now();
                let index = kind.build(nodes.clone(), grid.default_f);
                let elapsed = start.elapsed();
                time_cells.push(format!("{:.4}", elapsed.as_secs_f64()));
                mem_cells.push(format!(
                    "{:.2}",
                    index.memory_bytes() as f64 / (1024.0 * 1024.0)
                ));
            }
            println!(
                "{}\t{}\t{}",
                env.source_name(source_idx),
                theta,
                time_cells.join("\t")
            );
            memory_rows.push(format!(
                "{}\t{}\t{}",
                env.source_name(source_idx),
                theta,
                mem_cells.join("\t")
            ));
        }
    }
    header("Fig. 8 (right) — index memory vs theta (MiB, per source)");
    println!(
        "source\ttheta\t{}",
        IndexKind::all().map(|k| k.name()).join("\t")
    );
    for row in memory_rows {
        println!("{row}");
    }
}

// ---------------------------------------------------------------------------
// Figs. 9–11 — OJSP search time sweeps
// ---------------------------------------------------------------------------

/// Which parameter a sweep varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sweep {
    K,
    Q,
    Theta,
    Delta,
}

fn ojsp_sweep(env: &ExperimentEnv, grid: &ParameterGrid, sweep: Sweep) {
    let (figure, label, xs): (&str, &str, Vec<f64>) = match sweep {
        Sweep::K => (
            "Fig. 9",
            "k",
            grid.k_values.iter().map(|v| *v as f64).collect(),
        ),
        Sweep::Theta => (
            "Fig. 10",
            "theta",
            grid.theta_values.iter().map(|v| *v as f64).collect(),
        ),
        Sweep::Q => (
            "Fig. 11",
            "q",
            grid.q_values.iter().map(|v| *v as f64).collect(),
        ),
        Sweep::Delta => unreachable!("delta is not an OJSP parameter"),
    };
    header(&format!(
        "{figure} — OJSP search time vs {label} (ms, summed over the five sources)"
    ));
    println!("{label}\t{}", IndexKind::all().map(|k| k.name()).join("\t"));
    for &x in &xs {
        let k = if sweep == Sweep::K {
            x as usize
        } else {
            grid.default_k
        };
        let q = if sweep == Sweep::Q {
            x as usize
        } else {
            grid.default_q
        };
        let theta = if sweep == Sweep::Theta {
            x as u32
        } else {
            grid.default_theta
        };
        let queries = env.query_cells(q, theta);
        let mut cells = Vec::new();
        for kind in IndexKind::all() {
            let mut total = Duration::ZERO;
            for source_idx in 0..env.source_data.len() {
                let nodes = env.dataset_nodes(source_idx, theta);
                let index = kind.build(nodes, grid.default_f);
                let start = Instant::now();
                for query in &queries {
                    std::hint::black_box(index.overlap_search(query, k));
                }
                total += start.elapsed();
            }
            cells.push(format!("{:.3}", ms(total)));
        }
        println!("{x}\t{}", cells.join("\t"));
    }
}

// ---------------------------------------------------------------------------
// Fig. 12 — OJSP search time vs leaf capacity f (OverlapSearch vs Rtree)
// ---------------------------------------------------------------------------

fn fig12(env: &ExperimentEnv, grid: &ParameterGrid) {
    header("Fig. 12 — OJSP search time vs f (ms, OverlapSearch vs Rtree)");
    println!("f\tOverlapSearch\tRtree");
    let theta = grid.default_theta;
    let queries = env.query_cells(grid.default_q, theta);
    for &f in &grid.f_values {
        let mut dits_total = Duration::ZERO;
        let mut rtree_total = Duration::ZERO;
        for source_idx in 0..env.source_data.len() {
            let nodes = env.dataset_nodes(source_idx, theta);
            let dits = IndexKind::Dits.build(nodes.clone(), f);
            let rtree = IndexKind::RTree.build(nodes, f);
            let start = Instant::now();
            for query in &queries {
                std::hint::black_box(dits.overlap_search(query, grid.default_k));
            }
            dits_total += start.elapsed();
            let start = Instant::now();
            for query in &queries {
                std::hint::black_box(rtree.overlap_search(query, grid.default_k));
            }
            rtree_total += start.elapsed();
        }
        println!("{f}\t{:.3}\t{:.3}", ms(dits_total), ms(rtree_total));
    }
}

// ---------------------------------------------------------------------------
// Figs. 13–14 — OJSP communication cost and transmission time vs q
// ---------------------------------------------------------------------------

fn fig13_14(env: &ExperimentEnv, grid: &ParameterGrid) {
    header("Fig. 13 — OJSP communication cost vs q (bytes)");
    let strategies = [
        ("OverlapSearch", DistributionStrategy::PrunedClipped),
        ("Rtree", DistributionStrategy::Broadcast),
        ("Josie", DistributionStrategy::Broadcast),
        ("QuadTree", DistributionStrategy::Broadcast),
        ("STS3", DistributionStrategy::Broadcast),
    ];
    println!(
        "q\t{}",
        strategies
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join("\t")
    );
    let comm_config = CommConfig::default();
    let mut time_rows: Vec<String> = Vec::new();
    for &q in &grid.q_values {
        let queries = env.query_datasets(q);
        let mut byte_cells = Vec::new();
        let mut time_cells = Vec::new();
        for (_, strategy) in &strategies {
            let framework = env.framework(FrameworkConfig {
                resolution: grid.default_theta,
                leaf_capacity: grid.default_f,
                delta_cells: grid.default_delta,
                strategy: *strategy,
                workers: 0,
            });
            let outcome = framework
                .search(&SearchRequest::ojsp_batch(queries.clone()).k(grid.default_k))
                .expect("in-process search");
            byte_cells.push(outcome.comm.total_bytes().to_string());
            time_cells.push(format!(
                "{:.2}",
                outcome.comm.transmission_time_ms(&comm_config)
            ));
        }
        println!("{q}\t{}", byte_cells.join("\t"));
        time_rows.push(format!("{q}\t{}", time_cells.join("\t")));
    }
    header("Fig. 14 — OJSP transmission time vs q (ms at 1 MiB/s)");
    println!(
        "q\t{}",
        strategies
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join("\t")
    );
    for row in time_rows {
        println!("{row}");
    }
}

// ---------------------------------------------------------------------------
// Figs. 15–18 — CJSP search time sweeps
// ---------------------------------------------------------------------------

fn cjsp_sweep(env: &ExperimentEnv, grid: &ParameterGrid, sweep: Sweep) {
    let (figure, label, xs): (&str, &str, Vec<f64>) = match sweep {
        Sweep::K => (
            "Fig. 15",
            "k",
            grid.k_values.iter().map(|v| *v as f64).collect(),
        ),
        Sweep::Theta => (
            "Fig. 16",
            "theta",
            grid.theta_values.iter().map(|v| *v as f64).collect(),
        ),
        Sweep::Q => (
            "Fig. 17",
            "q",
            grid.q_values.iter().map(|v| *v as f64).collect(),
        ),
        Sweep::Delta => ("Fig. 18", "delta", grid.delta_values.clone()),
    };
    header(&format!(
        "{figure} — CJSP search time vs {label} (ms, summed over the five sources)"
    ));
    println!("{label}\tCoverageSearch\tSG+DITS\tSG");
    for &x in &xs {
        let k = if sweep == Sweep::K {
            x as usize
        } else {
            grid.default_k
        };
        let q = if sweep == Sweep::Q {
            x as usize
        } else {
            grid.default_q
        };
        let theta = if sweep == Sweep::Theta {
            x as u32
        } else {
            grid.default_theta
        };
        let delta = if sweep == Sweep::Delta {
            x
        } else {
            grid.default_delta
        };
        let queries = env.query_cells(q, theta);
        let mut coverage_total = Duration::ZERO;
        let mut sg_dits_total = Duration::ZERO;
        let mut sg_total = Duration::ZERO;
        for source_idx in 0..env.source_data.len() {
            let nodes: Vec<DatasetNode> = env.dataset_nodes(source_idx, theta);
            let index = DitsLocal::build(
                nodes.clone(),
                DitsLocalConfig {
                    leaf_capacity: grid.default_f,
                },
            );
            let start = Instant::now();
            for query in &queries {
                std::hint::black_box(coverage_search(
                    &index,
                    query,
                    CoverageConfig::new(k, delta),
                ));
            }
            coverage_total += start.elapsed();
            let start = Instant::now();
            for query in &queries {
                std::hint::black_box(sg_dits_coverage_search(&index, query, k, delta));
            }
            sg_dits_total += start.elapsed();
            let start = Instant::now();
            for query in &queries {
                std::hint::black_box(sg_coverage_search(&nodes, query, k, delta));
            }
            sg_total += start.elapsed();
        }
        println!(
            "{x}\t{:.3}\t{:.3}\t{:.3}",
            ms(coverage_total),
            ms(sg_dits_total),
            ms(sg_total)
        );
    }
}

// ---------------------------------------------------------------------------
// Figs. 19–20 — CJSP communication cost and transmission time vs q
// ---------------------------------------------------------------------------

fn fig19_20(env: &ExperimentEnv, grid: &ParameterGrid) {
    header("Fig. 19 — CJSP communication cost vs q (bytes)");
    let strategies = [
        ("CoverageSearch", DistributionStrategy::PrunedClipped),
        ("SG+DITS", DistributionStrategy::Pruned),
        ("SG", DistributionStrategy::Broadcast),
    ];
    println!(
        "q\t{}",
        strategies
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join("\t")
    );
    let comm_config = CommConfig::default();
    let mut time_rows: Vec<String> = Vec::new();
    for &q in &grid.q_values {
        let queries = env.query_datasets(q);
        let mut byte_cells = Vec::new();
        let mut time_cells = Vec::new();
        for (_, strategy) in &strategies {
            let framework = env.framework(FrameworkConfig {
                resolution: grid.default_theta,
                leaf_capacity: grid.default_f,
                delta_cells: grid.default_delta,
                strategy: *strategy,
                workers: 0,
            });
            let outcome = framework
                .search(&SearchRequest::cjsp_batch(queries.clone()).k(grid.default_k))
                .expect("in-process search");
            byte_cells.push(outcome.comm.total_bytes().to_string());
            time_cells.push(format!(
                "{:.2}",
                outcome.comm.transmission_time_ms(&comm_config)
            ));
        }
        println!("{q}\t{}", byte_cells.join("\t"));
        time_rows.push(format!("{q}\t{}", time_cells.join("\t")));
    }
    header("Fig. 20 — CJSP transmission time vs q (ms at 1 MiB/s)");
    println!(
        "q\t{}",
        strategies
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join("\t")
    );
    for row in time_rows {
        println!("{row}");
    }
}

// ---------------------------------------------------------------------------
// Figs. 21–22 — index maintenance
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Maintenance {
    Insert,
    Update,
}

fn maintenance(env: &ExperimentEnv, grid: &ParameterGrid, mode: Maintenance) {
    let (figure, what) = match mode {
        Maintenance::Insert => ("Fig. 21", "inserts"),
        Maintenance::Update => ("Fig. 22", "updates"),
    };
    header(&format!(
        "{figure} — index update time vs number of dataset {what} (ms)"
    ));
    println!("beta\t{}", IndexKind::all().map(|k| k.name()).join("\t"));
    let theta = grid.default_theta;
    // Base index over the Transit source; the batch comes from the NYU
    // source so inserted ids never collide with existing ones.
    let base_nodes = env.dataset_nodes(3, theta);
    let pool = env.dataset_nodes(2, theta);
    for &beta in &[100usize, 150, 200, 250, 300] {
        let batch: Vec<DatasetNode> = match mode {
            Maintenance::Insert => pool
                .iter()
                .cycle()
                .take(beta)
                .enumerate()
                .map(|(i, n)| {
                    // Re-key so every inserted dataset has a fresh id.
                    let mut node = n.clone();
                    node.id = 1_000_000 + i as u32;
                    node
                })
                .collect(),
            Maintenance::Update => {
                // Move existing datasets to a new location derived from the
                // pool source (same id, different cells).
                base_nodes
                    .iter()
                    .cycle()
                    .take(beta)
                    .zip(pool.iter().cycle())
                    .map(|(original, donor)| {
                        let mut node = donor.clone();
                        node.id = original.id;
                        node
                    })
                    .collect()
            }
        };
        let mut cells = Vec::new();
        for kind in IndexKind::all() {
            let mut index = kind.build(base_nodes.clone(), grid.default_f);
            let start = Instant::now();
            for node in &batch {
                match mode {
                    Maintenance::Insert => {
                        std::hint::black_box(index.insert(node.clone()));
                    }
                    Maintenance::Update => {
                        std::hint::black_box(index.update(node.clone()));
                    }
                }
            }
            cells.push(format!("{:.3}", ms(start.elapsed())));
        }
        println!("{beta}\t{}", cells.join("\t"));
    }
}

#[cfg(test)]
mod tests {
    use super::parse_scale;

    #[test]
    fn scale_is_a_positive_integer() {
        assert_eq!(parse_scale(Some("20")), Some(20));
        assert_eq!(parse_scale(Some("1")), Some(1));
        for bad in [
            None,
            Some(""),
            Some("abc"),
            Some("0"),
            Some("-3"),
            Some("2.5"),
        ] {
            assert_eq!(parse_scale(bad), None, "{bad:?}");
        }
    }
}
