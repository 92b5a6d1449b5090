//! The benchmark's contract in one place: workloads, metrics, units, bounds.
//!
//! `BENCHMARK.json` at the repository root is generated from these tables
//! (`fedbench --manifest`), and a unit test fails when the two disagree, so
//! the bounds the `--repeat` gate enforces are the bounds the manifest
//! declares.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.  End-to-end metrics carry the share of the parent's
/// median by which they may worsen; layer metrics carry none.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Seconds one run measures for; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u32 = 15;

/// The four workloads, with the reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "ojsp_fed",
        "single-query OJSP over the pooled 5-process federation: source work is tens of us per shard, so plan, codec, frames, pool rendezvous and socket wake-ups dominate",
    ),
    (
        "cjsp_fed",
        "single-query CJSP over the same deployment: 99% of the time is coverage search inside the sources and replies carry candidate cell sets; a net change must show nothing here",
    ),
    (
        "knn_batch",
        "8-query kNN batches through the in-process framework: engine fan-out over 40 shard tasks, DITS-L kNN and the distance kernel, with net bypassed entirely",
    ),
    (
        "churn_fed",
        "rounds of one maintenance batch then 20 OJSP queries: heavier per-dataset caches or layouts that help reads show up here as slower batches and first queries",
    ),
];

/// What the driver gates: the costs this benchmark can resolve on the box
/// it was defined on.  Every one is reported on every workload by
/// `--trace 0`.  Throughput and latency are *not* here: their run-to-run
/// spread on that box exceeds any bound the contract allows (README.md,
/// "Why the timings are not gated"), so they are the `client.*` layer
/// metrics below.
pub const END_TO_END: &[MetricSpec] = &[
    gated("comm_bytes_per_query", "bytes", Better::Lower, 0.05),
    gated("peak_rss_mb", "mb", Better::Lower, 0.10),
    gated("setup_s", "s", Better::Lower, 0.25),
];

/// The closed loop's own timings: layer metrics to the driver, but measured
/// best by an untraced run (five deployments), which prints them too.
pub const CLIENT_TIMINGS: [&str; 3] = [
    "client.throughput_qps",
    "client.latency_p50_ms",
    "client.latency_p90_ms",
];

/// One layer each, taken by the traced probe (`--trace 1`).  Times are
/// medians over the probed requests of the per-request sum over shards;
/// counts are per-request means or run totals (README.md says which).
pub const PER_LAYER: &[MetricSpec] = &[
    layer("spatial.grid_query_us", "us", Better::Lower),
    layer("spatial.clip_us", "us", Better::Lower),
    layer("spatial.query_cells", "count", Better::Lower),
    layer("dits.global.route_us", "us", Better::Lower),
    layer("dits.global.routed_share", "ratio", Better::Lower),
    layer("dits.local.search_us", "us", Better::Lower),
    layer("dits.local.nodes_visited", "count", Better::Lower),
    layer("dits.local.nodes_pruned", "count", Better::Higher),
    layer("dits.local.exact_computations", "count", Better::Lower),
    layer("dits.local.candidates", "count", Better::Lower),
    layer("dits.local.results_per_exact", "ratio", Better::Higher),
    layer("dits.local.build_s", "s", Better::Lower),
    layer("dits.local.index_bytes", "bytes", Better::Lower),
    layer("dits.global.index_bytes", "bytes", Better::Lower),
    layer("dits.update.apply_us_per_op", "us", Better::Lower),
    layer("dits.update.splits", "count", Better::Lower),
    layer("dits.update.collapses", "count", Better::Lower),
    layer("dits.update.reinserts", "count", Better::Lower),
    layer("multisource.message.encode_request_us", "us", Better::Lower),
    layer("multisource.message.decode_request_us", "us", Better::Lower),
    layer("multisource.message.encode_reply_us", "us", Better::Lower),
    layer("multisource.message.decode_reply_us", "us", Better::Lower),
    layer("multisource.message.request_bytes", "bytes", Better::Lower),
    layer("multisource.message.reply_bytes", "bytes", Better::Lower),
    layer(
        "multisource.transport.frame_roundtrip_us",
        "us",
        Better::Lower,
    ),
    layer("multisource.source.serve_us", "us", Better::Lower),
    layer("multisource.source.self_us", "us", Better::Lower),
    layer("multisource.source.service_us", "us", Better::Lower),
    layer("multisource.source.cpu_us_per_query", "us", Better::Lower),
    layer("net.pool.call_us", "us", Better::Lower),
    layer("net.pool.overhead_us", "us", Better::Lower),
    layer("net.pool.connect_s", "s", Better::Lower),
    layer("net.pool.retries", "count", Better::Lower),
    layer("net.pool.timeouts", "count", Better::Lower),
    layer("net.pool.backpressure", "count", Better::Lower),
    layer("multisource.engine.run_fed_us", "us", Better::Lower),
    layer("multisource.engine.run_inproc_us", "us", Better::Lower),
    layer("multisource.engine.self_us", "us", Better::Lower),
    layer(
        "multisource.engine.shards_per_query",
        "count",
        Better::Lower,
    ),
    layer("multisource.engine.fanout_gap_us", "us", Better::Lower),
    layer("multisource.engine.batch_speedup", "ratio", Better::Higher),
    layer("multisource.center.bootstrap_s", "s", Better::Lower),
    layer("multisource.center.apply_updates_ms", "ms", Better::Lower),
    layer("multisource.center.cpu_us_per_query", "us", Better::Lower),
    layer(
        "multisource.center.ctx_switches_per_query",
        "count",
        Better::Lower,
    ),
    layer("datagen.generate_s", "s", Better::Lower),
    layer("fleet.spawn_s", "s", Better::Lower),
    layer("client.throughput_qps", "1/s", Better::Higher),
    layer("client.latency_p50_ms", "ms", Better::Lower),
    layer("client.latency_p90_ms", "ms", Better::Lower),
    layer("client.latency_p99_ms", "ms", Better::Lower),
    layer("client.latency_max_ms", "ms", Better::Lower),
    layer("client.segment_qps_spread", "ratio", Better::Lower),
    layer("probe.budget_coverage", "ratio", Better::Higher),
    layer("probe.tracing_overhead", "ratio", Better::Lower),
];

/// The metrics a run of one mode deals in: every layer metric traced;
/// untraced, every end-to-end metric and — unless `driver_only` — the client
/// timings.
pub fn specs_of(traced: bool, driver_only: bool) -> Vec<&'static MetricSpec> {
    if traced {
        return PER_LAYER.iter().collect();
    }
    let timings = PER_LAYER
        .iter()
        .filter(|m| !driver_only && CLIENT_TIMINGS.contains(&m.name));
    END_TO_END.iter().chain(timings).collect()
}

/// The contents of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    use crate::json::quote;
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{comma}\n",
            quote(name),
            quote(why)
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{comma}\n",
            quote(m.name),
            quote(m.unit),
            quote(m.better.as_str()),
            m.bound.unwrap_or(0.0)
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}\n",
            quote(m.name),
            quote(m.unit),
            quote(m.better.as_str())
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn tables_meet_the_manifest_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16 && !m.unit.is_empty(), "{}", m.name);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
        let setup = setup.expect("setup_s is a required end-to-end metric");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with `fedbench --manifest > BENCHMARK.json`"
        );
    }
}
