//! One run of one workload: its deployments, the fixed segment, the timed
//! slices, the oracle checks, and — when traced — the layer probe.
//!
//! Load shape: a closed loop with one client, because the center's callers
//! each wait for their reply (and, on the 2-core box the numbers were taken
//! on, the five servers and the pool's event loop need the second core).
//!
//! An untraced run measures on five deployments, each set up from nothing:
//! the set-ups are the samples behind `setup_s`, and each deployment serves
//! a short warm-up and then one fifth of `--seconds` (see
//! `stats::run_timings` for why one deployment is not enough).  The first
//! requests of the first deployment's slice are the *fixed segment*: a set
//! number of requests, the same whatever the machine's speed, which
//! therefore yields the figures that repeat exactly — `comm_bytes_per_query`
//! and the answer digest.  A traced run has one deployment, which the probe
//! then replays requests on.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use multisource::{
    EngineConfig, MultiSourceFramework, QueryEngine, SearchError, SearchRequest, SearchResponse,
    UpdateOp,
};
use spatial::SourceId;

use crate::check::Checker;
use crate::deploy::{
    framework_config, median_timings, setup_federation, setup_in_process, DeployConfig, Federation,
    SetupTimings,
};
use crate::keepawake::KeepAwake;
use crate::probe::{probe_request, Probe};
use crate::procfs;
use crate::spec::{specs_of, END_TO_END, PER_LAYER};
use crate::stats::{
    highest_supported_percentile, median, percentile, relative_spread, run_timings, segment_rates,
    Slice,
};
use crate::workload::{
    generate_corpus, sample_draw, ChurnSequence, Corpus, QueryKind, QuerySequence,
    CHURN_QUERIES_PER_ROUND,
};

/// Everything one invocation needs to know.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub deploy: DeployConfig,
    pub out_dir: PathBuf,
    /// Test hook: tamper with the first oracle answer, which must make the
    /// run fail.
    pub corrupt_oracle: bool,
}

/// Sizes of one workload's run.  `fixed`, `warmup` and `probe` count
/// requests, or rounds for `churn_fed`.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Corpus datasets the query sequence cycles over.
    pub base_len: usize,
    /// Length of the fixed segment that opens the first deployment's slice.
    pub fixed: usize,
    /// What a deployment serves before it is timed (connections open
    /// lazily, caches are cold).
    pub warmup: usize,
    /// One request in this many is compared with the twin.
    pub oracle_every: usize,
    pub probe: usize,
    /// Deployments per untraced run.
    pub deployments: usize,
}

/// Operations per `churn_fed` maintenance batch, sized so that maintenance
/// is 30-50% of the workload's time on the seed commit (measured: a third;
/// every run prints its own share).
pub const CHURN_OPS_PER_BATCH: usize = 72;

/// The frozen sizes.  CJSP costs ~240 ms a query and a kNN batch ~450 ms,
/// so their base lists are what a run can cover about once; OJSP covers the
/// whole corpus several times.
pub fn plan(workload: &str, quick: bool) -> Plan {
    let (base_len, fixed, warmup, oracle_every, probe, deployments) = match (workload, quick) {
        ("ojsp_fed", false) => (usize::MAX, 2_000, 300, 16, 500, 5),
        ("cjsp_fed", false) => (64, 12, 2, 8, 16, 5),
        ("knn_batch", false) => (256, 6, 1, 12, 6, 5),
        ("churn_fed", false) => (usize::MAX, 4, 2, 1, 10, 5),
        ("ojsp_fed", true) => (usize::MAX, 100, 20, 4, 20, 2),
        ("cjsp_fed", true) => (16, 4, 1, 2, 2, 2),
        ("knn_batch", true) => (32, 2, 1, 2, 1, 2),
        _ => (usize::MAX, 2, 1, 1, 2, 2),
    };
    Plan {
        base_len,
        fixed,
        warmup,
        oracle_every,
        probe,
        deployments,
    }
}

/// What one run reports.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// Order-independent digest of the fixed segment's answers.
    pub digest: String,
    /// Latency samples behind the percentiles, and the highest percentile
    /// they support under the ten-samples-beyond rule.
    pub latency_samples: usize,
    pub supported_percentile: Option<f64>,
    /// Whether the timings are medians over deployments or pooled.
    pub per_deployment: bool,
    pub deployments: usize,
    pub fixed_requests: usize,
    pub timed_requests: usize,
    pub probed_requests: u64,
    /// Share of the timed slices' busy time spent in maintenance batches
    /// (`churn_fed`; 0 elsewhere).
    pub maintenance_share: f64,
    /// `nice -n 19` spinners that kept the CPUs from halting (see
    /// `keepawake`); 0 when they could not be started.
    pub keep_awake_spinners: usize,
    /// Every metric this run measured, by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl WorkloadReport {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// `(name, value, unit)` of `specs_of(self.traced, driver_only)`.
    pub fn values(&self, driver_only: bool) -> Vec<(&'static str, f64, &'static str)> {
        specs_of(self.traced, driver_only)
            .into_iter()
            .map(|m| {
                (
                    m.name,
                    self.metrics.get(m.name).copied().unwrap_or(0.0),
                    m.unit,
                )
            })
            .collect()
    }
}

/// Latencies, completion times and volumes of one stretch of requests.
#[derive(Debug, Default)]
struct Segment {
    requests: usize,
    queries: u64,
    bytes: u64,
    /// Time inside requests and maintenance batches: the loop's own
    /// bookkeeping between them is the client's, not the system's.
    busy_ns: u64,
    latencies_ns: Vec<u64>,
    /// `(busy time at completion, queries completed)`.
    completions: Vec<(u64, u64)>,
    batch_ns: Vec<u64>,
}

impl Segment {
    fn record(&mut self, latency: Duration, queries: u64, bytes: u64) {
        let ns = latency.as_nanos() as u64;
        self.requests += 1;
        self.queries += queries;
        self.bytes += bytes;
        self.busy_ns += ns;
        self.latencies_ns.push(ns);
        self.completions.push((self.busy_ns, queries));
    }

    fn slice(&self) -> Slice {
        Slice {
            latencies_ns: self.latencies_ns.clone(),
            queries: self.queries,
            busy_ns: self.busy_ns,
        }
    }
}

/// When a stretch of requests ends.
#[derive(Debug, Clone, Copy)]
enum Until {
    Requests(usize),
    Deadline(Instant),
}

impl Until {
    fn reached(self, done: usize) -> bool {
        match self {
            Until::Requests(n) => done >= n,
            Until::Deadline(at) => Instant::now() >= at,
        }
    }
}

/// Volumes of the fixed segment.
#[derive(Debug, Clone, Copy, Default)]
struct FixedCounts {
    requests: usize,
    queries: u64,
    bytes: u64,
}

impl FixedCounts {
    /// Everything `segment` holds so far is the fixed segment.
    fn of(segment: &Segment) -> Self {
        Self {
            requests: segment.requests,
            queries: segment.queries,
            bytes: segment.bytes,
        }
    }
}

type Exec<'a> = &'a dyn Fn(&SearchRequest) -> Result<SearchResponse, SearchError>;

/// What a deployment is asked and who answers: the request sequence, the
/// engine behind it, and how often (one request in `oracle_every`, drawn by
/// seed) an answer is kept for the oracle.
struct Load<'a> {
    sequence: &'a QuerySequence,
    oracle_every: usize,
    exec: Exec<'a>,
}

/// A response kept for comparison with the oracle after the loop.
type Sample = (usize, SearchRequest, SearchResponse);

/// CPU and scheduling counters, read around each timed slice.
#[derive(Debug, Clone, Copy, Default)]
struct Resources {
    own_cpu_us: f64,
    own_ctx: f64,
    fleet_cpu_us: f64,
    pool: [f64; 3],
}

impl Resources {
    fn read(federation: Option<&Federation>) -> Self {
        Self {
            own_cpu_us: procfs::cpu_us(std::process::id()),
            own_ctx: procfs::own_ctx_switches() as f64,
            fleet_cpu_us: federation.map_or(0.0, |f| f.fleet.usage().cpu_us),
            pool: federation.map_or([0.0; 3], |f| {
                let m = f.pool.metrics();
                [m.retries.get(), m.timeouts.get(), m.backpressure.get()].map(|v| v as f64)
            }),
        }
    }

    /// Adds what was consumed between `before` and `after`.
    fn add_delta(&mut self, before: &Resources, after: &Resources) {
        self.own_cpu_us += after.own_cpu_us - before.own_cpu_us;
        self.own_ctx += after.own_ctx - before.own_ctx;
        self.fleet_cpu_us += after.fleet_cpu_us - before.fleet_cpu_us;
        for i in 0..3 {
            self.pool[i] += after.pool[i] - before.pool[i];
        }
    }
}

/// What a run accumulates, whichever workload it is.
#[derive(Default)]
struct RunState {
    checker: Checker,
    samples: Vec<Sample>,
    /// The fixed segment: the first requests of the first deployment's
    /// slice.
    fixed: FixedCounts,
    /// One timed segment per deployment.
    timed: Vec<Segment>,
    setups: Vec<SetupTimings>,
    /// Consumed during the timed slices, over all deployments.
    consumed: Resources,
    peak_fleet_rss_mb: f64,
}

impl RunState {
    /// Issues requests `from..` of `load` into `segment` until `until`;
    /// returns the next index.  Answers are digested when `digest` is set.
    fn drive(
        &mut self,
        segment: &mut Segment,
        digest: bool,
        load: &Load<'_>,
        from: usize,
        until: Until,
    ) -> usize {
        let Load {
            sequence,
            oracle_every,
            exec,
        } = *load;
        let mut index = from;
        while !until.reached(index - from) {
            let request = sequence.request(index);
            let started = Instant::now();
            let outcome = exec(&request);
            let latency = started.elapsed();
            let bytes = outcome.as_ref().map_or(0, |r| r.comm.total_bytes());
            segment.record(latency, request.queries().len() as u64, bytes as u64);
            if let Some(response) = self.checker.observe(index, &request, &outcome) {
                if digest {
                    self.checker.digest(index, response);
                }
                if sample_draw(sequence.seed(), index).is_multiple_of(oracle_every as u64) {
                    self.samples.push((index, request, response.clone()));
                }
            }
            index += 1;
        }
        index
    }

    /// One deployment's share of a query-only workload: a warm-up, then a
    /// timed slice which on the first deployment opens with the fixed
    /// segment.  Returns the next request index.
    fn serve_queries(
        &mut self,
        plan: &Plan,
        slice: Duration,
        load: &Load<'_>,
        from: usize,
        federation: Option<&Federation>,
    ) -> usize {
        let warmup = Until::Requests(plan.warmup);
        let mut next = self.drive(&mut Segment::default(), false, load, from, warmup);

        let mut timed = Segment::default();
        let before = Resources::read(federation);
        let deadline = Until::Deadline(Instant::now() + slice);
        if self.timed.is_empty() {
            next = self.drive(&mut timed, true, load, next, Until::Requests(plan.fixed));
            self.fixed = FixedCounts::of(&timed);
        }
        next = self.drive(&mut timed, false, load, next, deadline);
        self.finish_slice(timed, &before, federation);
        next
    }

    /// Books a deployment's timed slice and what it consumed.
    fn finish_slice(
        &mut self,
        timed: Segment,
        before: &Resources,
        federation: Option<&Federation>,
    ) {
        self.consumed
            .add_delta(before, &Resources::read(federation));
        self.timed.push(timed);
        if let Some(federation) = federation {
            self.peak_fleet_rss_mb = self
                .peak_fleet_rss_mb
                .max(federation.fleet.usage().peak_rss_mb);
        }
    }

    /// The traced probe of a query-only workload: replays the first `count`
    /// requests of `sequence`, layer by layer.
    fn probe_requests(
        &mut self,
        count: usize,
        sequence: &QuerySequence,
        kind: QueryKind,
        twin: &MultiSourceFramework,
        federation: Option<&Federation>,
    ) -> Probe {
        let mut probe = Probe::default();
        for index in 0..count {
            let request = sequence.request(index);
            probe_request(
                &mut probe,
                &mut self.checker,
                index,
                &request,
                kind,
                twin,
                federation,
            );
        }
        probe
    }

    /// Compares `samples` with the oracle's answers.
    fn verify(&mut self, samples: &[Sample], corrupt_first: bool, oracle: Exec<'_>) {
        for (n, (index, request, response)) in samples.iter().enumerate() {
            let mut expected = oracle(request);
            if let (true, 0, Ok(expected)) = (corrupt_first, n, &mut expected) {
                expected.comm.bytes_to_sources += 1;
            }
            self.checker.compare(*index, response, &expected);
        }
    }

    fn timed_p50_ms(&self) -> f64 {
        let mut all: Vec<u64> = self
            .timed
            .iter()
            .flat_map(|s| s.latencies_ns.iter().copied())
            .collect();
        all.sort_unstable();
        percentile(&all, 50.0) as f64 / 1e6
    }
}

/// Assembles the report: the metrics both modes share, on top of whatever
/// the probe put into `metrics`.
fn report(
    workload: &'static str,
    traced: bool,
    state: RunState,
    mut metrics: BTreeMap<&'static str, f64>,
    probed: u64,
    build_s: f64,
    twin: &MultiSourceFramework,
) -> WorkloadReport {
    let RunState {
        checker,
        fixed,
        timed,
        setups,
        consumed,
        peak_fleet_rss_mb,
        ..
    } = state;
    let slices: Vec<Slice> = timed.iter().map(Segment::slice).collect();
    let timings = run_timings(&slices);
    let mut pooled: Vec<u64> = slices
        .iter()
        .flat_map(|s| s.latencies_ns.iter().copied())
        .collect();
    pooled.sort_unstable();
    let setup = median_timings(&setups);
    let ms = |ns: u64| ns as f64 / 1e6;
    let queries = timed.iter().map(|s| s.queries).sum::<u64>().max(1) as f64;
    let mut set = |name: &'static str, value: f64| {
        metrics.insert(name, value);
    };

    set("setup_s", setup.total_s);
    set("client.throughput_qps", timings.rate);
    set("client.latency_p50_ms", ms(timings.p50_ns));
    set("client.latency_p90_ms", ms(timings.p90_ns));
    set(
        "comm_bytes_per_query",
        fixed.bytes as f64 / fixed.queries.max(1) as f64,
    );
    set(
        "peak_rss_mb",
        procfs::peak_rss_mb(std::process::id()) + peak_fleet_rss_mb,
    );

    set("client.latency_p99_ms", ms(percentile(&pooled, 99.0)));
    set(
        "client.latency_max_ms",
        ms(pooled.last().copied().unwrap_or(0)),
    );
    // The run's own noise reading: the rates of its deployments, or of five
    // equal parts of the one deployment a traced run has.
    let rates: Vec<f64> = match timed.as_slice() {
        [only] => segment_rates(&only.completions, only.busy_ns, 5),
        _ => slices.iter().map(Slice::rate).collect(),
    };
    set("client.segment_qps_spread", relative_spread(&rates));
    set(
        "multisource.source.cpu_us_per_query",
        consumed.fleet_cpu_us / queries,
    );
    set(
        "multisource.center.cpu_us_per_query",
        consumed.own_cpu_us / queries,
    );
    set(
        "multisource.center.ctx_switches_per_query",
        consumed.own_ctx / queries,
    );
    for (i, name) in [
        "net.pool.retries",
        "net.pool.timeouts",
        "net.pool.backpressure",
    ]
    .into_iter()
    .enumerate()
    {
        set(name, consumed.pool[i]);
    }
    set("datagen.generate_s", setup.generate_s);
    set("fleet.spawn_s", setup.spawn_s);
    set("net.pool.connect_s", setup.connect_s);
    set("multisource.center.bootstrap_s", setup.bootstrap_s);
    // Index sizes are the twin's; the servers hold the same indexes.
    let local: usize = twin
        .sources()
        .iter()
        .map(|s| s.index().memory_bytes())
        .sum();
    set("dits.local.build_s", build_s);
    set("dits.local.index_bytes", local as f64);
    set(
        "dits.global.index_bytes",
        twin.center().global().memory_bytes() as f64,
    );
    let batch_ms: Vec<f64> = timed
        .iter()
        .flat_map(|s| &s.batch_ns)
        .map(|&ns| ms(ns))
        .collect();
    if !traced && !batch_ms.is_empty() {
        // Untraced, the batch time comes from the timed slices themselves.
        set("multisource.center.apply_updates_ms", median(&batch_ms));
    }

    WorkloadReport {
        workload,
        traced,
        attempted: checker.attempted,
        failed: checker.failed,
        notes: checker.notes,
        digest: checker.digest.render(),
        latency_samples: pooled.len(),
        supported_percentile: highest_supported_percentile(pooled.len()),
        per_deployment: timings.per_deployment,
        deployments: timed.len(),
        fixed_requests: fixed.requests,
        timed_requests: timed.iter().map(|s| s.requests).sum(),
        probed_requests: probed,
        maintenance_share: timed.iter().flat_map(|s| &s.batch_ns).sum::<u64>() as f64
            / timed.iter().map(|s| s.busy_ns).sum::<u64>().max(1) as f64,
        keep_awake_spinners: 0,
        metrics,
    }
}

/// Closes the pool, then drains the fleet; a fleet that did not drain
/// cleanly counts as a failure.
fn finish_federation(federation: Federation, checker: &mut Checker) {
    let Federation {
        center,
        pool,
        fleet,
    } = federation;
    drop(center);
    drop(pool);
    if let Err(problem) = fleet.shutdown() {
        checker.fail(format!("fleet: {problem}"));
    }
}

fn zeroed_metrics() -> BTreeMap<&'static str, f64> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|m| (m.name, 0.0))
        .collect()
}

/// The twin: the framework over the corpus, and how long it took to build.
fn build_twin(quick: bool) -> (Corpus, MultiSourceFramework, f64) {
    let corpus = generate_corpus(quick);
    let started = Instant::now();
    let twin = MultiSourceFramework::build(&corpus, framework_config());
    let build_s = started.elapsed().as_secs_f64();
    (corpus, twin, build_s)
}

/// How many deployments a run has and how long each is timed for.
fn deployments_and_slice(config: &RunConfig, plan: &Plan, traced: bool) -> (usize, Duration) {
    let share = config.seconds / plan.deployments.max(1) as f64;
    let deployments = if traced { 1 } else { plan.deployments.max(1) };
    (deployments, Duration::from_secs_f64(share))
}

/// Runs one workload once.
pub fn run_workload(
    config: &RunConfig,
    workload: &'static str,
    traced: bool,
) -> Result<WorkloadReport, String> {
    // Held for the whole run; the spinners die with the guard.  `knn_batch`
    // keeps every CPU busy by itself and has no wake-up chain to protect.
    let awake = (workload != "knn_batch").then(KeepAwake::start);
    let mut report = match workload {
        "ojsp_fed" => run_federated_queries(config, workload, QueryKind::Ojsp, traced),
        "cjsp_fed" => run_federated_queries(config, workload, QueryKind::Cjsp, traced),
        "knn_batch" => run_knn_batch(config, workload, traced),
        "churn_fed" => run_churn(config, workload, traced),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    report.keep_awake_spinners = awake.map_or(0, |a| a.spinners());
    Ok(report)
}

/// `ojsp_fed` and `cjsp_fed`: single-query requests over the pooled
/// federation, checked against the twin.
fn run_federated_queries(
    config: &RunConfig,
    workload: &'static str,
    kind: QueryKind,
    traced: bool,
) -> Result<WorkloadReport, String> {
    let plan = plan(workload, config.deploy.quick);
    let (deployments, slice) = deployments_and_slice(config, &plan, traced);
    let (corpus, twin, build_s) = build_twin(config.deploy.quick);
    let sequence = QuerySequence::new(&corpus, kind, plan.base_len, config.seed);
    let mut state = RunState::default();
    let mut metrics = zeroed_metrics();
    let (mut next, mut probed) = (0, 0);
    for _ in 0..deployments {
        let (federation, setup) = setup_federation(&config.deploy)?;
        state.setups.push(setup);
        let engine = QueryEngine::new(
            &federation.center,
            &federation.pool,
            EngineConfig::default(),
        );
        let load = Load {
            sequence: &sequence,
            oracle_every: plan.oracle_every,
            exec: &|request| engine.run(request),
        };
        next = state.serve_queries(&plan, slice, &load, next, Some(&federation));
        if traced {
            let probe = state.probe_requests(plan.probe, &sequence, kind, &twin, Some(&federation));
            probed = probe.finish(
                &config.out_dir,
                workload,
                state.timed_p50_ms(),
                &mut metrics,
            )?;
        }
        finish_federation(federation, &mut state.checker);
    }
    let samples = std::mem::take(&mut state.samples);
    state.verify(&samples, config.corrupt_oracle, &|request| {
        twin.search(request)
    });
    Ok(report(
        workload, traced, state, metrics, probed, build_s, &twin,
    ))
}

/// `knn_batch`: 8-query kNN requests through the in-process framework with
/// one engine worker per CPU; the oracle is the same framework on one
/// worker.
fn run_knn_batch(
    config: &RunConfig,
    workload: &'static str,
    traced: bool,
) -> Result<WorkloadReport, String> {
    let plan = plan(workload, config.deploy.quick);
    let (deployments, slice) = deployments_and_slice(config, &plan, traced);
    let corpus = generate_corpus(config.deploy.quick);
    let sequence = QuerySequence::new(&corpus, QueryKind::Knn, plan.base_len, config.seed);
    let mut state = RunState::default();
    let mut metrics = zeroed_metrics();
    let (mut next, mut probed) = (0, 0);
    let mut last = None;
    for deployment in 0..deployments {
        drop(last.take());
        let (framework, setup) = setup_in_process(config.deploy.quick);
        state.setups.push(setup);
        let load = Load {
            sequence: &sequence,
            oracle_every: plan.oracle_every,
            exec: &|request| framework.search(request),
        };
        next = state.serve_queries(&plan, slice, &load, next, None);
        // The deployment is its own oracle, so it answers before it goes.
        let samples = std::mem::take(&mut state.samples);
        let corrupt = config.corrupt_oracle && deployment == 0;
        state.verify(&samples, corrupt, &|request| {
            framework.search(&request.clone().workers(1))
        });
        if traced {
            let probe =
                state.probe_requests(plan.probe, &sequence, QueryKind::Knn, &framework, None);
            probed = probe.finish(
                &config.out_dir,
                workload,
                state.timed_p50_ms(),
                &mut metrics,
            )?;
        }
        last = Some((framework, setup.build_s));
    }
    let (framework, build_s) = last.expect("a run has at least one deployment");
    Ok(report(
        workload, traced, state, metrics, probed, build_s, &framework,
    ))
}

/// One maintenance batch of `churn_fed`, kept so the twin can replay it.
struct AppliedBatch {
    first_query: usize,
    source: SourceId,
    ops: Vec<UpdateOp>,
}

/// The request streams of `churn_fed` and the batches applied to the
/// current deployment.
struct Churn<'a> {
    updates: ChurnSequence<'a>,
    queries: QuerySequence,
    applied: Vec<AppliedBatch>,
}

impl Churn<'_> {
    /// One round: a `DataCenter::apply_updates` batch over the pool, then
    /// that round's 20 OJSP queries, all of them kept for the oracle.
    fn round(
        &mut self,
        state: &mut RunState,
        segment: &mut Segment,
        digest: bool,
        federation: &mut Federation,
    ) {
        let round = self.updates.round();
        let (source, ops) = self.updates.next_batch();
        let first_query = round * CHURN_QUERIES_PER_ROUND;
        let started = Instant::now();
        let outcome = federation
            .center
            .apply_updates(&federation.pool, source, &ops);
        let elapsed = started.elapsed().as_nanos() as u64;
        segment.busy_ns += elapsed;
        segment.batch_ns.push(elapsed);
        state.checker.attempted += 1;
        match outcome {
            Ok(outcome) => {
                segment.bytes += outcome.comm.total_bytes() as u64;
                if outcome.stats.rejected > 0 {
                    let rejected = outcome.stats.rejected;
                    state
                        .checker
                        .fail(format!("batch {round}: {rejected} operation(s) rejected"));
                }
            }
            Err(e) => state.checker.fail(format!("batch {round}: {e}")),
        }
        self.applied.push(AppliedBatch {
            first_query,
            source,
            ops,
        });
        let engine = QueryEngine::new(
            &federation.center,
            &federation.pool,
            EngineConfig::default(),
        );
        // Every answer of this workload goes to the oracle.
        let load = Load {
            sequence: &self.queries,
            oracle_every: 1,
            exec: &|request| engine.run(request),
        };
        let until = Until::Requests(CHURN_QUERIES_PER_ROUND);
        state.drive(segment, digest, &load, first_query, until);
    }

    /// The twin replays every applied batch in order and answers each
    /// round's queries from the state the fleet was in when it answered
    /// them.
    fn verify(&mut self, state: &mut RunState, twin: &mut MultiSourceFramework, mut corrupt: bool) {
        let samples = std::mem::take(&mut state.samples);
        let mut remaining = samples.as_slice();
        for batch in self.applied.drain(..) {
            if let Err(e) = twin.apply_updates(batch.source, &batch.ops) {
                state.checker.fail(format!(
                    "twin batch before query {}: {e}",
                    batch.first_query
                ));
            }
            let end = batch.first_query + CHURN_QUERIES_PER_ROUND;
            let split = remaining.partition_point(|(index, _, _)| *index < end);
            let (this_round, rest) = remaining.split_at(split);
            state.verify(this_round, corrupt, &|request| twin.search(request));
            corrupt &= this_round.is_empty();
            remaining = rest;
        }
    }
}

/// `churn_fed`: rounds of one maintenance batch followed by 20 OJSP
/// queries, strictly sequential, every answer checked against a twin
/// replaying the same operations.
fn run_churn(
    config: &RunConfig,
    workload: &'static str,
    traced: bool,
) -> Result<WorkloadReport, String> {
    let plan = plan(workload, config.deploy.quick);
    let (deployments, slice) = deployments_and_slice(config, &plan, traced);
    let (corpus, bare_twin, build_s) = build_twin(config.deploy.quick);
    let mut churn = Churn {
        updates: ChurnSequence::new(&corpus, CHURN_OPS_PER_BATCH, config.seed),
        queries: QuerySequence::new(&corpus, QueryKind::Ojsp, plan.base_len, config.seed),
        applied: Vec::new(),
    };
    let mut state = RunState::default();
    let mut metrics = zeroed_metrics();
    let mut probed = 0;
    let mut twin = bare_twin.clone();
    for deployment in 0..deployments {
        let (mut federation, setup) = setup_federation(&config.deploy)?;
        state.setups.push(setup);
        // Every deployment, and its twin, starts from the bare corpus.
        churn.updates.start_deployment();
        twin = bare_twin.clone();

        let first = deployment == 0;
        for _ in 0..plan.warmup {
            churn.round(&mut state, &mut Segment::default(), false, &mut federation);
        }
        let mut timed = Segment::default();
        let before = Resources::read(Some(&federation));
        let started = Instant::now();
        if first {
            for _ in 0..plan.fixed {
                churn.round(&mut state, &mut timed, true, &mut federation);
            }
            state.fixed = FixedCounts::of(&timed);
        }
        while started.elapsed() < slice {
            churn.round(&mut state, &mut timed, false, &mut federation);
        }
        state.finish_slice(timed, &before, Some(&federation));
        churn.verify(&mut state, &mut twin, config.corrupt_oracle && first);

        finish_federation(federation, &mut state.checker);
    }
    if traced {
        let timed_p50_ms = state.timed_p50_ms();
        let probe = probe_churn(config, &plan, &corpus, &bare_twin, &mut state)?;
        probed = probe.finish(&config.out_dir, workload, timed_p50_ms, &mut metrics)?;
    }
    Ok(report(
        workload, traced, state, metrics, probed, build_s, &twin,
    ))
}

/// The probe of `churn_fed`, on a deployment and a maintenance stream of its
/// own: what the timed slice applied depends on how fast the machine was,
/// and the probe's counts must not.  After the usual warm-up rounds, each
/// probed round is one probed batch and its 20 probed queries.
fn probe_churn(
    config: &RunConfig,
    plan: &Plan,
    corpus: &Corpus,
    bare_twin: &MultiSourceFramework,
    state: &mut RunState,
) -> Result<Probe, String> {
    let (mut federation, setup) = setup_federation(&config.deploy)?;
    state.setups.push(setup);
    let mut twin = bare_twin.clone();
    let mut churn = Churn {
        updates: ChurnSequence::new(corpus, CHURN_OPS_PER_BATCH, config.seed),
        queries: QuerySequence::new(corpus, QueryKind::Ojsp, plan.base_len, config.seed),
        applied: Vec::new(),
    };
    for _ in 0..plan.warmup {
        churn.round(state, &mut Segment::default(), false, &mut federation);
    }
    churn.verify(state, &mut twin, false);

    let mut probe = Probe::default();
    for _ in 0..plan.probe {
        let first_query = churn.updates.round() * CHURN_QUERIES_PER_ROUND;
        let (source, ops) = churn.updates.next_batch();
        probe_batch(
            &mut probe,
            &mut state.checker,
            first_query,
            source,
            &ops,
            &mut federation,
            &twin,
        );
        if let Err(e) = twin.apply_updates(source, &ops) {
            state.checker.fail(format!("twin probe batch: {e}"));
        }
        for index in first_query..first_query + CHURN_QUERIES_PER_ROUND {
            probe_request(
                &mut probe,
                &mut state.checker,
                index,
                &churn.queries.request(index),
                QueryKind::Ojsp,
                &twin,
                Some(&federation),
            );
        }
    }
    finish_federation(federation, &mut state.checker);
    Ok(probe)
}

/// Probes one maintenance batch: `DataCenter::apply_updates` over the pool,
/// and `DataSource::apply_updates` alone on a copy of the twin's source (the
/// framework hands its sources out read-only).
fn probe_batch(
    probe: &mut Probe,
    checker: &mut Checker,
    first_query: usize,
    source: SourceId,
    ops: &[UpdateOp],
    federation: &mut Federation,
    twin: &MultiSourceFramework,
) {
    let Probe { rec, readings } = probe;
    rec.set_request(first_query as u32);
    let whole = rec.enter("batch");
    let span = rec.enter("multisource.center.apply_updates");
    let outcome = federation
        .center
        .apply_updates(&federation.pool, source, ops);
    let ns = rec.exit(span);
    readings.push("multisource.center.apply_updates_ms", ns as f64 / 1e6);
    checker.attempted += 1;
    match outcome {
        Ok(outcome) => {
            readings.add("dits.update.splits", outcome.stats.leaf_splits as f64);
            readings.add("dits.update.collapses", outcome.stats.leaf_collapses as f64);
            readings.add("dits.update.reinserts", outcome.stats.reinserts as f64);
        }
        Err(e) => checker.fail(format!("probe batch before query {first_query}: {e}")),
    }
    if let Some(original) = twin.sources().iter().find(|s| s.id == source) {
        let mut scratch = original.clone();
        let span = rec.enter("dits.update.apply");
        let applied = scratch.apply_updates(ops);
        let ns = rec.exit(span);
        std::hint::black_box(&applied);
        readings.push(
            "dits.update.apply_us_per_op",
            ns as f64 / 1e3 / ops.len().max(1) as f64,
        );
    }
    rec.exit(whole);
}
