//! Fault injection: a fleet member that dies or stalls mid-batch must
//! *degrade* the batch, never park or poison it.
//!
//! Each scenario runs twice — once in-process with the fault injected at
//! the transport seam, once over the pooled TCP transport against real
//! sockets (a drained `SourceServer`, or a black-hole listener that accepts
//! and never replies) — and asserts the exact same degradation contract on
//! both deployments:
//!
//! * fail-fast (the default) aborts the batch with a typed
//!   `SearchError::Transport`;
//! * `skip_failed_sources` completes the batch from the surviving sources
//!   with identical answers, identical `CommStats` (completed exchanges
//!   only) and identical `SearchStats`, reporting the failed source as a
//!   typed [`SourceFailure`](multisource::SourceFailure).
//!
//! A fault can also land between a request's waves: a source that answers
//! the CJSP query and is gone when the center comes back for the cells of a
//! candidate it only named.

use std::collections::BTreeSet;
use std::net::TcpListener;
use std::sync::Mutex;
use std::time::Duration;

use datagen::{generate_source, paper_sources, select_queries, GeneratorConfig, SourceScale};
use multisource::transport::{read_frame, write_frame};
use multisource::{
    CallOptions, DataCenter, DataSource, DistributionStrategy, EngineConfig, FrameworkConfig,
    InProcessTransport, Message, MultiSourceFramework, QueryEngine, SearchError, SearchRequest,
    ServedReply, SourceServer, SourceTransport, TransportError, TransportReply,
};
use net::{PoolConfig, PooledTcpTransport};
use spatial::{SourceId, SpatialDataset};

fn build_data(seed: u64) -> Vec<(String, Vec<SpatialDataset>)> {
    let config = GeneratorConfig {
        scale: SourceScale::Custom(400),
        seed,
        max_points_per_dataset: Some(60),
    };
    paper_sources()
        .iter()
        .take(3)
        .map(|p| (p.name.to_string(), generate_source(p, &config)))
        .collect()
}

fn framework(data: &[(String, Vec<SpatialDataset>)]) -> MultiSourceFramework {
    MultiSourceFramework::build(
        data,
        FrameworkConfig {
            resolution: 11,
            strategy: DistributionStrategy::PrunedClipped,
            ..FrameworkConfig::default()
        },
    )
}

fn probe_queries(data: &[(String, Vec<SpatialDataset>)]) -> Vec<SpatialDataset> {
    let pool: Vec<SpatialDataset> = data.iter().flat_map(|(_, d)| d.iter().cloned()).collect();
    select_queries(&pool, 6, 3)
}

fn engine_config(fw: &MultiSourceFramework) -> EngineConfig {
    EngineConfig {
        workers: fw.config().workers,
        strategy: fw.config().strategy,
        delta_cells: fw.config().delta_cells,
        ..EngineConfig::default()
    }
}

/// In-process fleet with one injected-dead member: every call to `dead` —
/// or, with `fetches_only`, every fetch of cells — fails with a clone of
/// `error`; everything else takes the plain in-process path.  This is the
/// oracle the real-socket deployments are held to.
#[derive(Debug)]
struct InjectedFault<'a> {
    inner: InProcessTransport<'a>,
    dead: SourceId,
    fetches_only: bool,
    error: TransportError,
}

impl SourceTransport for InjectedFault<'_> {
    fn source_ids(&self) -> Vec<SourceId> {
        self.inner.source_ids()
    }

    fn call_with(
        &self,
        source: SourceId,
        request: &Message,
        opts: CallOptions,
    ) -> Result<TransportReply, TransportError> {
        let hit = !self.fetches_only || matches!(request, Message::CellsQuery { .. });
        if source == self.dead && hit {
            return Err(self.error.clone());
        }
        self.inner.call_with(source, request, opts)
    }
}

/// The three search kinds, all broadcast so the faulty source is
/// demonstrably contacted by every batch.
fn broadcast_requests(queries: &[SpatialDataset]) -> [SearchRequest; 3] {
    [
        SearchRequest::ojsp_batch(queries.to_vec())
            .k(5)
            .strategy(DistributionStrategy::Broadcast),
        SearchRequest::cjsp_batch(queries.to_vec())
            .k(3)
            .strategy(DistributionStrategy::Broadcast),
        SearchRequest::knn_batch(queries.to_vec())
            .k(4)
            .strategy(DistributionStrategy::Broadcast),
    ]
}

/// Asserts the full degradation contract for one request on one deployment
/// pair: fail-fast aborts both; skip-and-report completes both with
/// identical answers and accounting and exactly the dead source reported.
fn assert_degradation_parity(
    local_engine: &QueryEngine,
    remote_engine: &QueryEngine,
    request: &SearchRequest,
    dead: SourceId,
) {
    // Fail-fast default: the dead source aborts the whole batch with a
    // typed transport error on both deployments.
    assert!(
        matches!(local_engine.run(request), Err(SearchError::Transport(_))),
        "in-process fail-fast must surface the injected fault"
    );
    assert!(
        matches!(remote_engine.run(request), Err(SearchError::Transport(_))),
        "pooled fail-fast must surface the socket fault"
    );

    // Degraded mode: both complete from the survivors.
    let degraded = request.clone().skip_failed_sources(true);
    let local = local_engine
        .run(&degraded)
        .expect("in-process degraded run");
    let remote = remote_engine.run(&degraded).expect("pooled degraded run");

    assert!(!local.is_complete(), "the injected fault must be reported");
    assert_eq!(local.failures.len(), 1, "exactly one source failed");
    assert_eq!(local.failures[0].source, dead);
    assert_eq!(remote.failures.len(), 1, "exactly one source failed");
    assert_eq!(remote.failures[0].source, dead);
    assert!(
        matches!(remote.failures[0].error, SearchError::Transport(_)),
        "the reported failure must be transport-typed, got {:?}",
        remote.failures[0].error
    );

    // Answers and completed-shard accounting are deployment-independent:
    // the failed shards contribute nothing, the completed ones everything,
    // byte for byte.
    assert_eq!(local.results, remote.results, "degraded answers diverged");
    assert_eq!(
        local.comm, remote.comm,
        "completed-shard byte accounting diverged"
    );
    assert_eq!(
        local.search, remote.search,
        "completed-shard search statistics diverged"
    );
}

/// A real-socket deployment with one member killed: three live servers,
/// bootstrapped while healthy, then `dead` drained away — its connections
/// are gone and new ones are refused.  The surviving servers are returned so
/// they outlive the batches.
fn kill_one(
    fw: &MultiSourceFramework,
    dead: SourceId,
) -> (Vec<SourceServer>, PooledTcpTransport, DataCenter) {
    let mut servers: Vec<SourceServer> = fw
        .sources()
        .iter()
        .map(|s| SourceServer::spawn("127.0.0.1:0", s.clone()).expect("bind loopback"))
        .collect();
    let endpoints: Vec<(SourceId, String)> = servers.iter().map(|s| s.endpoint()).collect();
    let pooled = PooledTcpTransport::with_config(
        endpoints,
        PoolConfig {
            connect_timeout: Duration::from_millis(500),
            retries: 1,
            retry_backoff: Duration::from_millis(5),
            ..PoolConfig::default()
        },
    )
    .expect("pooled transport");
    let center =
        DataCenter::from_transport(&pooled, fw.config().leaf_capacity).expect("summary poll");
    servers.remove(dead as usize).shutdown();
    (servers, pooled, center)
}

/// The in-process oracle of [`kill_one`]: the same member dead at the
/// transport seam, failing with the class of error the pool types a refused
/// connection as.
fn refuse_one(fw: &MultiSourceFramework, dead: SourceId) -> InjectedFault<'_> {
    InjectedFault {
        inner: InProcessTransport::new(fw.sources()),
        dead,
        fetches_only: false,
        error: TransportError::Io("connection refused (injected)".to_string()),
    }
}

/// Scenario 1 — a fleet member is killed between bootstrap and the batch.
/// The pooled transport types that as I/O failure (retries spent), the
/// in-process oracle injects the same class of error, and both deployments
/// degrade identically — whichever member it is, the first of the fleet
/// included.
#[test]
fn killed_source_degrades_identically_in_process_and_pooled() {
    let data = build_data(91);
    let fw = framework(&data);
    let queries = probe_queries(&data);

    for dead in [1, 0] {
        let (_servers, pooled, center) = kill_one(&fw, dead);
        let remote_engine = QueryEngine::new(&center, &pooled, engine_config(&fw));
        let faulty = refuse_one(&fw, dead);
        let local_center = DataCenter::from_global(fw.center().global().clone());
        let local_engine = QueryEngine::new(&local_center, &faulty, engine_config(&fw));

        for request in broadcast_requests(&queries) {
            assert_degradation_parity(&local_engine, &remote_engine, &request, dead);
        }
    }
}

/// Scenario 1b — the killed member is the one every kNN query is sent to
/// *first*.  Under the default strategy kNN leaves in two waves, and the
/// second is planned from the first one's replies: fail-fast returns the
/// dead source's own error, and a degraded run — no first reply, so no
/// cutoff — asks every survivor the whole query and returns their exact
/// merged answer, identically on both deployments.
#[test]
fn dead_first_wave_source_degrades_knn_identically() {
    let data = build_data(91);
    let fw = framework(&data);
    let dead: SourceId = 0;
    // Queries drawn from the dead source's own datasets: its lower bound is
    // 0 and its id the smallest, so it is every query's first wave.
    let queries: Vec<SpatialDataset> = data[0].1.iter().take(4).cloned().collect();
    let request = SearchRequest::knn_batch(queries.clone()).k(4);

    let (_servers, pooled, center) = kill_one(&fw, dead);
    let remote_engine = QueryEngine::new(&center, &pooled, engine_config(&fw));
    let faulty = refuse_one(&fw, dead);
    let local_engine = QueryEngine::new(fw.center(), &faulty, engine_config(&fw));
    assert_degradation_parity(&local_engine, &remote_engine, &request, dead);
    assert_eq!(
        local_engine.run(&request).unwrap_err(),
        SearchError::Transport(faulty.error.clone())
    );

    let degraded = local_engine
        .run(&request.clone().skip_failed_sources(true))
        .expect("degraded run");
    let survivors = &fw.sources()[1..];
    assert_eq!(degraded.comm.requests, survivors.len() * queries.len());
    let oracle = QueryEngine::in_process(fw.center(), survivors, engine_config(&fw))
        .run(&request.strategy(DistributionStrategy::Broadcast))
        .expect("survivors alone");
    assert_eq!(degraded.results, oracle.results);
    assert_eq!(degraded.comm.total_bytes(), oracle.comm.total_bytes());
}

/// In-process sources that remember who was asked for cells.
#[derive(Debug)]
struct FetchLog<'a> {
    inner: InProcessTransport<'a>,
    fetched_from: Mutex<BTreeSet<SourceId>>,
}

impl SourceTransport for FetchLog<'_> {
    fn source_ids(&self) -> Vec<SourceId> {
        self.inner.source_ids()
    }

    fn call_with(
        &self,
        source: SourceId,
        request: &Message,
        opts: CallOptions,
    ) -> Result<TransportReply, TransportError> {
        if matches!(request, Message::CellsQuery { .. }) {
            self.fetched_from
                .lock()
                .expect("no holder panics")
                .insert(source);
        }
        self.inner.call_with(source, request, opts)
    }
}

/// A source on a real socket that serves what `SourceServer` serves, frame
/// for frame, except that it hangs up on a fetch of cells — then and every
/// time the pool comes back with it.
fn spawn_dead_for_fetches(source: DataSource) -> (SourceId, String) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let endpoint = (
        source.id,
        listener.local_addr().expect("local addr").to_string(),
    );
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let source = source.clone();
            std::thread::spawn(move || {
                while let Ok(frame) = read_frame(&mut stream) {
                    if matches!(frame.message, Message::CellsQuery { .. }) {
                        return;
                    }
                    let served = source.serve_readonly(&frame.message);
                    let mut served = if frame.want_stats {
                        served
                    } else {
                        ServedReply {
                            phases: served.phases,
                            ..ServedReply::plain(served.message)
                        }
                    };
                    served.trace_id = frame.trace.map(|t| t.trace_id);
                    served.correlation_id = frame.correlation_id;
                    if write_frame(&mut stream, &served, false).is_err() {
                        return;
                    }
                }
            });
        }
    });
    endpoint
}

/// Scenario 1c — a fleet member answers the CJSP query and is gone when the
/// center comes back for the cells of a candidate it only named.  Fail-fast
/// returns the fetch's error; a degraded run reports the member once, leaves
/// out what it only named and aggregates the rest — the replies of the first
/// wave, its own included — identically on both deployments.
#[test]
fn source_dead_for_the_fetch_degrades_identically_in_process_and_pooled() {
    // Five sources of longer routes than `build_data`'s: picks chain away
    // from the query, so some travel as stubs and one of them stalls.
    let config = GeneratorConfig {
        scale: SourceScale::Custom(400),
        seed: 77,
        max_points_per_dataset: Some(100),
    };
    let data: Vec<(String, Vec<SpatialDataset>)> = paper_sources()
        .iter()
        .map(|p| (p.name.to_string(), generate_source(p, &config)))
        .collect();
    let fw = framework(&data);
    let queries: Vec<SpatialDataset> = data
        .iter()
        .flat_map(|(_, d)| d.iter().take(2).cloned())
        .collect();
    let request = SearchRequest::cjsp_batch(queries).k(3);

    // Whoever the healthy fleet fetches from first is the member to lose.
    let log = FetchLog {
        inner: InProcessTransport::new(fw.sources()),
        fetched_from: Mutex::new(BTreeSet::new()),
    };
    let healthy = QueryEngine::new(fw.center(), &log, engine_config(&fw))
        .run(&request)
        .expect("healthy run");
    let fetched_from = log.fetched_from.into_inner().expect("no holder panics");
    let dead = *fetched_from
        .first()
        .expect("the fixture must stall on a stub");

    let mut servers: Vec<SourceServer> = Vec::new();
    let mut endpoints: Vec<(SourceId, String)> = Vec::new();
    for source in fw.sources() {
        if source.id == dead {
            endpoints.push(spawn_dead_for_fetches(source.clone()));
        } else {
            let server = SourceServer::spawn("127.0.0.1:0", source.clone()).expect("bind loopback");
            endpoints.push(server.endpoint());
            servers.push(server);
        }
    }
    let pooled = PooledTcpTransport::with_config(
        endpoints,
        PoolConfig {
            connect_timeout: Duration::from_millis(500),
            retries: 1,
            retry_backoff: Duration::from_millis(5),
            ..PoolConfig::default()
        },
    )
    .expect("pooled transport");
    // Summary polls are no fetch: the member bootstraps like the others.
    let center =
        DataCenter::from_transport(&pooled, fw.config().leaf_capacity).expect("summary poll");
    let remote_engine = QueryEngine::new(&center, &pooled, engine_config(&fw));
    let faulty = InjectedFault {
        fetches_only: true,
        ..refuse_one(&fw, dead)
    };
    let local_engine = QueryEngine::new(fw.center(), &faulty, engine_config(&fw));

    assert_degradation_parity(&local_engine, &remote_engine, &request, dead);
    assert_eq!(
        local_engine.run(&request).unwrap_err(),
        SearchError::Transport(faulty.error.clone())
    );
    // The member's first-wave reply was received and counts; only its
    // fetches are missing from the degraded run.
    let degraded = local_engine
        .run(&request.clone().skip_failed_sources(true))
        .expect("degraded run");
    assert_eq!(
        degraded.comm.sources_contacted,
        healthy.comm.sources_contacted
    );
    assert!(degraded.per_source.iter().any(|t| t.source == dead));
    assert!(degraded.comm.requests < healthy.comm.requests);
}

/// Accepts connections and reads forever without ever writing a reply — a
/// stalled source, as seen from the wire.
fn spawn_black_hole() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind black hole");
    let addr = listener.local_addr().expect("local addr").to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            std::thread::spawn(move || {
                let mut sink = [0u8; 4096];
                while let Ok(n) = std::io::Read::read(&mut stream, &mut sink) {
                    if n == 0 {
                        return;
                    }
                }
            });
        }
    });
    addr
}

/// Scenario 2 — a fleet member stalls mid-batch: it accepts the shard and
/// never answers.  The pooled transport trips its per-call deadline and
/// types it [`TransportError::Timeout`] (no retry — the request may still
/// be executing remotely); the batch completes from the survivors,
/// identically to the in-process oracle injecting the same timeout.
#[test]
fn stalled_source_times_out_and_degrades_identically() {
    let data = build_data(29);
    let fw = framework(&data);
    let queries = probe_queries(&data);
    let stalled: SourceId = 2;

    // Two live servers and one black hole in the stalled member's place.
    let mut endpoints: Vec<(SourceId, String)> = Vec::new();
    let mut servers: Vec<SourceServer> = Vec::new();
    for s in fw.sources().iter().take(stalled as usize) {
        let server = SourceServer::spawn("127.0.0.1:0", s.clone()).expect("bind loopback");
        endpoints.push(server.endpoint());
        servers.push(server);
    }
    endpoints.push((stalled, spawn_black_hole()));

    let pooled = PooledTcpTransport::with_config(
        endpoints,
        PoolConfig {
            request_timeout: Duration::from_millis(300),
            connect_timeout: Duration::from_millis(500),
            retries: 0,
            ..PoolConfig::default()
        },
    )
    .expect("pooled transport");
    // The stalled source cannot answer a summary poll, so both deployments
    // route from the locally built global image.
    let center = DataCenter::from_global(fw.center().global().clone());
    let remote_engine = QueryEngine::new(&center, &pooled, engine_config(&fw));

    let faulty = InjectedFault {
        inner: InProcessTransport::new(fw.sources()),
        dead: stalled,
        fetches_only: false,
        error: TransportError::Timeout {
            source: stalled,
            waited: Duration::from_millis(300),
        },
    };
    let local_engine = QueryEngine::new(&center, &faulty, engine_config(&fw));

    for request in broadcast_requests(&queries) {
        assert_degradation_parity(&local_engine, &remote_engine, &request, stalled);
    }

    // The wire-level failure is specifically a deadline trip, and the pool
    // counted it.
    let degraded = SearchRequest::ojsp_batch(queries.clone())
        .k(5)
        .strategy(DistributionStrategy::Broadcast)
        .skip_failed_sources(true);
    let response = remote_engine.run(&degraded).expect("degraded run");
    assert!(
        matches!(
            response.failures[0].error,
            SearchError::Transport(TransportError::Timeout { source, .. }) if source == stalled
        ),
        "stall must be typed as a timeout, got {:?}",
        response.failures[0].error
    );
    assert!(
        pooled.metrics().timeouts.get() >= 1,
        "the pool must count deadline trips"
    );
}
