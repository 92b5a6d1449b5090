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
use std::net::{TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

use multisource::transport::{read_frame, write_frame, MAX_FRAME_BYTES};
use multisource::{
    DataCenter, DataSource, DistributionStrategy, Message, MultiSourceFramework, QueryEngine,
    SearchError, SearchRequest, SearchResponse, SourceServer, SourceTransport, TransportError,
};
use net::{PoolConfig, PooledTcpTransport};
use spatial::{SourceId, SpatialDataset};

mod common;
use common::{
    assert_same_response, build_data, every_kind, fetching_cjsp, framework, probe_queries,
    serve_in_threads, with_dead_source, Intercepted,
};

/// Three generated sources, small.
const DATA: (u32, usize, usize) = (400, 60, 3);

/// The pooled transport over `endpoints`, quick to give up on a refused
/// connection: one retry after 5 ms.
fn fast_failing(endpoints: impl IntoIterator<Item = (SourceId, String)>) -> PooledTcpTransport {
    let config = PoolConfig {
        connect_timeout: Duration::from_millis(500),
        retries: 1,
        retry_backoff: Duration::from_millis(5),
        ..PoolConfig::default()
    };
    PooledTcpTransport::with_config(endpoints, config).expect("pooled transport")
}

/// The three search kinds, all broadcast so the faulty source is
/// demonstrably contacted by every batch.
fn broadcast_requests(queries: &[SpatialDataset]) -> [SearchRequest; 3] {
    every_kind(queries).map(|r| r.strategy(DistributionStrategy::Broadcast))
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
    assert_same_response(&local, &remote, "degraded run, completed shards");
}

/// A real-socket deployment with one member killed: three live servers,
/// bootstrapped while healthy, then `dead` drained away — its connections
/// are gone and new ones are refused.  The surviving servers are returned so
/// they outlive the batches.
fn kill_one(
    fw: &MultiSourceFramework,
    dead: SourceId,
) -> (Vec<SourceServer>, PooledTcpTransport, DataCenter) {
    let mut servers = serve_in_threads(fw.sources());
    let pooled = fast_failing(servers.iter().map(SourceServer::endpoint));
    let center =
        DataCenter::from_transport(&pooled, fw.config().leaf_capacity).expect("summary poll");
    servers.remove(dead as usize).shutdown();
    (servers, pooled, center)
}

/// The class of error the pool types a refused connection as: what the
/// in-process oracle of [`kill_one`] — the same member dead at the transport
/// seam — fails with.
fn refused() -> TransportError {
    TransportError::Io("connection refused (injected)".to_string())
}

/// Holds `pooled`, over which member `dead` is gone — or, with
/// `fetches_only`, gone for fetches — to its in-process oracle on
/// `fw.center()`: the degradation contract, and fail-fast with [`refused`]
/// in process.  Returns the oracle's degraded response.
fn degrades_like_the_oracle(
    fw: &MultiSourceFramework,
    (pooled, center): (&PooledTcpTransport, &DataCenter),
    dead: SourceId,
    fetches_only: bool,
    request: &SearchRequest,
) -> SearchResponse {
    let remote_engine = QueryEngine::new(center, pooled, *fw.engine().config());
    let faulty = with_dead_source(fw.sources(), dead, fetches_only, refused());
    let local_engine = QueryEngine::new(fw.center(), &faulty, *fw.engine().config());
    assert_degradation_parity(&local_engine, &remote_engine, request, dead);
    assert_eq!(
        local_engine.run(request).unwrap_err(),
        SearchError::Transport(refused())
    );
    let degraded = request.clone().skip_failed_sources(true);
    local_engine.run(&degraded).expect("degraded run")
}

/// Scenario 1 — a fleet member is killed between bootstrap and the batch.
/// The pooled transport types that as I/O failure (retries spent), the
/// in-process oracle injects the same class of error, and both deployments
/// degrade identically — whichever member it is, the first of the fleet
/// included.
#[test]
fn killed_source_degrades_identically_in_process_and_pooled() {
    let data = build_data(DATA, 91);
    let fw = framework(&data);
    let queries = probe_queries(&data);

    for dead in [1, 0] {
        let (_servers, pooled, center) = kill_one(&fw, dead);
        let remote_engine = QueryEngine::new(&center, &pooled, *fw.engine().config());
        let faulty = with_dead_source(fw.sources(), dead, false, refused());
        let local_center = DataCenter::from_global(fw.center().global().clone());
        let local_engine = QueryEngine::new(&local_center, &faulty, *fw.engine().config());

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
    let data = build_data(DATA, 91);
    let fw = framework(&data);
    let dead: SourceId = 0;
    // Queries drawn from the dead source's own datasets: its lower bound is
    // 0 and its id the smallest, so it is every query's first wave.
    let queries: Vec<SpatialDataset> = data[0].1.iter().take(4).cloned().collect();
    let request = SearchRequest::knn_batch(queries.clone()).k(4);

    let (_servers, pooled, center) = kill_one(&fw, dead);
    let degraded = degrades_like_the_oracle(&fw, (&pooled, &center), dead, false, &request);
    let survivors = &fw.sources()[1..];
    assert_eq!(degraded.comm.requests, survivors.len() * queries.len());
    let oracle = QueryEngine::in_process(fw.center(), survivors, *fw.engine().config())
        .run(&request.strategy(DistributionStrategy::Broadcast))
        .expect("survivors alone");
    assert_eq!(degraded.results, oracle.results);
    assert_eq!(degraded.comm.total_bytes(), oracle.comm.total_bytes());
}

/// A source on a real socket that serves what `SourceServer` serves, frame
/// for frame, except that it hangs up on a fetch of cells — then and every
/// time the pool comes back with it.
fn spawn_dead_for_fetches(source: DataSource) -> (SourceId, String) {
    let id = source.id;
    let addr = spawn_listener(move |mut stream| {
        while let Ok(frame) = read_frame(&mut stream) {
            if matches!(frame.message, Message::CellsQuery { .. }) {
                return;
            }
            let served = source
                .serve_readonly(&frame.message)
                .as_asked(frame.want_stats, frame.correlation_id);
            if write_frame(&mut stream, &served, false).is_err() {
                return;
            }
        }
    });
    (id, addr)
}

/// Scenario 1c — a fleet member answers the CJSP query and is gone when the
/// center comes back for the cells of a candidate it only named.  Fail-fast
/// returns the fetch's error; a degraded run reports the member once, leaves
/// out what it only named and aggregates the rest — the replies of the first
/// wave, its own included — identically on both deployments.
#[test]
fn source_dead_for_the_fetch_degrades_identically_in_process_and_pooled() {
    // Five sources of longer routes than `DATA`'s: picks chain away from the
    // query, so some travel as stubs and one of them stalls.
    let (data, request) = fetching_cjsp();
    let fw = framework(&data);

    // Whoever the healthy fleet fetches from first is the member to lose.
    let fetched_from = Mutex::new(BTreeSet::new());
    let log = Intercepted::refusing(fw.sources(), |source, request| {
        if matches!(request, Message::CellsQuery { .. }) {
            fetched_from
                .lock()
                .expect("no holder panics")
                .insert(source);
        }
        None
    });
    let healthy = QueryEngine::new(fw.center(), &log, *fw.engine().config())
        .run(&request)
        .expect("healthy run");
    let dead = *fetched_from
        .lock()
        .expect("no holder panics")
        .first()
        .expect("the fixture must stall on a stub");

    let servers = serve_in_threads(fw.sources().iter().filter(|s| s.id != dead));
    let dead_for_fetches = spawn_dead_for_fetches(fw.sources()[usize::from(dead)].clone());
    let pooled = fast_failing(
        servers
            .iter()
            .map(SourceServer::endpoint)
            .chain([dead_for_fetches]),
    );
    // Summary polls are no fetch: the member bootstraps like the others.
    let center =
        DataCenter::from_transport(&pooled, fw.config().leaf_capacity).expect("summary poll");
    let degraded = degrades_like_the_oracle(&fw, (&pooled, &center), dead, true, &request);
    // The member's first-wave reply was received and counts; only its
    // fetches are missing from the degraded run.
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
    spawn_listener(|mut stream| {
        let mut sink = [0u8; 4096];
        while let Ok(n) = std::io::Read::read(&mut stream, &mut sink) {
            if n == 0 {
                return;
            }
        }
    })
}

/// Binds a loopback port and hands every connection to it, on a thread of
/// its own, to `serve`.
fn spawn_listener(serve: impl Fn(TcpStream) + Clone + Send + 'static) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let serve = serve.clone();
            std::thread::spawn(move || serve(stream));
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
    let data = build_data(DATA, 29);
    let fw = framework(&data);
    let queries = probe_queries(&data);
    let stalled: SourceId = 2;

    // Two live servers and one black hole in the stalled member's place.
    let servers = serve_in_threads(fw.sources().iter().take(stalled as usize));
    let endpoints =
        (servers.iter().map(SourceServer::endpoint)).chain([(stalled, spawn_black_hole())]);

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
    let remote_engine = QueryEngine::new(&center, &pooled, *fw.engine().config());

    let timeout = TransportError::Timeout {
        source: stalled,
        waited: Duration::from_millis(300),
    };
    let faulty = with_dead_source(fw.sources(), stalled, false, timeout);
    let local_engine = QueryEngine::new(&center, &faulty, *fw.engine().config());

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

/// A source answering every request with one corrupt reply frame fails the
/// call with a typed error — the pool's frame reader refuses the bytes and
/// drops the connection — well within the request timeout, and a healthy
/// source on the same pooled transport still answers.
#[test]
fn corrupt_reply_frames_fail_the_call_typed_and_spare_a_healthy_source() {
    let data = build_data(DATA, 31);
    let fw = framework(&data);
    let healthy = &fw.sources()[0];
    let servers = serve_in_threads([healthy]);
    // One reply per hostile source, 1 to 5, and how the pool reports it.
    // The last one is cut short: its source closes the connection after it.
    let oversized = (MAX_FRAME_BYTES as u32 + 1).to_be_bytes();
    let replies: [(&[u8], &str); 5] = [
        (&[0, 0, 0, 0], "corrupt frame length"),
        (&oversized, "corrupt frame length"),
        (&[0, 0, 0, 3, 0x80, 1, 13], "frame flags"),
        (&[0, 0, 0, 3, 0, 1, 42], "unknown message tag 42"),
        (&[0, 0, 0, 100, 0, 1, 13, 0, 0], "connection closed"),
    ];
    let hostile: Vec<_> = (1..)
        .zip(replies)
        .map(|(id, (reply, _))| {
            let (reply, cut) = (reply.to_vec(), id == 5);
            let serve = move |mut stream: TcpStream| {
                while read_frame(&mut stream).is_ok() {
                    if std::io::Write::write_all(&mut stream, &reply).is_err() || cut {
                        return;
                    }
                }
            };
            (id, spawn_listener(serve))
        })
        .collect();
    let request_timeout = Duration::from_millis(500);
    let pooled = PooledTcpTransport::with_config(
        servers.iter().map(SourceServer::endpoint).chain(hostile),
        PoolConfig {
            request_timeout,
            connect_timeout: Duration::from_millis(500),
            retries: 1,
            retry_backoff: Duration::from_millis(5),
            ..PoolConfig::default()
        },
    )
    .expect("pooled transport");

    let poll = Message::summary_poll();
    for (id, (_, why)) in (1..).zip(replies) {
        let started = std::time::Instant::now();
        let outcome = pooled.call(id, &poll, false);
        assert!(
            started.elapsed() < request_timeout + Duration::from_secs(1),
            "source {id}"
        );
        let detail = match outcome {
            Err(TransportError::RetriesExhausted { last, .. }) => last.to_string(),
            other => panic!("source {id}: {other:?}"),
        };
        assert!(detail.contains(why), "source {id}: {detail}");
    }
    let reply = pooled
        .call(0, &poll, false)
        .expect("the healthy source answers");
    assert_eq!(reply.message, healthy.serve_readonly(&poll).message);
}
