//! Transport-parity and wire-robustness integration tests.
//!
//! * Fuzz-style proptests feed truncated / bit-flipped `Message::encode`
//!   output through `Message::decode`, asserting it never panics and always
//!   reports a typed [`WireError`] for malformed input.
//! * A loopback TCP federation ([`SourceServer`] threads, real sockets, the
//!   framed protocol, reached through [`PooledTcpTransport`]) must answer
//!   every OJSP / CJSP / kNN `SearchRequest` **byte-identically** to the
//!   in-process transport — same answers, same `CommStats`, same
//!   `SearchStats` — and apply maintenance batches with the same
//!   transactional semantics.
//! * The `source-server` *binary* is spawned as real child processes and
//!   served the same checks end to end.
//! * Observability crosses the wire without perturbing it: a request records
//!   the same exchanges (wave, query, source, bytes, search statistics) on
//!   every transport, and a reply carries its source's service time and
//!   phase split exactly when asked.
//! * A frame a server cannot read, such as one with a retired message tag,
//!   costs the sender its connection and nothing else.

use std::io::Write as _;
use std::time::Duration;

use bytes::Bytes;
use multisource::message::{
    MESSAGE_TAGS, TAG_APPLY_UPDATES, TAG_CELLS_QUERY, TAG_COVERAGE_QUERY, TAG_COVERAGE_REPLY,
    TAG_ERROR, TAG_KNN_QUERY, TAG_KNN_REPLY, TAG_OVERLAP_QUERY, TAG_OVERLAP_REPLY,
    TAG_SUMMARY_REFRESH,
};
use multisource::{
    BatchError, CellOp, DataCenter, DistributionStrategy, ExclusiveTransport, InProcessTransport,
    Message, MultiSourceFramework, QueryEngine, SearchError, SearchRequest, SourceServer,
    SourceTransport, TransportError, UpdateOp, WireError,
};
use net::PooledTcpTransport;
use proptest::prelude::*;
use spatial::{Point, SpatialDataset};

mod common;
use common::{
    assert_same_response, build_data, every_kind, fetching_cjsp, framework, probe_queries,
    serve_in_threads, spawn_fleet, spawn_servers, timing_free,
};

/// Three generated sources.
const DATA: (u32, usize, usize) = (500, 80, 3);

/// One `SourceServer` thread per in-process source, the pooled TCP transport
/// reaching them, and a center bootstrapped over it.
fn spawn_federation(fw: &MultiSourceFramework) -> (PooledTcpTransport, DataCenter) {
    let servers = serve_in_threads(fw.sources());
    let pooled = PooledTcpTransport::new(servers.iter().map(SourceServer::endpoint));
    let pooled = pooled.expect("pooled transport");
    let center = DataCenter::from_transport(&pooled, fw.config().leaf_capacity);
    (pooled, center.expect("summary poll"))
}

/// The core parity assertion: every search kind, identical answers, comm
/// bytes and search stats across the in-process framework and `tcp`.
fn assert_transport_parity(
    fw: &MultiSourceFramework,
    tcp: &dyn SourceTransport,
    queries: &[SpatialDataset],
) {
    let remote_center =
        DataCenter::from_transport(tcp, fw.config().leaf_capacity).expect("summary poll");
    assert_eq!(
        remote_center.global().summaries(),
        fw.center().global().summaries(),
        "a DITS-G bootstrapped over TCP must equal the in-process one"
    );
    for source in tcp.source_ids() {
        let sketch = fw.center().sketch(source);
        assert!(sketch.is_some(), "source {source} holds no sketch");
        assert_eq!(remote_center.sketch(source), sketch, "source {source}");
    }
    let remote = QueryEngine::new(&remote_center, tcp, *fw.engine().config());

    let broadcast = [
        SearchRequest::ojsp_batch(queries.to_vec()).k(5),
        SearchRequest::knn_batch(queries.to_vec()).k(2),
    ];
    let broadcast = broadcast.map(|r| r.strategy(DistributionStrategy::Broadcast));
    for request in every_kind(queries).into_iter().chain(broadcast) {
        let local = fw.search(&request).expect("in-process search");
        let over_tcp = remote.run(&request).expect("TCP search");
        let what = format!("{:?} across transports", request.kind());
        assert_same_response(&local, &over_tcp, &what);
    }
}

/// CJSP's follow-up waves cross the socket unchanged: on a federation whose
/// picks chain away from the query the center comes back for cells
/// (`CellsQuery`, more requests than contacts), and answers, byte counts and
/// statistics are those of the in-process run.  A δ that is not a distance
/// is refused alike on both, before anything is planned.
#[test]
fn cjsp_fetches_cross_the_socket_unchanged() {
    let (data, request) = fetching_cjsp();
    let fw = framework(&data);
    let (pooled, center) = spawn_federation(&fw);
    let remote = QueryEngine::new(&center, &pooled, *fw.engine().config());

    let local = fw.search(&request).expect("in-process search");
    let over_tcp = remote.run(&request).expect("TCP search");
    assert!(
        local.comm.requests > local.comm.sources_contacted,
        "the fixture must fetch cells"
    );
    assert_same_response(&local, &over_tcp, "CJSP with fetches");

    let bad = request.delta_cells(f64::NAN);
    for refused in [fw.search(&bad), remote.run(&bad)] {
        assert!(
            matches!(
                refused,
                Err(SearchError::Config(multisource::ConfigError::Delta(d))) if d.is_nan()
            ),
            "{refused:?}"
        );
    }
}

/// The pooled, pipelined transport must be indistinguishable from the
/// in-process one: the correlation id rides the frame, not the message, so
/// answers, `CommStats` and `SearchStats` stay byte-identical even though
/// the wire traffic is multiplexed over shared connections.
#[test]
fn pooled_tcp_federation_matches_in_process() {
    let data = build_data(DATA, 21);
    let fw = framework(&data);
    let queries = probe_queries(&data);
    let (pooled, _) = spawn_federation(&fw);
    assert_transport_parity(&fw, &pooled, &queries);
}

/// The verification-side fast paths (bounded kNN cutoffs, cached per-dataset
/// verify state) must be invisible at every level of the stack: the
/// production bounded kernel answers exactly as the brute force over
/// cache-free copies of every source's datasets does, ids included, and
/// repeated kNN requests over a real socket (cold caches on the first run,
/// warm on the second) return identical responses to the in-process engine.
#[test]
fn bounded_knn_matches_bruteforce_across_transports() {
    use dits::knn::nearest_datasets_bruteforce;
    use dits::{nearest_datasets, DatasetNode};
    use spatial::CellSet;

    let data = build_data(DATA, 47);
    let fw = framework(&data);
    let queries = probe_queries(&data);

    // Source-level oracle parity: the bounded kernel (threaded k-th-best
    // cutoff, packed blocks and cached boundary tiles) vs the brute-force oracle.
    for source in fw.sources() {
        let fresh: Vec<DatasetNode> = source
            .index()
            .dataset_nodes()
            .iter()
            .filter_map(|d| DatasetNode::from_cell_set(d.id, CellSet::from_cells(d.cells.iter())))
            .collect();
        assert_eq!(fresh.len(), source.dataset_count());
        for q in &queries {
            let cells = source.grid_query(q);
            if cells.is_empty() {
                continue;
            }
            for k in [1, 3, 7] {
                assert_eq!(
                    nearest_datasets(source.index(), &cells, k).0,
                    nearest_datasets_bruteforce(&fresh, &cells, k),
                    "bounded kNN diverged from the brute force (source {}, k {k})",
                    source.id
                );
            }
        }
    }

    // Cross-transport parity of the same kernels, cold and warm: the first
    // TCP run builds the per-node caches on the servers, the second reuses
    // them — both must equal the in-process answer bit for bit.
    let (tcp, center) = spawn_federation(&fw);
    let remote = QueryEngine::new(&center, &tcp, *fw.engine().config());
    for k in [2, 4] {
        let request = SearchRequest::knn_batch(queries.to_vec()).k(k);
        let local = fw.search(&request).expect("in-process kNN");
        let cold = remote.run(&request).expect("TCP kNN (cold caches)");
        let warm = remote.run(&request).expect("TCP kNN (warm caches)");
        for over_tcp in [&cold, &warm] {
            assert_same_response(&local, over_tcp, &format!("kNN, k {k}"));
        }
    }
}

/// A summary registered in DITS-G whose source the transport cannot reach
/// (a fleet member that left after the global image was persisted) is
/// skipped during routing — the batch answers from the remaining sources
/// instead of failing wholesale with `UnknownSource`.
#[test]
fn unreachable_sources_are_skipped_not_fatal() {
    let data = build_data(DATA, 21);
    let fw = framework(&data);
    let queries = probe_queries(&data);
    // A center that knows every source, over a transport that lost one.
    let center = DataCenter::from_global(fw.center().global().clone());
    let partial: Vec<multisource::DataSource> = fw.sources()[..2].to_vec();
    let transport = InProcessTransport::new(&partial);
    let engine = QueryEngine::new(&center, &transport, *fw.engine().config());
    for request in every_kind(&queries) {
        let response = engine.run(&request).expect("partial fleet still answers");
        assert_eq!(response.results.len(), queries.len());
        // Nothing was routed to the missing source.
        assert!(response.shards.iter().all(|s| s.source < 2));
    }
}

#[test]
fn maintenance_over_tcp_matches_in_process() {
    let data = build_data(DATA, 8);
    let mut fw = framework(&data);
    let queries = probe_queries(&data);

    // Remote deployment: servers seeded with the same initial sources.
    let (tcp, mut remote_center) = spawn_federation(&fw);

    // The same mixed batch applied through both transports.
    let fresh = SpatialDataset::new(
        800_000,
        (0..8)
            .map(|j| Point::new(-76.5 + j as f64 * 0.01, 39.0))
            .collect(),
    );
    let victim = data[1].1[0].id;
    let ops = vec![
        UpdateOp::Insert(fresh.clone()),
        UpdateOp::Delete(victim),
        UpdateOp::Delete(900_000), // individually rejected: unknown id
    ];
    let local_outcome = fw.apply_updates(1, &ops).unwrap();
    let remote_outcome = remote_center.apply_updates(&tcp, 1, &ops).unwrap();
    assert_eq!(local_outcome.summary, remote_outcome.summary);
    assert_eq!(local_outcome.stats, remote_outcome.stats);
    assert_eq!(local_outcome.comm, remote_outcome.comm);
    assert_eq!(
        remote_center.global().summaries(),
        fw.center().global().summaries(),
        "DITS-G must track the remote mutation identically"
    );

    // Post-maintenance queries still agree transport to transport.
    let remote = QueryEngine::new(&remote_center, &tcp, *fw.engine().config());
    let request = SearchRequest::ojsp_batch(queries).k(5);
    let local = fw.search(&request).unwrap();
    let over_tcp = remote.run(&request).unwrap();
    assert_eq!(local.results, over_tcp.results);
    assert_eq!(local.comm, over_tcp.comm);

    // A structurally invalid batch is rejected transactionally over TCP,
    // exactly like in-process: typed error, nothing mutated.
    let before = remote_center.global().summaries();
    let bad = vec![
        UpdateOp::Insert(SpatialDataset::new(810_000, vec![Point::new(1.0, 1.0)])),
        UpdateOp::Insert(SpatialDataset::new(810_001, vec![])),
    ];
    let local_err = fw.apply_updates(1, &bad).unwrap_err();
    let remote_err = remote_center.apply_updates(&tcp, 1, &bad).unwrap_err();
    assert!(matches!(local_err, SearchError::Rejected { .. }));
    assert_eq!(
        local_err, remote_err,
        "rejections must cross the wire losslessly"
    );
    assert_eq!(remote_center.global().summaries(), before);

    // An unroutable source is the same typed error on both transports.
    assert_eq!(
        remote_center
            .apply_updates(&tcp, 77, &[UpdateOp::Delete(1)])
            .unwrap_err(),
        SearchError::UnknownSource(77)
    );
}

/// A batch a source must refuse — gridded at another resolution, holding a
/// cell beyond the grid, or carrying an empty cell set — is refused with the
/// same typed `Error` message in process and over the pooled transport, and
/// nothing of it (not the valid leading delete) is applied anywhere.
#[test]
fn unfit_cell_batches_are_rejected_identically_on_every_transport() {
    let data = build_data(DATA, 8);
    let fw = framework(&data);
    let mut local_sources = fw.sources().to_vec();
    let victim = data[1].1[0].id;
    let theta = fw.config().resolution;
    let beyond = fw.sources()[1].grid().cell_count();
    let indexes = |sources: &[multisource::DataSource]| -> Vec<dits::DitsLocal> {
        sources.iter().map(|s| s.index().clone()).collect()
    };
    let untouched = indexes(fw.sources());

    let servers = serve_in_threads(fw.sources());
    let pooled = PooledTcpTransport::new(servers.iter().map(SourceServer::endpoint))
        .expect("pooled transport");
    let poll = || {
        pooled
            .call(1, &Message::summary_poll(), false)
            .expect("poll")
    };
    let before = poll();

    let cells = |ids: &[u64]| spatial::CellSet::from_cells(ids.iter().copied());
    for (resolution, op, reason) in [
        (
            theta + 1,
            CellOp::Insert {
                dataset: 820_000,
                cells: cells(&[1, 2]),
            },
            BatchError::ResolutionMismatch {
                batch: theta + 1,
                source: theta,
            },
        ),
        (
            theta,
            CellOp::Insert {
                dataset: 820_001,
                cells: cells(&[1, beyond + 7]),
            },
            BatchError::CellOutOfGrid {
                dataset: 820_001,
                cell: beyond + 7,
                resolution: theta,
            },
        ),
        (
            theta,
            CellOp::Update {
                dataset: victim,
                cells: cells(&[]),
            },
            BatchError::EmptyDataset,
        ),
    ] {
        let request = Message::ApplyUpdates {
            resolution,
            ops: vec![CellOp::Delete(victim), op],
        };
        let expected = Message::Error {
            code: multisource::message::ERR_REJECTED_BATCH,
            detail: reason.to_string(),
        };
        let in_process = ExclusiveTransport::new(&mut local_sources)
            .call(1, &request, true)
            .expect("in-process call");
        let over_pool = pooled.call(1, &request, true).expect("pooled TCP");
        for reply in [&in_process, &over_pool] {
            assert_eq!(reply.message, expected);
            assert_eq!(reply.maintenance, None);
            assert_eq!(reply.request_bytes, request.wire_size());
            assert_eq!(reply.reply_bytes, expected.wire_size());
        }
    }

    // Nothing was applied on either side of the sockets: the local trees
    // are node for node what they were, and the server still counts the
    // dataset the leading delete named.
    assert!(indexes(&local_sources) == untouched);
    assert_eq!(poll(), before);
    drop(pooled);
    for server in servers {
        server.shutdown();
    }
}

/// What the maintenance exchange is for: a dataset's cells are a fraction of
/// its points.  A 1 000-point insert must encode in under an eighth of the
/// 16 B per point the raw coordinates alone would take.
#[test]
fn a_thousand_point_insert_travels_as_cells() {
    let dataset = build_data((60, 1_000, 5), 3)
        .into_iter()
        .flat_map(|(_, datasets)| datasets)
        .find(|d| d.points.len() == 1_000)
        .expect("the generator caps some dataset at 1 000 points");
    let grid = spatial::Grid::global(12).unwrap();
    let request = Message::ApplyUpdates {
        resolution: 12,
        ops: vec![UpdateOp::Insert(dataset).grid(&grid).unwrap()],
    };
    let bytes = request.wire_size();
    assert!(
        bytes < 1_000 * 16 / 8,
        "a 1 000-point insert took {bytes} B on the wire"
    );
}

/// The pooled transport against spawned `source-server` child processes —
/// the fully federated deployment — still answers byte-identically.
#[test]
fn pooled_transport_over_server_processes_matches_in_process() {
    let data = build_data(DATA, 33);
    let fw = framework(&data);
    let queries = probe_queries(&data);
    let fleet = spawn_fleet(data.iter().map(|(_, d)| (11, d.as_slice())));
    assert_transport_parity(&fw, &fleet.pooled, &queries);
}

/// A [`SourceServer`] drains on shutdown: the call returns once in-flight
/// work is finished and open connections are closed, after which the
/// endpoint is gone.
#[test]
fn source_server_shutdown_drains_open_connections() {
    let data = build_data(DATA, 61);
    let fw = framework(&data);
    let server = SourceServer::spawn("127.0.0.1:0", fw.sources()[0].clone()).expect("bind");
    let source_id = server.id();
    let tcp = PooledTcpTransport::new([server.endpoint()]).expect("pooled transport");
    // Serve one request so the transport holds an open, idle connection
    // through the shutdown.
    let reply = tcp
        .call(source_id, &Message::summary_poll(), false)
        .expect("request before shutdown");
    assert!(matches!(reply.message, Message::SummaryRefresh { .. }));
    assert!(
        tcp.metrics().open_connections.get() >= 1.0,
        "the pool must keep the served connection open"
    );

    // Blocks until drained: the idle connection notices the signal and
    // closes instead of being severed mid-frame.
    server.shutdown();

    // The endpoint no longer serves: the pooled connection is closed and
    // the listener is gone, so every attempt of the retry budget fails at
    // the socket.
    let err = tcp
        .call(source_id, &Message::summary_poll(), false)
        .expect_err("a drained server must not accept further requests");
    assert!(
        matches!(
            &err,
            TransportError::RetriesExhausted { last, .. } if matches!(**last, TransportError::Io(_))
        ),
        "expected the retry budget spent on I/O failures, got {err:?}"
    );
}

/// Hang guard for the blocking accept loop: a server nothing ever
/// connected to drains on shutdown — in process, bound to the loopback or
/// the wildcard address, and as a `source-server` process.
#[test]
fn a_server_that_never_got_a_connection_drains_on_shutdown() {
    let data = build_data(DATA, 83);
    let fw = framework(&data);
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = SourceServer::spawn(addr, fw.sources()[0].clone()).expect("bind");
        let (drained, done) = std::sync::mpsc::channel();
        let shutting = std::thread::spawn(move || {
            server.shutdown();
            let _ = drained.send(());
        });
        done.recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("a SourceServer on {addr} hung in shutdown"));
        shutting.join().expect("the shutdown thread");
    }

    let mut servers = spawn_servers([(11, data[0].1.as_slice())]);
    let server = &mut servers[0];
    server
        .child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(b"SHUTDOWN\n")
        .expect("write shutdown line");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = server.child.try_wait().expect("poll the server") {
            break status;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "a source-server process hung in shutdown"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(status.success(), "drained server must exit cleanly");
    use std::io::BufRead as _;
    let mut line = String::new();
    server
        .stdout
        .read_line(&mut line)
        .expect("read drained line");
    assert_eq!(line.trim(), "DRAINED");
}

/// A retired message tag on a live socket is refused, never served: the
/// server reads a well-formed frame whose message is the single byte 13,
/// closes that connection without a reply, and keeps answering other
/// connections.
#[test]
fn a_retired_tag_costs_its_connection_and_nothing_else() {
    use std::io::Read as _;
    let data = build_data(DATA, 41);
    let fw = framework(&data);
    let server = SourceServer::spawn("127.0.0.1:0", fw.sources()[0].clone()).expect("bind");
    let (source_id, addr) = server.endpoint();

    let mut raw = std::net::TcpStream::connect(&addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    // Length prefix 3, then the flags byte (no blocks), the message length
    // 1 and the message: tag 13 alone.
    raw.write_all(&[0, 0, 0, 3, 0, 1, 13]).expect("send frame");
    let mut reply = Vec::new();
    let read = raw.read_to_end(&mut reply);
    assert!(
        matches!(read, Ok(0)),
        "expected the server to close without a reply, got {read:?} and {reply:?}"
    );

    let pooled = PooledTcpTransport::new([(source_id, addr)]).expect("pooled transport");
    let answered = pooled
        .call(source_id, &Message::summary_poll(), false)
        .expect("the server still serves other connections");
    assert!(matches!(answered.message, Message::SummaryRefresh { .. }));
}

/// The `source-server` binary drains on a `SHUTDOWN` stdin line: it answers
/// what is in flight, prints `DRAINED`, and exits zero — while a server
/// whose stdin merely sits open (or closes without the line) keeps serving.
#[test]
fn source_server_binary_drains_on_shutdown_line() {
    let data = build_data(DATA, 77);
    let mut fleet = spawn_fleet([(11, data[0].1.as_slice())]);
    fleet
        .pooled
        .call(0, &Message::summary_poll(), false)
        .expect("request before shutdown");
    let server = &mut fleet.servers[0];

    server
        .child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(b"SHUTDOWN\n")
        .expect("write shutdown line");

    use std::io::BufRead as _;
    let mut line = String::new();
    server
        .stdout
        .read_line(&mut line)
        .expect("read drained line");
    assert_eq!(line.trim(), "DRAINED");
    let status = server.child.wait().expect("wait for drained server");
    assert!(status.success(), "drained server must exit cleanly");
}

// ---------------------------------------------------------------------------
// Observability across transports
// ---------------------------------------------------------------------------

/// The cross-transport invariance of the records: the in-process
/// deployment, `SourceServer` threads over loopback TCP and spawned
/// `source-server` processes record the same exchanges — wave, query,
/// source, bytes each way, search statistics — for the same request of every
/// kind, and the sources' traversal/verification split, which rides each
/// reply's timing block, survives the real socket.
#[test]
fn shard_records_are_transport_invariant() {
    let data = build_data(DATA, 21);
    let fw = framework(&data);
    let queries = probe_queries(&data);

    let (tcp, tcp_center) = spawn_federation(&fw);
    let fleet = spawn_fleet(data.iter().map(|(_, d)| (11, d.as_slice())));
    let spawned_center =
        DataCenter::from_transport(&fleet.pooled, fw.config().leaf_capacity).expect("summary poll");
    let config = *fw.engine().config();
    let deployments = [
        ("loopback TCP", QueryEngine::new(&tcp_center, &tcp, config)),
        (
            "spawned binary",
            QueryEngine::new(&spawned_center, &fleet.pooled, config),
        ),
    ];
    for request in every_kind(&queries) {
        let local = fw.engine().run(&request).expect("in-process run");
        assert!(!timing_free(&local).is_empty(), "{:?}", request.kind());
        for (deployment, engine) in &deployments {
            let remote = engine.run(&request).expect("remote run");
            let what = format!("{:?} in process against {deployment}", request.kind());
            assert_same_response(&local, &remote, &what);
            let split: Duration = (remote.shards.iter())
                .map(|s| s.phases.traversal + s.phases.verify)
                .sum();
            assert!(
                split > Duration::ZERO,
                "{what}: phase measurements must survive the socket round-trip"
            );
        }
    }
}

/// What a reply carries besides its message is what the call asked for —
/// statistics, service time and the source's phase split only when wanted —
/// and the rule is the same in process and over a socket, for a query and
/// for a summary poll, with and without statistics.
#[test]
fn the_reply_rule_agrees_across_transports() {
    let data = build_data(DATA, 5);
    let fw = framework(&data);
    let source = &fw.sources()[0];
    let server = SourceServer::spawn("127.0.0.1:0", source.clone()).expect("bind loopback");
    let pooled = PooledTcpTransport::new([server.endpoint()]).expect("pooled transport");
    let in_process = InProcessTransport::new(fw.sources());
    let query = Message::OverlapQuery {
        query: source.grid_query(&data[0].1[0]),
        k: 3,
    };
    for (kind, request) in [("query", query), ("poll", Message::summary_poll())] {
        for want_stats in [false, true] {
            let case = format!("{kind}, want_stats {want_stats}");
            let local = in_process
                .call(source.id, &request, want_stats)
                .expect("in-process call");
            let remote = pooled
                .call(source.id, &request, want_stats)
                .expect("pooled call");
            assert_eq!(local.message, remote.message, "{case}");
            assert_eq!(local.request_bytes, remote.request_bytes, "{case}");
            assert_eq!(local.reply_bytes, remote.reply_bytes, "{case}");
            assert_eq!(local.search, remote.search, "{case}");
            assert_eq!(local.maintenance, remote.maintenance, "{case}");
            for reply in [&local, &remote] {
                assert_eq!(reply.service.is_some(), want_stats, "{case}");
                // The overlap query runs a real search, so its source
                // observes a nonzero traversal+verification split; a poll
                // searches nothing.
                let split = reply.phases.traversal + reply.phases.verify;
                assert_eq!(
                    split > Duration::ZERO,
                    want_stats && kind == "query",
                    "{case}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Wire-robustness fuzzing
// ---------------------------------------------------------------------------

/// Builds one message of the kind `MESSAGE_TAGS[kind]` names from raw fuzz
/// ingredients, so the truncation/bit-flip fuzzers exercise the whole wire
/// surface: a listed tag with no arm here fails them.
fn build_message(
    kind: usize,
    cells: &[u64],
    k: usize,
    delta: f64,
    ids: &[u32],
    code: u16,
) -> Message {
    let query = spatial::CellSet::from_cells(cells.iter().copied());
    match MESSAGE_TAGS[kind] {
        TAG_OVERLAP_QUERY => Message::OverlapQuery { query, k },
        TAG_OVERLAP_REPLY => Message::OverlapReply {
            source: code,
            results: ids
                .iter()
                .map(|&id| dits::OverlapResult {
                    dataset: id,
                    overlap: k,
                })
                .collect(),
        },
        TAG_COVERAGE_QUERY => Message::CoverageQuery { query, k, delta },
        TAG_COVERAGE_REPLY => Message::CoverageReply {
            source: code,
            candidates: ids
                .iter()
                .map(|&id| multisource::CoverageCandidate {
                    source: code,
                    dataset: id,
                    // A candidate travels with its cells or, having none to
                    // show, as a stub of its size.
                    cells: if query.is_empty() {
                        multisource::CandidateCells::Stub(k + 1)
                    } else {
                        multisource::CandidateCells::Inline(query.clone())
                    },
                })
                .collect(),
        },
        TAG_APPLY_UPDATES => Message::ApplyUpdates {
            // No resolution rides an empty batch.
            resolution: if ids.is_empty() { 0 } else { u32::from(code) },
            ops: ids
                .iter()
                .enumerate()
                .map(|(i, &id)| match i % 3 {
                    0 => CellOp::Insert {
                        dataset: id,
                        cells: query.clone(),
                    },
                    1 => CellOp::Update {
                        dataset: id,
                        cells: query.clone(),
                    },
                    _ => CellOp::Delete(id),
                })
                .collect(),
        },
        TAG_SUMMARY_REFRESH => Message::SummaryRefresh {
            summary: dits::SourceSummary {
                source: code,
                geometry: dits::NodeGeometry::from_mbr(spatial::Mbr::new(
                    Point::new(delta - 10.0, delta),
                    Point::new(delta, delta + 1.0),
                )),
                resolution: 100,
            },
            dataset_count: ids.len() as u64,
            applied: k as u64,
            rejected: code as u64,
            blocks: query,
        },
        TAG_KNN_QUERY => Message::KnnQuery { query, k },
        TAG_ERROR => Message::Error {
            code,
            detail: format!("fuzz error {code}"),
        },
        TAG_CELLS_QUERY => Message::CellsQuery {
            datasets: ids.to_vec(),
        },
        TAG_KNN_REPLY => Message::KnnReply {
            source: code,
            neighbors: ids
                .iter()
                .map(|&id| dits::Neighbor {
                    dataset: id,
                    distance: delta,
                })
                .collect(),
        },
        tag => panic!("build_message cannot build a message with tag {tag}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Every prefix truncation decodes to a typed error -- never a panic,
    // never a bogus success.
    #[test]
    fn prop_truncations_fail_closed(
        kind in 0..MESSAGE_TAGS.len(),
        cells in proptest::collection::vec(0u64..1_000_000, 0..60),
        k in 0usize..50,
        delta in 0.0f64..30.0,
        ids in proptest::collection::vec(0u32..10_000, 0..4),
        code in 0u16..100,
    ) {
        let message = build_message(kind, &cells, k, delta, &ids, code);
        let encoded = message.encode();
        prop_assert_eq!(Message::decode(encoded.clone()), Ok(message));
        for cut in 0..encoded.len() {
            let truncated = encoded.slice(0..cut);
            prop_assert!(
                Message::decode(truncated).is_err(),
                "truncation at {} of {} decoded successfully",
                cut,
                encoded.len()
            );
        }
    }

    // Bit flips anywhere in the buffer either decode to *some* message or
    // fail with a typed error -- decode must be total.
    #[test]
    fn prop_bit_flips_never_panic(
        kind in 0..MESSAGE_TAGS.len(),
        cells in proptest::collection::vec(0u64..1_000_000, 0..60),
        k in 0usize..50,
        delta in 0.0f64..30.0,
        ids in proptest::collection::vec(0u32..10_000, 0..4),
        code in 0u16..100,
        byte_sel in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut raw = build_message(kind, &cells, k, delta, &ids, code)
            .encode()
            .to_vec();
        let idx = (byte_sel as usize) % raw.len();
        raw[idx] ^= 1 << bit;
        let _ = Message::decode(Bytes::from(raw));
    }

    // Arbitrary garbage decodes without panicking.
    #[test]
    fn prop_random_bytes_never_panic(raw in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = Message::decode(Bytes::from(raw));
    }
}

#[test]
fn decode_reports_the_right_error_variants() {
    // Bad tag.
    assert_eq!(
        Message::decode(Bytes::from(vec![42u8, 0, 0])),
        Err(WireError::BadTag(42))
    );
    // Truncated mid-field.
    let enc = Message::KnnReply {
        source: 1,
        neighbors: vec![dits::Neighbor {
            dataset: 3,
            distance: 1.5,
        }],
    }
    .encode();
    assert_eq!(
        Message::decode(enc.slice(0..enc.len() - 1)),
        Err(WireError::Truncated("neighbor distance"))
    );
    // Overlong varint.
    let mut raw = vec![6u8]; // KnnQuery tag
    raw.extend(std::iter::repeat_n(0xFF, 11));
    assert_eq!(
        Message::decode(Bytes::from(raw)),
        Err(WireError::BadVarint("k"))
    );
    // Cell-delta overflow.
    let mut raw = vec![0u8]; // OverlapQuery tag
    raw.push(1); // k = 1
    raw.push(2); // two cells
                 // First delta: u64::MAX, second delta: 1 → overflow.
    raw.extend([0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]);
    raw.push(1);
    assert_eq!(
        Message::decode(Bytes::from(raw)),
        Err(WireError::CellOverflow)
    );
}
