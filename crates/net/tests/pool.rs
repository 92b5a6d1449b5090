//! Behavioural tests of the pooled transport: reply correctness under
//! pipelining, typed failure modes (dead source, stalled source,
//! saturation), and the pool's observability counters.
//!
//! Full cross-transport invariance (byte-identical answers, CommStats,
//! SearchStats vs in-process, spawned server binaries) lives in
//! `crates/multisource/tests/transport.rs`, which dev-depends on this
//! crate.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use dits::DitsLocalConfig;
use multisource::message::ERR_UNSUPPORTED;
use multisource::transport::{
    read_frame, write_frame, InProcessTransport, ServedReply, SourceServer, SourceTransport,
};
use multisource::{DataSource, Message, TransportError};
use net::{PoolConfig, PooledTcpTransport};
use spatial::{Grid, Point, SourceId, SpatialDataset};

fn tiny_source(id: SourceId) -> DataSource {
    let grid = Grid::global(10).expect("grid");
    let datasets: Vec<SpatialDataset> = (0..6)
        .map(|i| {
            SpatialDataset::new(
                i,
                (0..5)
                    .map(|j| Point::new(10.0 + i as f64 * 0.2 + j as f64 * 0.02, 50.0))
                    .collect(),
            )
        })
        .collect();
    DataSource::build(
        id,
        format!("s{id}"),
        grid,
        &datasets,
        DitsLocalConfig::default(),
    )
}

fn overlap_query(source: &DataSource, k: usize) -> Message {
    Message::OverlapQuery {
        query: source.grid_query(&SpatialDataset::new(99, vec![Point::new(10.2, 50.0)])),
        k,
    }
}

/// A listener that accepts connections and then never reads or replies —
/// the "stalled source" in timeout and saturation tests.
fn stalled_listener() -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        let mut held = Vec::new();
        for stream in listener.incoming() {
            match stream {
                Ok(s) => held.push(s),
                Err(_) => break,
            }
        }
    });
    addr
}

#[test]
fn pooled_roundtrip_matches_in_process() {
    let sources = vec![tiny_source(0), tiny_source(3)];
    let servers: Vec<SourceServer> = sources
        .iter()
        .map(|s| SourceServer::spawn("127.0.0.1:0", s.clone()).expect("spawn"))
        .collect();
    let pooled = PooledTcpTransport::new(servers.iter().map(|s| s.endpoint())).expect("transport");
    let in_process = InProcessTransport::new(&sources);
    assert_eq!(pooled.source_ids(), vec![0, 3]);

    for id in [0, 3] {
        let source = sources.iter().find(|s| s.id == id).expect("source");
        let query = overlap_query(source, 3);
        let a = pooled.call(id, &query, true).expect("pooled call");
        let b = in_process.call(id, &query, true).expect("in-process call");
        assert_eq!(a.message, b.message);
        assert_eq!(a.request_bytes, b.request_bytes);
        assert_eq!(a.reply_bytes, b.reply_bytes);
        assert_eq!(a.search, b.search);
        assert_eq!(a.maintenance, b.maintenance);
        // The service time and phase split are wall-clock and cannot be
        // equal.
        assert!(a.service.is_some() && b.service.is_some());
    }
    assert_eq!(
        pooled
            .call(9, &overlap_query(&sources[0], 1), false)
            .unwrap_err(),
        TransportError::UnknownSource(9)
    );
    // The exchanges left at least one pooled connection open.
    assert!(pooled.metrics().open_connections.get() >= 1.0);
    assert_eq!(pooled.metrics().timeouts.get(), 0);
}

#[test]
fn pipelined_concurrent_calls_pair_replies_to_requests() {
    let source = tiny_source(0);
    let server = SourceServer::spawn("127.0.0.1:0", source.clone()).expect("spawn");
    let pooled = Arc::new(
        PooledTcpTransport::with_config(
            [server.endpoint()],
            PoolConfig {
                connections_per_source: 2,
                max_in_flight_per_source: 64,
                ..PoolConfig::default()
            },
        )
        .expect("transport"),
    );
    let sources = vec![source];
    let in_process = InProcessTransport::new(&sources);
    // Distinct k per caller: a mismatched correlation would pair a caller
    // with another caller's reply, which carries a different result count.
    let expected: Vec<Message> = (1..=8)
        .map(|k| {
            in_process
                .call(0, &overlap_query(&sources[0], k), false)
                .expect("in-process")
                .message
        })
        .collect();
    let handles: Vec<_> = (1..=8usize)
        .map(|k| {
            let pooled = Arc::clone(&pooled);
            let query = overlap_query(&sources[0], k);
            std::thread::spawn(move || {
                (1..=4)
                    .map(|_| pooled.call(0, &query, false).expect("pooled").message)
                    .collect::<Vec<Message>>()
            })
        })
        .collect();
    for (idx, handle) in handles.into_iter().enumerate() {
        let replies = handle.join().expect("join");
        for reply in replies {
            assert_eq!(
                reply,
                expected[idx],
                "caller k={} got a foreign reply",
                idx + 1
            );
        }
    }
    let open = pooled.metrics().open_connections.get();
    assert!(
        (1.0..=2.0).contains(&open),
        "pool must reuse its 2 connections, saw {open}"
    );
}

#[test]
fn dead_source_fails_fast_with_retries_exhausted() {
    // Bind-then-drop guarantees a port with nothing listening.
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr")
    };
    let pooled = PooledTcpTransport::with_config(
        [(0, addr.to_string())],
        PoolConfig {
            retries: 2,
            retry_backoff: Duration::from_millis(1),
            ..PoolConfig::default()
        },
    )
    .expect("transport");
    let query = Message::summary_poll();
    let started = std::time::Instant::now();
    let err = pooled.call(0, &query, false).expect_err("dead source");
    match err {
        TransportError::RetriesExhausted { attempts, last } => {
            assert_eq!(attempts, 3);
            assert!(matches!(*last, TransportError::Io(_)), "{last:?}");
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    // Refused connections fail fast — nowhere near the 30 s call deadline.
    assert!(started.elapsed() < Duration::from_secs(10));
    assert_eq!(pooled.metrics().retries.get(), 2);
}

#[test]
fn stalled_source_times_out_with_typed_error() {
    let addr = stalled_listener();
    let pooled = PooledTcpTransport::with_config(
        [(5, addr.to_string())],
        PoolConfig {
            request_timeout: Duration::from_millis(200),
            retries: 0,
            ..PoolConfig::default()
        },
    )
    .expect("transport");
    let err = pooled
        .call(5, &Message::summary_poll(), false)
        .expect_err("stalled source");
    match err {
        TransportError::Timeout { source, waited } => {
            assert_eq!(source, 5);
            assert!(waited >= Duration::from_millis(200));
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
    assert!(pooled.metrics().timeouts.get() >= 1);
}

#[test]
fn saturated_source_sheds_with_backpressure() {
    let addr = stalled_listener();
    let pooled = Arc::new(
        PooledTcpTransport::with_config(
            [(1, addr.to_string())],
            PoolConfig {
                connections_per_source: 1,
                max_in_flight_per_source: 1,
                request_timeout: Duration::from_secs(2),
                retries: 0,
                ..PoolConfig::default()
            },
        )
        .expect("transport"),
    );
    // Fill the single in-flight slot and the single queue slot.
    let blocked: Vec<_> = (0..2)
        .map(|_| {
            let pooled = Arc::clone(&pooled);
            std::thread::spawn(move || pooled.call(1, &Message::summary_poll(), false))
        })
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    let err = pooled
        .call(1, &Message::summary_poll(), false)
        .expect_err("saturated source");
    assert_eq!(
        err,
        TransportError::Backpressure {
            source: 1,
            in_flight_cap: 1
        }
    );
    assert!(pooled.metrics().backpressure.get() >= 1);
    for handle in blocked {
        // The two admitted calls ripen into timeouts on the stalled source.
        let result = handle.join().expect("join");
        assert!(
            matches!(result, Err(TransportError::Timeout { .. })),
            "{result:?}"
        );
    }
}

#[test]
fn a_late_reply_is_dropped_and_the_connection_stays_in_sync() {
    let answer = |detail: &str| Message::Error {
        code: ERR_UNSUPPORTED,
        detail: detail.to_string(),
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let late = answer("late");
    let prompt = answer("prompt");
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        // The second frame is sent only once the first call has timed out,
        // so reading it first puts the first answer past its deadline.
        let first = read_frame(&mut stream).expect("first frame");
        let second = read_frame(&mut stream).expect("second frame");
        for (frame, reply) in [(first, late), (second, prompt)] {
            let reply = ServedReply::plain(reply).correlated(frame.correlation_id);
            write_frame(&mut stream, &reply, false).expect("reply");
        }
        stream
    });
    let pooled = PooledTcpTransport::with_config(
        [(2, addr.to_string())],
        PoolConfig {
            connections_per_source: 1,
            request_timeout: Duration::from_millis(200),
            retries: 0,
            ..PoolConfig::default()
        },
    )
    .expect("transport");

    let first = pooled.call(2, &Message::summary_poll(), false);
    assert!(
        matches!(first, Err(TransportError::Timeout { source: 2, .. })),
        "{first:?}"
    );
    let second = pooled
        .call(2, &Message::summary_poll(), false)
        .expect("second call");
    assert_eq!(second.message, answer("prompt"));
    assert_eq!(pooled.metrics().timeouts.get(), 1);
    drop(server.join().expect("listener"));
}
