//! The pooled TCP transport.
//!
//! A call does its exchange on the calling thread (an engine worker): it
//! checks a connection out of its source's pool (or opens one), writes its
//! request frame, reads until the reply frame that echoes its correlation
//! id, and checks the connection back in.  The id keeps the stream in step
//! after a call that gave up waiting: the next call drops the late reply.
//! It rides the *frame*, not the message, so the protocol bytes `CommStats`
//! counts are identical to every other transport.
//!
//! Failure policy, in order of preference:
//!
//! * a refused/reset connection fails only the call on it, typed as
//!   [`TransportError::Io`] and retried with backoff up to the configured
//!   attempt budget ([`TransportError::RetriesExhausted`] when spent);
//! * a source that stops answering trips the per-call deadline, typed as
//!   [`TransportError::Timeout`] (never retried: the request may still be
//!   executing remotely).  A request write that times out leaves part of a
//!   frame on the wire, so that one connection is dropped;
//! * a saturated source — every permitted call running *and* as many again
//!   waiting — sheds new calls immediately as
//!   [`TransportError::Backpressure`], so a slow source never parks every
//!   caller thread.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use multisource::transport::{
    read_frame, write_frame, DecodedFrame, FrameError, ServedReply, SourceTransport,
    TransportReply, MAX_FRAME_BYTES,
};
use multisource::{Message, TransportError};
use obs::{Counter, Gauge};
use spatial::SourceId;

/// Tuning knobs of the pooled transport.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Connections kept per source.  The server serves one frame at a time
    /// per connection and a call holds its connection for its whole
    /// exchange, so this bounds per-source parallelism.
    pub connections_per_source: usize,
    /// Per-source in-flight cap (with `connections_per_source`, the lower
    /// bounds the calls that run at once).  Calls beyond it wait, up to the
    /// same bound again, and then shed as [`TransportError::Backpressure`].
    pub max_in_flight_per_source: usize,
    /// Per-call reply deadline, measured from submission.
    pub request_timeout: Duration,
    /// Deadline for establishing one connection.
    pub connect_timeout: Duration,
    /// Retry budget for I/O-failed calls (attempts = `retries + 1`).
    /// Timeouts and remote rejections are never retried.
    pub retries: u32,
    /// Backoff before the first retry; doubles on each further one.
    pub retry_backoff: Duration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self {
            connections_per_source: 4,
            max_in_flight_per_source: 64,
            request_timeout: Duration::from_secs(30),
            connect_timeout: Duration::from_secs(5),
            retries: 2,
            retry_backoff: Duration::from_millis(10),
        }
    }
}

impl PoolConfig {
    /// The calls that run at once per source: the lower of the two caps.
    fn running_cap(&self) -> usize {
        self.max_in_flight_per_source
            .min(self.connections_per_source)
    }
}

/// What the pool counts that no reply can carry: the calls it had to
/// retry, time out or shed, and the connections it holds.  Clones share
/// the values, so the calls record and any caller reads.
#[derive(Debug, Clone, Default)]
pub struct PoolMetrics {
    /// Currently established connections, across all sources.
    pub open_connections: Gauge,
    /// Calls re-submitted after an I/O failure.
    pub retries: Counter,
    /// Calls that hit their reply deadline.
    pub timeouts: Counter,
    /// Calls shed because a source was saturated.
    pub backpressure: Counter,
}

/// Socket read size; a frame larger than this arrives across reads.
const READ_CHUNK: usize = 64 * 1024;

/// Pooled TCP implementation of [`SourceTransport`] — see the module docs
/// for the exchange and the failure policy.
pub struct PooledTcpTransport {
    sources: BTreeMap<SourceId, Source>,
    config: PoolConfig,
    next_corr: AtomicU64,
    metrics: PoolMetrics,
    /// Connections open across every source; the gauge shows it, and the
    /// lock keeps two calls from publishing out of order.
    open: Mutex<usize>,
}

impl fmt::Debug for PooledTcpTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let endpoints: BTreeMap<_, _> = self.sources.iter().map(|(id, s)| (id, &s.addr)).collect();
        f.debug_struct("PooledTcpTransport")
            .field("endpoints", &endpoints)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl PooledTcpTransport {
    /// A pooled transport over `(source id, "host:port")` endpoints with
    /// default tuning.  Nothing is connected until a call needs it.
    pub fn new(endpoints: impl IntoIterator<Item = (SourceId, String)>) -> std::io::Result<Self> {
        Self::with_config(endpoints, PoolConfig::default())
    }

    /// A pooled transport with explicit tuning.
    pub fn with_config(
        endpoints: impl IntoIterator<Item = (SourceId, String)>,
        mut config: PoolConfig,
    ) -> std::io::Result<Self> {
        config.connections_per_source = config.connections_per_source.max(1);
        config.max_in_flight_per_source = config.max_in_flight_per_source.max(1);
        let source = |addr| Source {
            addr,
            state: Mutex::default(),
            freed: Condvar::new(),
        };
        Ok(Self {
            sources: endpoints
                .into_iter()
                .map(|(id, a)| (id, source(a)))
                .collect(),
            config,
            next_corr: AtomicU64::new(1),
            metrics: PoolMetrics::default(),
            open: Mutex::new(0),
        })
    }

    /// The pool's counters and its open-connection gauge.
    pub fn metrics(&self) -> &PoolMetrics {
        &self.metrics
    }

    /// One attempt: encode, exchange, type the outcome.
    fn call_once(
        &self,
        source: SourceId,
        request: &Message,
        want_stats: bool,
    ) -> Result<TransportReply, TransportError> {
        let pool = (self.sources.get(&source)).ok_or(TransportError::UnknownSource(source))?;
        let corr_id = self.next_corr.fetch_add(1, Ordering::Relaxed);
        let mut frame = Vec::new();
        let request_bytes = write_frame(
            &mut frame,
            &ServedReply::plain(request.clone()).correlated(Some(corr_id)),
            want_stats,
        )
        .map_err(|e| TransportError::Io(format!("encode for source {source}: {e}")))?;

        let submitted = Instant::now();
        let deadline = submitted + self.config.request_timeout;
        match self.exchange(pool, &frame, corr_id, deadline) {
            Ok(frame) => Ok(TransportReply {
                message: frame.message,
                request_bytes,
                reply_bytes: frame.message_bytes,
                search: frame.search,
                maintenance: frame.maintenance,
                service: frame.service,
                phases: frame.phases,
            }),
            Err(Failure::Shed) => {
                self.metrics.backpressure.inc();
                Err(TransportError::Backpressure {
                    source,
                    in_flight_cap: self.config.running_cap(),
                })
            }
            Err(Failure::Late | Failure::Cut) => {
                self.metrics.timeouts.inc();
                Err(TransportError::Timeout {
                    source,
                    waited: submitted.elapsed(),
                })
            }
            Err(Failure::Broken(detail)) => Err(TransportError::Io(format!(
                "exchange with {} (source {source}): {detail}",
                pool.addr
            ))),
        }
    }

    /// Sends `frame` on a connection of `pool`'s, opened here if it has
    /// none idle, and reads the reply; a connection out of step is dropped.
    fn exchange(
        &self,
        pool: &Source,
        frame: &[u8],
        corr_id: u64,
        deadline: Instant,
    ) -> Result<DecodedFrame, Failure> {
        let mut hold = pool.check_out(&self.config, deadline)?;
        let conn = match &mut hold.conn {
            Some(conn) => conn,
            None => {
                let left = remaining(deadline).ok_or(Failure::Late)?;
                let conn = Conn::open(&pool.addr, left.min(self.config.connect_timeout))
                    .map_err(|e| Failure::Broken(format!("connect: {e}")))?;
                self.count_open(1);
                hold.conn.insert(conn)
            }
        };
        let outcome = conn.exchange(frame, corr_id, deadline);
        if !matches!(outcome, Ok(_) | Err(Failure::Late)) {
            hold.conn = None;
            self.count_open(-1);
        }
        outcome
    }

    /// Moves the open-connection count, and the gauge with it.
    fn count_open(&self, delta: isize) {
        let mut open = lock(&self.open);
        *open = open.saturating_add_signed(delta);
        self.metrics.open_connections.set(*open as f64);
    }
}

impl SourceTransport for PooledTcpTransport {
    fn source_ids(&self) -> Vec<SourceId> {
        self.sources.keys().copied().collect()
    }

    fn call(
        &self,
        source: SourceId,
        request: &Message,
        want_stats: bool,
    ) -> Result<TransportReply, TransportError> {
        let max_attempts = self.config.retries.saturating_add(1);
        let mut backoff = self.config.retry_backoff;
        let mut attempt = 1u32;
        loop {
            match self.call_once(source, request, want_stats) {
                Ok(reply) => return Ok(reply),
                // Only socket-level failures are safely retryable: a
                // timeout may still be executing remotely, and a remote
                // rejection is an answer, not a delivery failure.
                Err(TransportError::Io(_)) if attempt < max_attempts => {
                    self.metrics.retries.inc();
                    std::thread::sleep(backoff);
                    backoff = backoff.saturating_mul(2);
                    attempt += 1;
                }
                Err(e @ TransportError::Io(_)) if attempt > 1 => {
                    return Err(TransportError::RetriesExhausted {
                        attempts: attempt,
                        last: Box::new(e),
                    })
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Why an exchange ended without its reply.
enum Failure {
    /// The source is saturated: the call is shed before it waits.
    Shed,
    /// The deadline passed with the stream in step; the connection goes
    /// back to the pool.
    Late,
    /// The request write timed out, leaving part of a frame on the wire;
    /// the connection is dropped.
    Cut,
    /// The connection failed, or carried bytes that are no frame.
    Broken(String),
}

/// One source's connections and the calls that hold or wait for one.
struct Source {
    addr: String,
    state: Mutex<Checkout>,
    /// Signalled each time a call gives its hold back.
    freed: Condvar,
}

#[derive(Default)]
struct Checkout {
    /// Connections no call holds.
    idle: Vec<Conn>,
    /// Calls holding a connection, or opening one.
    busy: usize,
    /// Calls waiting for one.
    waiting: usize,
}

impl Source {
    /// Admits a call, waiting for a free hold until `deadline`.  The hold
    /// carries an idle connection, or none when the caller is to open one,
    /// which the cap leaves room for: holds never outnumber
    /// `connections_per_source`.
    fn check_out(&self, config: &PoolConfig, deadline: Instant) -> Result<Hold<'_>, Failure> {
        let cap = config.max_in_flight_per_source;
        let mut state = lock(&self.state);
        if state.busy + state.waiting >= cap.saturating_mul(2) {
            return Err(Failure::Shed);
        }
        state.waiting += 1;
        let limit = config.running_cap();
        let left = remaining(deadline).unwrap_or_default();
        let (mut state, wait) = (self.freed)
            .wait_timeout_while(state, left, |state| state.busy >= limit)
            .unwrap_or_else(PoisonError::into_inner);
        state.waiting -= 1;
        if wait.timed_out() {
            return Err(Failure::Late);
        }
        state.busy += 1;
        let conn = state.idle.pop();
        Ok(Hold { pool: self, conn })
    }
}

/// A call's admission to its source; dropping it gives the connection, if
/// any is left, back to the pool.
struct Hold<'a> {
    pool: &'a Source,
    conn: Option<Conn>,
}

impl Drop for Hold<'_> {
    fn drop(&mut self) {
        let mut state = lock(&self.pool.state);
        state.busy -= 1;
        state.idle.extend(self.conn.take());
        drop(state);
        self.pool.freed.notify_one();
    }
}

/// A blocking connection to one source.
struct Conn {
    stream: TcpStream,
    /// Received bytes are `buf[..filled]`: what is past the last whole
    /// frame taken, so a deadline that falls mid-reply loses nothing.
    buf: Vec<u8>,
    filled: usize,
}

impl Conn {
    /// Connects to the first address `addr` resolves to that accepts.
    fn open(addr: &str, timeout: Duration) -> std::io::Result<Self> {
        let mut last = std::io::Error::new(ErrorKind::AddrNotAvailable, "resolved to no address");
        for resolved in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&resolved, timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    return Ok(Self {
                        stream,
                        buf: Vec::new(),
                        filled: 0,
                    });
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Writes `frame` and reads until the reply that echoes `corr_id`,
    /// each by `deadline`.
    fn exchange(
        &mut self,
        frame: &[u8],
        corr_id: u64,
        deadline: Instant,
    ) -> Result<DecodedFrame, Failure> {
        let left = remaining(deadline).ok_or(Failure::Late)?;
        (self.stream.set_write_timeout(Some(left)))
            .and_then(|()| self.stream.write_all(frame))
            .map_err(|e| failure(e, Failure::Cut, "write"))?;
        loop {
            while let Some(reply) = self.take_frame()? {
                // Any other id answers an earlier call on this connection
                // that gave up waiting.
                if reply.correlation_id == Some(corr_id) {
                    return Ok(reply);
                }
            }
            if self.buf.len() - self.filled < READ_CHUNK {
                self.buf.resize(self.filled + READ_CHUNK, 0);
            }
            let left = remaining(deadline).ok_or(Failure::Late)?;
            let read = self
                .stream
                .set_read_timeout(Some(left))
                .and_then(|()| self.stream.read(&mut self.buf[self.filled..]));
            match read {
                Ok(0) => return Err(Failure::Broken("connection closed by source".into())),
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(failure(e, Failure::Late, "read")),
            }
        }
    }

    /// Decodes the whole frame at the front of the received bytes, if one
    /// has arrived, and keeps what follows it.
    fn take_frame(&mut self) -> Result<Option<DecodedFrame>, Failure> {
        let received = &self.buf[..self.filled];
        let Some(head) = received.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_be_bytes(*head) as usize;
        if len == 0 || len > MAX_FRAME_BYTES {
            return Err(Failure::Broken("corrupt frame length".into()));
        }
        let Some(mut whole) = received.get(..4 + len) else {
            return Ok(None);
        };
        let frame = read_frame(&mut whole).map_err(|e| {
            Failure::Broken(match e {
                FrameError::Wire(e) => format!("reply decode: {e}"),
                FrameError::Io(e) => format!("reply framing: {e}"),
            })
        })?;
        self.buf.copy_within(4 + len..self.filled, 0);
        self.filled -= 4 + len;
        Ok(Some(frame))
    }
}

/// What is left of `deadline`; `None` once nothing is (a zero socket
/// timeout would mean no timeout at all).
fn remaining(deadline: Instant) -> Option<Duration> {
    deadline
        .checked_duration_since(Instant::now())
        .filter(|left| !left.is_zero())
}

/// A failed `what` as its failure: `on_timeout` for a socket timeout, which
/// Unix says as `WouldBlock` and Windows as `TimedOut`.
fn failure(e: std::io::Error, on_timeout: Failure, what: &str) -> Failure {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => on_timeout,
        _ => Failure::Broken(format!("{what}: {e}")),
    }
}

/// Every update under a pool lock leaves its data valid, so a panic
/// elsewhere while one was held poisons nothing.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
