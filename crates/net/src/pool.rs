//! The pooled, pipelined TCP transport.
//!
//! One background thread owns every socket and blocks only in
//! `epoll_wait`; caller threads (the engine's workers) send pre-encoded
//! request frames down an `mpsc` command queue, wake the loop, and wait on
//! a per-call channel for the one outcome the loop sends back.  Per source
//! there is a small pool of nonblocking connections, each carrying several
//! correlated frames in flight at once (the server echoes the frame-level
//! correlation id, so replies match requests without ordering
//! assumptions).  The correlation id rides the *frame*, not the message, so
//! the protocol bytes `CommStats` counts are identical to every other
//! transport — the cross-transport invariance suite holds.
//!
//! Failure policy, in order of preference:
//!
//! * a refused/reset connection fails only the calls on it, typed as
//!   [`TransportError::Io`] and retried with backoff up to the configured
//!   attempt budget ([`TransportError::RetriesExhausted`] when spent);
//! * a source that stops answering trips the per-call deadline, typed as
//!   [`TransportError::Timeout`] (never retried: the request may still be
//!   executing remotely);
//! * a saturated source — in-flight cap reached *and* the admission queue
//!   full — sheds new calls immediately as
//!   [`TransportError::Backpressure`], so a slow source never parks every
//!   caller thread.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mio::{Events, Interest, Poll, Token, Waker};
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
    /// per connection, so this bounds per-source parallelism; pipelining
    /// on each connection hides connect/teardown and syscall latency.
    pub connections_per_source: usize,
    /// Per-source in-flight cap.  Calls beyond it queue (up to the same
    /// bound again) and then shed as [`TransportError::Backpressure`].
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

/// What the pool counts that no reply can carry: the calls it had to
/// retry, time out or shed, and the connections it holds.  Clones share
/// the values, so the event loop records and any caller reads.
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

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

/// A call's outcome, as the event loop sends it back to the caller.
type Outcome = Result<DecodedFrame, TransportError>;

/// One submitted call, as the event loop tracks it.  The loop ends it once,
/// by [`finish`](Self::finish); a job dropped unfinished (the loop thread is
/// gone) disconnects its caller's receiver instead.
struct CallJob {
    source_idx: usize,
    corr_id: u64,
    /// Full wire frame, length prefix included.
    frame: Vec<u8>,
    deadline: Instant,
    submitted: Instant,
    reply: SyncSender<Outcome>,
}

impl CallJob {
    /// Sends the outcome; a caller that gave up has dropped its receiver,
    /// and the outcome is dropped with it.
    fn finish(self, outcome: Outcome) {
        let _ = self.reply.send(outcome);
    }
}

enum Command {
    Call(CallJob),
    Connected {
        source_idx: usize,
        conn_idx: usize,
        result: std::io::Result<TcpStream>,
    },
    /// Sent by `Drop`: the loop fails every call and exits.
    Shutdown,
}

/// The callers' end of the command queue, beside the loop's wake-up.
struct Shared {
    commands: Sender<Command>,
    waker: Waker,
}

impl Shared {
    /// Enqueues and wakes the loop; returns `false` once the loop is gone.
    fn submit(&self, command: Command) -> bool {
        let sent = self.commands.send(command).is_ok();
        let _ = self.waker.wake();
        sent
    }
}

// ---------------------------------------------------------------------------
// The transport handle
// ---------------------------------------------------------------------------

/// Pooled, pipelined TCP implementation of
/// [`SourceTransport`] — see the module docs for the
/// architecture and failure policy.
pub struct PooledTcpTransport {
    shared: Arc<Shared>,
    endpoints: BTreeMap<SourceId, String>,
    index: HashMap<SourceId, usize>,
    config: PoolConfig,
    next_corr: AtomicU64,
    metrics: PoolMetrics,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl fmt::Debug for PooledTcpTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PooledTcpTransport")
            .field("endpoints", &self.endpoints)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl PooledTcpTransport {
    /// A pooled transport over `(source id, "host:port")` endpoints with
    /// default tuning.
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
        let endpoints: BTreeMap<SourceId, String> = endpoints.into_iter().collect();
        let index: HashMap<SourceId, usize> = endpoints
            .keys()
            .enumerate()
            .map(|(idx, id)| (*id, idx))
            .collect();

        let poll = Poll::new()?;
        let waker = Waker::new(poll.registry(), WAKER_TOKEN)?;
        let (commands, queue) = mpsc::channel();
        let shared = Arc::new(Shared { commands, waker });
        let metrics = PoolMetrics::default();

        let sources: Vec<SourcePool> = endpoints
            .iter()
            .map(|(id, addr)| SourcePool::new(*id, addr.clone(), config.connections_per_source))
            .collect();
        let handle = {
            let shared = Arc::clone(&shared);
            let config = config.clone();
            let metrics = metrics.clone();
            std::thread::Builder::new()
                .name("net-pool".into())
                .spawn(move || {
                    EventLoop {
                        poll,
                        shared,
                        queue,
                        chunk: vec![0; READ_CHUNK],
                        sources,
                        config,
                        metrics,
                    }
                    .run()
                })?
        };

        Ok(Self {
            shared,
            endpoints,
            index,
            config,
            next_corr: AtomicU64::new(1),
            metrics,
            handle: Some(handle),
        })
    }

    /// The registered endpoints.
    pub fn endpoints(&self) -> &BTreeMap<SourceId, String> {
        &self.endpoints
    }

    /// The pool's counters and its open-connection gauge.
    pub fn metrics(&self) -> &PoolMetrics {
        &self.metrics
    }

    /// One submission: encode, enqueue, park until the loop answers.
    fn call_once(
        &self,
        source: SourceId,
        request: &Message,
        want_stats: bool,
    ) -> Result<TransportReply, TransportError> {
        let source_idx = *self
            .index
            .get(&source)
            .ok_or(TransportError::UnknownSource(source))?;
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
        let (reply, outcome) = mpsc::sync_channel(1);
        let job = CallJob {
            source_idx,
            corr_id,
            frame,
            deadline,
            submitted,
            reply,
        };
        if !self.shared.submit(Command::Call(job)) {
            return Err(TransportError::Io(format!(
                "pooled transport shut down (source {source})"
            )));
        }
        // The loop enforces `deadline`; the extra second is a backstop in
        // case the loop thread itself is wedged.
        match outcome.recv_timeout(self.config.request_timeout + Duration::from_secs(1)) {
            Ok(Ok(frame)) => Ok(TransportReply {
                message: frame.message,
                request_bytes,
                reply_bytes: frame.message_bytes,
                search: frame.search,
                maintenance: frame.maintenance,
                service: frame.service,
                phases: frame.phases,
            }),
            Ok(Err(e)) => Err(e),
            Err(RecvTimeoutError::Timeout) => Err(TransportError::Timeout {
                source,
                waited: submitted.elapsed(),
            }),
            // The job was dropped unfinished: the loop thread is gone.
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Io(format!(
                "pooled transport's event loop is gone (source {source})"
            ))),
        }
    }
}

impl SourceTransport for PooledTcpTransport {
    fn source_ids(&self) -> Vec<SourceId> {
        self.endpoints.keys().copied().collect()
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

impl Drop for PooledTcpTransport {
    fn drop(&mut self) {
        self.shared.submit(Command::Shutdown);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------------

const WAKER_TOKEN: Token = Token(0);
/// Socket read chunk; frames larger than this arrive across iterations.
const READ_CHUNK: usize = 64 * 1024;
/// Poll tick when nothing has a nearer deadline.
const IDLE_TICK: Duration = Duration::from_millis(500);

enum ConnState {
    /// No socket and no connect in progress.
    Idle,
    /// A connector thread is establishing the socket.
    Connecting,
    /// Registered with the poller and carrying traffic.
    Ready(TcpStream),
}

struct Conn {
    state: ConnState,
    token: Token,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    written: usize,
    /// Registered interest, to skip redundant `reregister` syscalls.
    registered: Option<Interest>,
    /// Correlation id → job, for every frame sent on this connection and
    /// not yet answered.
    in_flight: HashMap<u64, CallJob>,
}

impl Conn {
    fn new(token: Token) -> Self {
        Self {
            state: ConnState::Idle,
            token,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            registered: None,
            in_flight: HashMap::new(),
        }
    }
}

struct SourcePool {
    id: SourceId,
    addr: String,
    conns: Vec<Conn>,
    /// Admitted but not yet dispatched calls (no ready connection or the
    /// in-flight cap is reached).
    pending: VecDeque<CallJob>,
}

impl SourcePool {
    fn new(id: SourceId, addr: String, conns_per_source: usize) -> Self {
        Self {
            id,
            addr,
            conns: Vec::with_capacity(conns_per_source),
            pending: VecDeque::new(),
        }
    }

    fn in_flight(&self) -> usize {
        self.conns.iter().map(|c| c.in_flight.len()).sum()
    }
}

struct EventLoop {
    poll: Poll,
    shared: Arc<Shared>,
    queue: Receiver<Command>,
    /// The one buffer every socket read lands in.
    chunk: Vec<u8>,
    sources: Vec<SourcePool>,
    config: PoolConfig,
    metrics: PoolMetrics,
}

impl EventLoop {
    fn run(mut self) {
        let cps = self.config.connections_per_source;
        for (source_idx, source) in self.sources.iter_mut().enumerate() {
            for conn_idx in 0..cps {
                source
                    .conns
                    .push(Conn::new(Token(1 + source_idx * cps + conn_idx)));
            }
        }
        let mut events = Events::with_capacity(256);
        loop {
            let timeout = self.next_tick();
            if self.poll.poll(&mut events, Some(timeout)).is_err() {
                // An unusable poller cannot make progress; fail everything
                // rather than spin.
                self.shutdown("event loop poller failed");
                return;
            }
            let fired: Vec<mio::Event> = events.iter().collect();
            let mut woken = false;
            for event in &fired {
                if event.token() == WAKER_TOKEN {
                    woken = true;
                }
            }
            if woken {
                self.shared.waker.drain();
            }
            while let Ok(command) = self.queue.try_recv() {
                match command {
                    Command::Call(job) => self.admit(job),
                    Command::Connected {
                        source_idx,
                        conn_idx,
                        result,
                    } => self.finish_connect(source_idx, conn_idx, result),
                    Command::Shutdown => {
                        self.shutdown("pooled transport shut down");
                        return;
                    }
                }
            }
            for event in &fired {
                if event.token() != WAKER_TOKEN {
                    self.handle_io(event);
                }
            }
            self.expire_deadlines();
            for source_idx in 0..self.sources.len() {
                self.dispatch(source_idx);
            }
            self.publish_open_connections();
        }
    }

    /// Poll timeout: the nearest outstanding deadline, clamped to the idle
    /// tick.
    fn next_tick(&self) -> Duration {
        let now = Instant::now();
        let mut tick = IDLE_TICK;
        for source in &self.sources {
            for job in source
                .pending
                .iter()
                .chain(source.conns.iter().flat_map(|c| c.in_flight.values()))
            {
                tick = tick.min(job.deadline.saturating_duration_since(now));
            }
        }
        tick.max(Duration::from_millis(1))
    }

    /// Admission control: a source carries at most `cap` calls in flight
    /// plus `cap` queued; anything beyond sheds immediately.
    fn admit(&mut self, job: CallJob) {
        let source = &mut self.sources[job.source_idx];
        let cap = self.config.max_in_flight_per_source;
        if source.in_flight() + source.pending.len() >= cap * 2 {
            self.metrics.backpressure.inc();
            job.finish(Err(TransportError::Backpressure {
                source: source.id,
                in_flight_cap: cap,
            }));
            return;
        }
        source.pending.push_back(job);
    }

    /// Moves pending calls onto ready connections, least-loaded first,
    /// until the in-flight cap is reached; initiates connects when the
    /// pool has pending work but no (or too few) ready connections.
    fn dispatch(&mut self, source_idx: usize) {
        let cap = self.config.max_in_flight_per_source;
        loop {
            let source = &mut self.sources[source_idx];
            if source.pending.is_empty() || source.in_flight() >= cap {
                break;
            }
            let target = source
                .conns
                .iter()
                .enumerate()
                .filter(|(_, c)| matches!(c.state, ConnState::Ready(_)))
                .min_by_key(|(_, c)| c.in_flight.len())
                .map(|(idx, _)| idx);
            let Some(conn_idx) = target else {
                break;
            };
            let Some(job) = source.pending.pop_front() else {
                break;
            };
            let conn = &mut source.conns[conn_idx];
            conn.write_buf.extend_from_slice(&job.frame);
            conn.in_flight.insert(job.corr_id, job);
            self.reconcile_interest(source_idx, conn_idx);
        }
        // Connect escalation: one connector per idle slot while pending
        // work exists, so a cold pool warms up in parallel.
        let source = &mut self.sources[source_idx];
        if !source.pending.is_empty() {
            let addr = source.addr.clone();
            let timeout = self.config.connect_timeout;
            for conn_idx in 0..source.conns.len() {
                if matches!(source.conns[conn_idx].state, ConnState::Idle) {
                    source.conns[conn_idx].state = ConnState::Connecting;
                    spawn_connector(&self.shared, source_idx, conn_idx, addr.clone(), timeout);
                }
            }
        }
    }

    fn finish_connect(
        &mut self,
        source_idx: usize,
        conn_idx: usize,
        result: std::io::Result<TcpStream>,
    ) {
        match result {
            Ok(stream) => {
                let token = self.sources[source_idx].conns[conn_idx].token;
                let registered = stream
                    .set_nonblocking(true)
                    .and_then(|()| stream.set_nodelay(true))
                    .and_then(|()| {
                        self.poll
                            .registry()
                            .register(&stream, token, Interest::READABLE)
                    });
                let conn = &mut self.sources[source_idx].conns[conn_idx];
                match registered {
                    Ok(()) => {
                        conn.state = ConnState::Ready(stream);
                        conn.registered = Some(Interest::READABLE);
                        self.dispatch(source_idx);
                    }
                    Err(_) => {
                        conn.state = ConnState::Idle;
                        self.fail_if_unreachable(source_idx, "could not register connection");
                    }
                }
            }
            Err(e) => {
                self.sources[source_idx].conns[conn_idx].state = ConnState::Idle;
                self.fail_if_unreachable(source_idx, &e.to_string());
            }
        }
    }

    /// When a connect fails and nothing else is ready or in progress, the
    /// source is unreachable *now* — fail the queued calls instead of
    /// letting them ripen into timeouts.
    fn fail_if_unreachable(&mut self, source_idx: usize, detail: &str) {
        let source = &mut self.sources[source_idx];
        let reachable = source
            .conns
            .iter()
            .any(|c| !matches!(c.state, ConnState::Idle));
        if reachable {
            return;
        }
        let id = source.id;
        let addr = source.addr.clone();
        for job in source.pending.drain(..) {
            job.finish(Err(TransportError::Io(format!(
                "connect {addr} (source {id}): {detail}"
            ))));
        }
    }

    fn handle_io(&mut self, event: &mio::Event) {
        let cps = self.config.connections_per_source;
        let raw = event.token().0;
        if raw == 0 {
            return;
        }
        let source_idx = (raw - 1) / cps;
        let conn_idx = (raw - 1) % cps;
        if source_idx >= self.sources.len() {
            return;
        }
        if event.is_error() {
            self.fail_conn(source_idx, conn_idx, "socket error");
            return;
        }
        if event.is_writable() && self.flush_writes(source_idx, conn_idx).is_err() {
            return;
        }
        if event.is_readable() {
            self.drain_reads(source_idx, conn_idx);
        }
    }

    /// Writes as much buffered frame data as the socket accepts; `Err`
    /// means the connection died (and was failed).
    fn flush_writes(&mut self, source_idx: usize, conn_idx: usize) -> Result<(), ()> {
        loop {
            let conn = &mut self.sources[source_idx].conns[conn_idx];
            let ConnState::Ready(stream) = &mut conn.state else {
                return Ok(());
            };
            if conn.written >= conn.write_buf.len() {
                conn.write_buf.clear();
                conn.written = 0;
                self.reconcile_interest(source_idx, conn_idx);
                return Ok(());
            }
            match stream.write(&conn.write_buf[conn.written..]) {
                Ok(0) => {
                    self.fail_conn(source_idx, conn_idx, "write returned 0");
                    return Err(());
                }
                Ok(n) => conn.written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.fail_conn(source_idx, conn_idx, &format!("write: {e}"));
                    return Err(());
                }
            }
        }
    }

    /// Reads everything available and completes any whole reply frames.
    fn drain_reads(&mut self, source_idx: usize, conn_idx: usize) {
        loop {
            let conn = &mut self.sources[source_idx].conns[conn_idx];
            let ConnState::Ready(stream) = &mut conn.state else {
                return;
            };
            match stream.read(&mut self.chunk) {
                Ok(0) => {
                    self.fail_conn(source_idx, conn_idx, "connection closed by source");
                    return;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&self.chunk[..n]);
                    if !self.parse_frames(source_idx, conn_idx) {
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.fail_conn(source_idx, conn_idx, &format!("read: {e}"));
                    return;
                }
            }
        }
    }

    /// Decodes every complete frame in the read buffer; `false` means the
    /// connection was failed (garbage on the wire).
    fn parse_frames(&mut self, source_idx: usize, conn_idx: usize) -> bool {
        loop {
            let conn = &mut self.sources[source_idx].conns[conn_idx];
            let buf = &conn.read_buf;
            if buf.len() < 4 {
                return true;
            }
            let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
            if len == 0 || len > MAX_FRAME_BYTES {
                self.fail_conn(source_idx, conn_idx, "corrupt frame length");
                return false;
            }
            if buf.len() < 4 + len {
                return true;
            }
            let frame = read_frame(&mut &buf[..4 + len]);
            let conn = &mut self.sources[source_idx].conns[conn_idx];
            conn.read_buf.drain(..4 + len);
            match frame {
                Ok(frame) => {
                    let matched = frame
                        .correlation_id
                        .and_then(|corr| conn.in_flight.remove(&corr));
                    // Unmatched replies belong to timed-out (already
                    // completed) calls; dropping them keeps the stream in
                    // sync because correlation, not order, pairs frames.
                    if let Some(job) = matched {
                        job.finish(Ok(frame));
                    }
                }
                Err(FrameError::Wire(e)) => {
                    self.fail_conn(source_idx, conn_idx, &format!("reply decode: {e}"));
                    return false;
                }
                Err(FrameError::Io(e)) => {
                    self.fail_conn(source_idx, conn_idx, &format!("reply framing: {e}"));
                    return false;
                }
            }
        }
    }

    /// Tears one connection down, failing every call in flight on it with
    /// a retryable I/O error.
    fn fail_conn(&mut self, source_idx: usize, conn_idx: usize, detail: &str) {
        let source = &mut self.sources[source_idx];
        let id = source.id;
        let addr = source.addr.clone();
        let conn = &mut source.conns[conn_idx];
        if let ConnState::Ready(stream) = &conn.state {
            let _ = self.poll.registry().deregister(stream);
        }
        conn.state = ConnState::Idle;
        conn.registered = None;
        conn.read_buf.clear();
        conn.write_buf.clear();
        conn.written = 0;
        for (_, job) in conn.in_flight.drain() {
            job.finish(Err(TransportError::Io(format!(
                "exchange with {addr} (source {id}): {detail}"
            ))));
        }
    }

    /// Keeps the registered interest in sync with whether the connection
    /// has unflushed writes.
    fn reconcile_interest(&mut self, source_idx: usize, conn_idx: usize) {
        let conn = &mut self.sources[source_idx].conns[conn_idx];
        let ConnState::Ready(stream) = &conn.state else {
            return;
        };
        let wanted = if conn.written < conn.write_buf.len() {
            Interest::READABLE | Interest::WRITABLE
        } else {
            Interest::READABLE
        };
        if conn.registered != Some(wanted)
            && self
                .poll
                .registry()
                .reregister(stream, conn.token, wanted)
                .is_ok()
        {
            conn.registered = Some(wanted);
        }
        // Level-triggered: data queued while the socket is already
        // writable must be pushed now, not on the next readiness edge.
        if wanted.is_writable() {
            let _ = self.flush_writes(source_idx, conn_idx);
        }
    }

    /// Completes every call whose deadline has passed with a typed
    /// timeout.
    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        for source in &mut self.sources {
            let id = source.id;
            let mut expired: Vec<CallJob> = Vec::new();
            for conn in &mut source.conns {
                let overdue: Vec<u64> = conn
                    .in_flight
                    .iter()
                    .filter(|(_, job)| job.deadline <= now)
                    .map(|(corr, _)| *corr)
                    .collect();
                for corr in overdue {
                    if let Some(job) = conn.in_flight.remove(&corr) {
                        expired.push(job);
                    }
                }
            }
            while let Some(pos) = source.pending.iter().position(|job| job.deadline <= now) {
                if let Some(job) = source.pending.remove(pos) {
                    expired.push(job);
                }
            }
            for job in expired {
                self.metrics.timeouts.inc();
                let waited = now.saturating_duration_since(job.submitted);
                job.finish(Err(TransportError::Timeout { source: id, waited }));
            }
        }
    }

    fn publish_open_connections(&self) {
        let open = self
            .sources
            .iter()
            .flat_map(|s| s.conns.iter())
            .filter(|c| matches!(c.state, ConnState::Ready(_)))
            .count();
        self.metrics.open_connections.set(open as f64);
    }

    /// Fails every outstanding call, queued ones included, and drops every
    /// connection.
    fn shutdown(&mut self, detail: &str) {
        let fail = |job: CallJob| job.finish(Err(TransportError::Io(detail.to_string())));
        for command in self.queue.try_iter() {
            if let Command::Call(job) = command {
                fail(job);
            }
        }
        for source in &mut self.sources {
            source.pending.drain(..).for_each(fail);
            for conn in &mut source.conns {
                conn.in_flight.drain().for_each(|(_, job)| fail(job));
                conn.state = ConnState::Idle;
            }
        }
        self.publish_open_connections();
    }
}

/// Establishes one connection off the event loop thread (std's connect is
/// blocking) and posts the outcome back through the command queue.
fn spawn_connector(
    shared: &Arc<Shared>,
    source_idx: usize,
    conn_idx: usize,
    addr: String,
    timeout: Duration,
) {
    let shared = Arc::clone(shared);
    std::thread::spawn(move || {
        let result = connect_with_timeout(&addr, timeout);
        shared.submit(Command::Connected {
            source_idx,
            conn_idx,
            result,
        });
    });
}

fn connect_with_timeout(addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let mut last = None;
    for resolved in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&resolved, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::AddrNotAvailable,
            format!("{addr} resolved to no addresses"),
        )
    }))
}
