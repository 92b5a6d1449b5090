//! Pluggable delivery of [`Message`]s to data sources.
//!
//! The query engine, the data center and the maintenance pipeline never talk
//! to a [`DataSource`] directly — they hand a request to a
//! [`SourceTransport`] and get the reply back.  Everything above the
//! transport (routing, clipping, aggregation, byte accounting) is therefore
//! oblivious to *where* a source lives:
//!
//! * [`InProcessTransport`] — the sources live in this process; a call is a
//!   function call.  Lock-free (`&[DataSource]`), so the engine's worker
//!   threads fan out without synchronisation.  Serves queries and read-only
//!   summary polls; mutating maintenance needs [`ExclusiveTransport`].
//! * [`ExclusiveTransport`] — in-process with exclusive access
//!   (`&mut Vec<DataSource>` behind a mutex): the full protocol including
//!   mutating maintenance batches.
//! * `net::PooledTcpTransport` (in `crates/net`, which depends on this
//!   crate) — each source is a remote process reached over length-prefixed
//!   frames on pooled, pipelined TCP connections, speaking exactly the bytes
//!   [`Message::encode`] produces.  [`SourceServer`] (and the
//!   `source-server` binary) are the other end of that socket.
//!
//! Byte accounting ([`CommStats`](crate::CommStats)) counts
//! [`Message::wire_size`] in both directions regardless of transport — the
//! frame header is transport framing, like a TCP header, not protocol
//! payload — so the communication metrics of a run are identical whether the
//! sources are threads or processes.
//!
//! # Frame format
//!
//! ```text
//! [u32 BE body length][u8 flags][varint msg_len][message][stats varints]
//! ```
//!
//! `flags` bit 0 on a request asks the source to append its off-wire search
//! statistics to the reply; bits 1/2 on a reply say a
//! [`SearchStats`]/[`MaintenanceStats`] block follows the message; bit 3 on
//! a reply says the source's wall-clock service time (one varint of
//! nanoseconds) follows; bit 4 says a trace block (trace id plus the
//! traversal/verification phase split, three varints) follows — on a request
//! the block carries the center-assigned trace id with zeroed phases, on a
//! reply it echoes that id with the measured phases.  Bit 5 says a
//! correlation id (one varint) ends the frame: a pipelining transport tags
//! each request with one and matches replies by the echoed id, so multiple
//! frames can be in flight on one connection.  All of these are an
//! *instrumentation channel*: they ride in the frame, not in the message, so
//! opting in or out never changes the protocol bytes the paper's
//! communication figures count.

use std::fmt;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use dits::{MaintenanceStats, PhaseTimings, SearchStats};
use spatial::SourceId;

use crate::error::{TransportError, WireError};
use crate::message::{get_varint, put_varint, Message};
use crate::source::DataSource;

/// Request flag: append search/maintenance statistics to the reply frame.
const FLAG_WANT_STATS: u8 = 0b0000_0001;
/// Reply flag: a [`SearchStats`] block follows the message.
const FLAG_HAS_SEARCH: u8 = 0b0000_0010;
/// Reply flag: a [`MaintenanceStats`] block follows the message.
const FLAG_HAS_MAINTENANCE: u8 = 0b0000_0100;
/// Reply flag: the source's service time (varint nanoseconds) follows the
/// statistics blocks.
const FLAG_HAS_SERVICE: u8 = 0b0000_1000;
/// Request/reply flag: a trace block (trace id, traversal nanoseconds,
/// verification nanoseconds — three varints) ends the frame.
const FLAG_HAS_TRACE: u8 = 0b0001_0000;
/// Request/reply flag: a pipelining correlation id (one varint) ends the
/// frame.  The server echoes it verbatim, so a client with several frames
/// in flight on one connection can match each reply to its request.
const FLAG_HAS_CORRELATION: u8 = 0b0010_0000;
/// Every flag a writer sets; a frame with any other bit is refused, so no
/// two frames read as one.
const KNOWN_FLAGS: u8 = FLAG_WANT_STATS
    | FLAG_HAS_SEARCH
    | FLAG_HAS_MAINTENANCE
    | FLAG_HAS_SERVICE
    | FLAG_HAS_TRACE
    | FLAG_HAS_CORRELATION;

/// Upper bound on one frame body; anything larger is a corrupt length
/// prefix, not a real request.  Public so out-of-crate transports apply the
/// same sanity bound before buffering a frame.
pub const MAX_FRAME_BYTES: usize = 256 << 20;

/// What a transport call brings back: the reply message, the exact protocol
/// byte counts of the exchange (so callers never re-encode messages just to
/// account them — the TCP transport reads the sizes off the frames it
/// already moved), plus the off-wire statistics the source produced while
/// serving it (when requested and when the request kind has any).
#[derive(Debug, Clone, PartialEq)]
pub struct TransportReply {
    /// The source's reply message.
    pub message: Message,
    /// Wire size of the request message, in bytes.
    pub request_bytes: usize,
    /// Wire size of the reply message, in bytes.
    pub reply_bytes: usize,
    /// Local-search statistics (query requests only).
    pub search: Option<SearchStats>,
    /// Index-maintenance statistics (maintenance requests only).
    pub maintenance: Option<MaintenanceStats>,
    /// Source-measured wall-clock service time of this request — the part of
    /// the call's latency that is *not* transport overhead.  `None` unless
    /// statistics were requested.
    pub service: Option<Duration>,
    /// The source-side trace echo.  `None` unless the call was traced
    /// ([`CallOptions::traced`]).
    pub trace: Option<SourceTrace>,
}

/// How a transport call should be instrumented: whether the source's
/// off-wire statistics (and service time) ride back with the reply, and
/// whether the call carries a center-assigned trace id for the source to
/// echo together with its traversal/verification phase split.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallOptions {
    /// Ask the source to append its search/maintenance statistics and its
    /// service time to the reply.
    pub want_stats: bool,
    /// Center-assigned trace id to propagate on the request frame.
    pub trace: Option<u64>,
}

impl CallOptions {
    /// Options with only the statistics opt-in set.
    pub fn stats(want_stats: bool) -> Self {
        Self {
            want_stats,
            trace: None,
        }
    }

    /// Attaches a center-assigned trace id to the call.
    pub fn traced(mut self, trace_id: u64) -> Self {
        self.trace = Some(trace_id);
        self
    }
}

/// The source-side half of a distributed trace: the trace id the center
/// assigned (echoed by the source, proving correlation across the wire) and
/// the traversal/verification split the source measured while serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceTrace {
    /// The center-assigned trace id this reply belongs to.
    pub trace_id: u64,
    /// Traversal vs. verification time observed while serving the request.
    pub phases: PhaseTimings,
}

/// What [`DataSource::serve`] produces: the reply plus whichever statistics
/// block the request kind has.  Shared by every server implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedReply {
    /// The reply message to put on the wire.
    pub message: Message,
    /// Search statistics, for query requests.
    pub search: Option<SearchStats>,
    /// Maintenance statistics, for applied maintenance batches.
    pub maintenance: Option<MaintenanceStats>,
    /// Source-measured service time of the request (set by
    /// [`DataSource::serve`]/[`DataSource::serve_readonly`]).
    pub service: Option<Duration>,
    /// Traversal vs. verification split observed while serving.
    pub phases: PhaseTimings,
    /// Trace id to echo on the reply frame.  The *serving transport* sets
    /// this from the request frame; the source itself never sees trace ids.
    pub trace_id: Option<u64>,
    /// Pipelining correlation id to echo on the reply frame — frame
    /// plumbing exactly like `trace_id`, set by the serving transport.
    pub correlation_id: Option<u64>,
}

impl ServedReply {
    /// A reply with no statistics (errors, summary polls).
    pub fn plain(message: Message) -> Self {
        Self {
            message,
            search: None,
            maintenance: None,
            service: None,
            phases: PhaseTimings::default(),
            trace_id: None,
            correlation_id: None,
        }
    }

    /// A query reply with its search statistics.
    pub fn search(message: Message, stats: SearchStats) -> Self {
        Self {
            search: Some(stats),
            ..Self::plain(message)
        }
    }

    /// A maintenance acknowledgement with its maintenance statistics.
    pub fn maintenance(message: Message, stats: MaintenanceStats) -> Self {
        Self {
            maintenance: Some(stats),
            ..Self::plain(message)
        }
    }

    /// Attaches the source-measured service time and phase split.
    pub fn with_timing(mut self, service: Duration, phases: PhaseTimings) -> Self {
        self.service = Some(service);
        self.phases = phases;
        self
    }

    /// Attaches a trace id to echo on the reply frame.
    pub fn traced(mut self, trace_id: Option<u64>) -> Self {
        self.trace_id = trace_id;
        self
    }

    /// Attaches a pipelining correlation id to echo on the reply frame.
    pub fn correlated(mut self, correlation_id: Option<u64>) -> Self {
        self.correlation_id = correlation_id;
        self
    }

    /// The reply as the call asked for it — the one rule every serving
    /// transport applies.  Without `want_stats` every statistics block goes,
    /// the service time with them (it rides "next to the stats"); the phase
    /// split stays for the trace, whose id is the call's, as is the
    /// pipelining `correlation_id`.
    pub fn as_asked(self, opts: CallOptions, correlation_id: Option<u64>) -> Self {
        let served = if opts.want_stats {
            self
        } else {
            ServedReply {
                phases: self.phases,
                ..ServedReply::plain(self.message)
            }
        };
        served.traced(opts.trace).correlated(correlation_id)
    }

    fn into_reply(self, opts: CallOptions, request_bytes: usize) -> TransportReply {
        let served = self.as_asked(opts, None);
        TransportReply {
            reply_bytes: served.message.wire_size(),
            message: served.message,
            request_bytes,
            search: served.search,
            maintenance: served.maintenance,
            service: served.service,
            trace: served.trace_id.map(|trace_id| SourceTrace {
                trace_id,
                phases: served.phases,
            }),
        }
    }
}

/// Delivery of one request to one data source.
///
/// Implementations must be callable from many engine worker threads at once
/// (`Sync` is a supertrait); queries take `&self`.
pub trait SourceTransport: fmt::Debug + Sync {
    /// The sources reachable through this transport, ascending by id.
    fn source_ids(&self) -> Vec<SourceId>;

    /// Sends `request` to `source` and waits for the reply, instrumented as
    /// `opts` asks: statistics/service-time opt-in and an optional trace id
    /// for the source to echo.  None of it ever changes the counted protocol
    /// bytes.
    fn call_with(
        &self,
        source: SourceId,
        request: &Message,
        opts: CallOptions,
    ) -> Result<TransportReply, TransportError>;

    /// Sends `request` to `source` and waits for the reply.  With
    /// `want_stats`, the source's off-wire statistics ride back alongside
    /// the reply (never changing the counted protocol bytes).
    fn call(
        &self,
        source: SourceId,
        request: &Message,
        want_stats: bool,
    ) -> Result<TransportReply, TransportError> {
        self.call_with(source, request, CallOptions::stats(want_stats))
    }
}

/// The in-process transport: sources are a borrowed slice, a call is a
/// function call.  This is the deployment every benchmark and test uses by
/// default, and it is `Copy` — the engine carries it by value.
///
/// Mutating maintenance batches are refused with
/// [`TransportError::ExclusiveRequired`]; route them through
/// [`ExclusiveTransport`] (what
/// [`MultiSourceFramework::apply_updates`](crate::MultiSourceFramework::apply_updates)
/// does internally).
#[derive(Debug, Clone, Copy)]
pub struct InProcessTransport<'a> {
    sources: &'a [DataSource],
}

impl<'a> InProcessTransport<'a> {
    /// A transport over the given sources.
    pub fn new(sources: &'a [DataSource]) -> Self {
        Self { sources }
    }

    fn find(&self, source: SourceId) -> Result<&'a DataSource, TransportError> {
        self.sources
            .iter()
            .find(|s| s.id == source)
            .ok_or(TransportError::UnknownSource(source))
    }
}

impl SourceTransport for InProcessTransport<'_> {
    fn source_ids(&self) -> Vec<SourceId> {
        let mut ids: Vec<SourceId> = self.sources.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids
    }

    fn call_with(
        &self,
        source: SourceId,
        request: &Message,
        opts: CallOptions,
    ) -> Result<TransportReply, TransportError> {
        let src = self.find(source)?;
        // A mutating batch cannot be applied through a shared borrow; fail
        // loudly instead of answering with a protocol error, so the caller
        // reaches for `ExclusiveTransport`.
        if request.mutates() {
            return Err(TransportError::ExclusiveRequired);
        }
        Ok(src
            .serve_readonly(request)
            .into_reply(opts, request.wire_size()))
    }
}

/// The exclusive in-process transport: full protocol including mutating
/// maintenance, over `&mut` sources behind a mutex (the [`SourceTransport`]
/// contract takes `&self`).  Built transiently by the framework's
/// maintenance path; the mutex is uncontended there.
pub struct ExclusiveTransport<'a> {
    sources: Mutex<&'a mut Vec<DataSource>>,
}

impl fmt::Debug for ExclusiveTransport<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExclusiveTransport").finish_non_exhaustive()
    }
}

impl<'a> ExclusiveTransport<'a> {
    /// A transport with exclusive access to the sources.
    pub fn new(sources: &'a mut Vec<DataSource>) -> Self {
        Self {
            sources: Mutex::new(sources),
        }
    }
}

impl SourceTransport for ExclusiveTransport<'_> {
    fn source_ids(&self) -> Vec<SourceId> {
        let guard = match self.sources.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let mut ids: Vec<SourceId> = guard.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids
    }

    fn call_with(
        &self,
        source: SourceId,
        request: &Message,
        opts: CallOptions,
    ) -> Result<TransportReply, TransportError> {
        let mut guard = match self.sources.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let src = guard
            .iter_mut()
            .find(|s| s.id == source)
            .ok_or(TransportError::UnknownSource(source))?;
        Ok(src.serve(request).into_reply(opts, request.wire_size()))
    }
}

/// One decoded frame.  Public so out-of-crate transports (the pooled,
/// pipelined client in `crates/net`) can speak the exact same frames as
/// the server's `serve_connection`.
#[derive(Debug)]
pub struct DecodedFrame {
    /// Request flag: the peer asked for statistics on the reply.
    pub want_stats: bool,
    /// The framed message.
    pub message: Message,
    /// Wire size of `message` (the frame's inner length prefix).
    pub message_bytes: usize,
    /// Search statistics block, when present.
    pub search: Option<SearchStats>,
    /// Maintenance statistics block, when present.
    pub maintenance: Option<MaintenanceStats>,
    /// Source-reported service time (reply frames only).
    pub service: Option<Duration>,
    /// Trace block: the trace id plus the phase split (zeroed on requests).
    pub trace: Option<SourceTrace>,
    /// Pipelining correlation id, echoed verbatim by the server.
    pub correlation_id: Option<u64>,
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying reader failed (or hit EOF mid-frame).
    Io(std::io::Error),
    /// The frame parsed but its contents did not.
    Wire(WireError),
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Wire(e)
    }
}

/// Writes one frame: length prefix, flags, the message, then any statistics
/// blocks.  `want_stats` only makes sense on request frames; reply frames
/// derive their flags from which statistics are present.  Returns the wire
/// size of the message itself (the protocol bytes `CommStats` counts).
///
/// Public for out-of-crate transports; `w` can be a plain `Vec<u8>` when
/// the caller manages its own (e.g. nonblocking) socket writes.
pub fn write_frame(
    w: &mut impl Write,
    reply: &ServedReply,
    want_stats: bool,
) -> std::io::Result<usize> {
    let msg = reply.message.encode();
    let mut body = BytesMut::new();
    let mut flags = 0u8;
    if want_stats {
        flags |= FLAG_WANT_STATS;
    }
    if reply.search.is_some() {
        flags |= FLAG_HAS_SEARCH;
    }
    if reply.maintenance.is_some() {
        flags |= FLAG_HAS_MAINTENANCE;
    }
    if reply.service.is_some() {
        flags |= FLAG_HAS_SERVICE;
    }
    if reply.trace_id.is_some() {
        flags |= FLAG_HAS_TRACE;
    }
    if reply.correlation_id.is_some() {
        flags |= FLAG_HAS_CORRELATION;
    }
    body.put_u8(flags);
    put_varint(&mut body, msg.len() as u64);
    body.put_slice(&msg);
    if let Some(stats) = &reply.search {
        for v in stats.to_array() {
            put_varint(&mut body, v);
        }
    }
    if let Some(stats) = &reply.maintenance {
        for v in stats.to_array() {
            put_varint(&mut body, v);
        }
    }
    if let Some(service) = reply.service {
        put_varint(&mut body, service.as_nanos() as u64);
    }
    if let Some(trace_id) = reply.trace_id {
        put_varint(&mut body, trace_id);
        put_varint(&mut body, reply.phases.traversal.as_nanos() as u64);
        put_varint(&mut body, reply.phases.verify.as_nanos() as u64);
    }
    if let Some(correlation_id) = reply.correlation_id {
        put_varint(&mut body, correlation_id);
    }
    let body = body.freeze();
    if body.len() > MAX_FRAME_BYTES {
        // The read side rejects oversized frames; enforcing the same bound
        // here keeps the failure on the sender (and keeps the `u32` length
        // prefix from ever wrapping).
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "frame body of {} bytes exceeds the protocol limit",
                body.len()
            ),
        ));
    }
    w.write_all(&(body.len() as u32).to_be_bytes())?;
    w.write_all(&body)?;
    w.flush()?;
    Ok(msg.len())
}

/// Reads one frame.  Public for out-of-crate transports; `r` can be a byte
/// slice when the caller accumulates nonblocking reads in its own buffer.
pub fn read_frame(r: &mut impl Read) -> Result<DecodedFrame, FrameError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len == 0 {
        return Err(WireError::Truncated("frame flags").into());
    }
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversized("frame body").into());
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let mut body = Bytes::from(body);
    let flags = body.get_u8();
    if flags & !KNOWN_FLAGS != 0 {
        return Err(WireError::OutOfRange("frame flags").into());
    }
    let msg_len = get_varint(&mut body, "frame message length")? as usize;
    if body.remaining() < msg_len {
        return Err(WireError::Truncated("frame message").into());
    }
    let message = Message::decode(body.split_to(msg_len))?;
    let message_bytes = msg_len;
    let search = if flags & FLAG_HAS_SEARCH != 0 {
        let mut a = [0u64; 6];
        for slot in &mut a {
            *slot = get_varint(&mut body, "search stats")?;
        }
        Some(SearchStats::from_array(a))
    } else {
        None
    };
    let maintenance = if flags & FLAG_HAS_MAINTENANCE != 0 {
        let mut a = [0u64; 9];
        for slot in &mut a {
            *slot = get_varint(&mut body, "maintenance stats")?;
        }
        Some(MaintenanceStats::from_array(a))
    } else {
        None
    };
    let service = if flags & FLAG_HAS_SERVICE != 0 {
        Some(Duration::from_nanos(get_varint(&mut body, "service time")?))
    } else {
        None
    };
    let trace = if flags & FLAG_HAS_TRACE != 0 {
        let trace_id = get_varint(&mut body, "trace id")?;
        let traversal = Duration::from_nanos(get_varint(&mut body, "trace traversal")?);
        let verify = Duration::from_nanos(get_varint(&mut body, "trace verify")?);
        Some(SourceTrace {
            trace_id,
            phases: PhaseTimings { traversal, verify },
        })
    } else {
        None
    };
    let correlation_id = if flags & FLAG_HAS_CORRELATION != 0 {
        Some(get_varint(&mut body, "correlation id")?)
    } else {
        None
    };
    Ok(DecodedFrame {
        want_stats: flags & FLAG_WANT_STATS != 0,
        message,
        message_bytes,
        search,
        maintenance,
        service,
        trace,
        correlation_id,
    })
}

/// Cooperative shutdown for [`serve_source_until`]: triggering the signal
/// stops the accept loop and *drains* the server — every connection finishes
/// the frame it is currently serving (request read, reply written) and then
/// closes between frames, instead of dying mid-frame.  Cloning shares the
/// flag, so one signal can fan out to the accept loop, its connection
/// handlers, and whatever (test, stdin watcher, signal handler) pulls the
/// trigger.
#[derive(Clone, Debug, Default)]
pub struct ShutdownSignal {
    flag: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl ShutdownSignal {
    /// A fresh, untriggered signal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests shutdown.  Idempotent; never blocks.
    pub fn trigger(&self) {
        self.flag.store(true, std::sync::atomic::Ordering::Release);
    }

    /// Whether shutdown has been requested.
    pub fn is_triggered(&self) -> bool {
        self.flag.load(std::sync::atomic::Ordering::Acquire)
    }
}

/// How often a drained server polls for shutdown: the accept loop between
/// (non-blocking) accepts, and each idle connection between frames.
const SHUTDOWN_POLL: Duration = Duration::from_millis(25);

/// Upper bound on the drain after shutdown is triggered: connections that
/// have not finished their in-flight frame by then are abandoned to their
/// detached threads.  Generous — a frame is one request/reply exchange, not
/// a session.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// A data source serving the framed TCP protocol from this process — the
/// in-thread twin of the `source-server` binary, used by benches, tests and
/// the federation example to stand up a real-socket federation without
/// spawning processes.
///
/// One thread per accepted connection; queries take a read lock, mutating
/// maintenance a write lock, mirroring the `&self`/`&mut self` split of
/// [`DataSource`].  Threads are detached; the server lives until the process
/// exits, the listener is dropped by the OS, or [`shutdown`](Self::shutdown)
/// drains it.
#[derive(Debug)]
pub struct SourceServer {
    id: SourceId,
    addr: std::net::SocketAddr,
    shutdown: ShutdownSignal,
    serve_thread: Option<std::thread::JoinHandle<()>>,
}

impl SourceServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `source` on a background thread.
    pub fn spawn(addr: &str, source: DataSource) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let id = source.id;
        let shutdown = ShutdownSignal::new();
        let signal = shutdown.clone();
        let serve_thread = std::thread::spawn(move || serve_source_until(listener, source, signal));
        Ok(Self {
            id,
            addr: local,
            shutdown,
            serve_thread: Some(serve_thread),
        })
    }

    /// The served source's id.
    pub fn id(&self) -> SourceId {
        self.id
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The `(id, endpoint)` pair a TCP transport's constructor consumes.
    pub fn endpoint(&self) -> (SourceId, String) {
        (self.id, self.addr.to_string())
    }

    /// Gracefully shuts the server down: stops accepting, lets every
    /// connection finish its in-flight frame, and joins the serve thread.
    /// Returns once the server has drained (or the drain grace expired).
    pub fn shutdown(mut self) {
        self.shutdown.trigger();
        if let Some(handle) = self.serve_thread.take() {
            let _ = handle.join();
        }
    }
}

/// Accept loop shared by [`SourceServer`] and the `source-server` binary:
/// serves framed requests against `source` until the listener fails or
/// `shutdown` triggers.  Then the loop stops accepting, every open
/// connection finishes the frame it is serving and closes between frames,
/// and the call returns once all connections have drained (bounded by a
/// grace period).
///
/// Connections are handled on their own threads; the source sits behind a
/// read-write lock so concurrent queries proceed in parallel while a
/// maintenance batch gets exclusive access.
pub fn serve_source_until(listener: TcpListener, source: DataSource, shutdown: ShutdownSignal) {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let source = std::sync::Arc::new(std::sync::RwLock::new(source));
    let open_connections = std::sync::Arc::new(AtomicUsize::new(0));
    // Non-blocking accepts so the loop observes the shutdown signal between
    // connections instead of parking in `accept` forever.
    if let Err(e) = listener.set_nonblocking(true) {
        eprintln!("source server: set_nonblocking failed: {e}");
        return;
    }
    // Transient accept failures (ECONNABORTED, fd exhaustion under load)
    // must not shut the source down; only a persistently failing listener
    // ends the loop.
    let mut consecutive_failures = 0u32;
    while !shutdown.is_triggered() {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(SHUTDOWN_POLL);
                continue;
            }
            Err(e) => {
                consecutive_failures += 1;
                eprintln!("source {}: accept failed: {e}", {
                    let guard = match source.read() {
                        Ok(guard) => guard,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                    guard.id
                });
                if consecutive_failures >= 100 {
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        consecutive_failures = 0;
        let source = std::sync::Arc::clone(&source);
        let signal = shutdown.clone();
        let open = std::sync::Arc::clone(&open_connections);
        open.fetch_add(1, Ordering::AcqRel);
        std::thread::spawn(move || {
            let _ = serve_connection(stream, &source, &signal);
            open.fetch_sub(1, Ordering::AcqRel);
        });
    }
    // Drain: connections notice the signal between frames (via their idle
    // poll) and close themselves; wait for them, but not forever.
    let drain_started = std::time::Instant::now();
    while open_connections.load(Ordering::Acquire) > 0 && drain_started.elapsed() < DRAIN_GRACE {
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Serves framed request/reply exchanges on one connection until the peer
/// hangs up, sends garbage, or `shutdown` triggers between frames.
///
/// Shutdown never interrupts an exchange: the connection polls for the
/// signal only while *waiting* for the next frame (a short-timeout `peek`
/// that consumes nothing), and a frame whose first byte has arrived is
/// served and answered before the signal is honoured.
fn serve_connection(
    mut stream: TcpStream,
    source: &std::sync::RwLock<DataSource>,
    shutdown: &ShutdownSignal,
) -> Result<(), FrameError> {
    let _ = stream.set_nodelay(true);
    loop {
        // Idle wait: peek with a timeout so the shutdown signal is observed
        // between frames without ever consuming (and on timeout losing)
        // frame bytes.
        stream.set_read_timeout(Some(SHUTDOWN_POLL))?;
        match stream.peek(&mut [0u8; 1]) {
            Ok(0) => return Ok(()), // clean disconnect between frames
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shutdown.is_triggered() {
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
        // A frame has started: read it to completion without a timeout (a
        // slow peer mid-frame is not an idle connection).
        stream.set_read_timeout(None)?;
        let frame = match read_frame(&mut stream) {
            Ok(frame) => frame,
            // Clean disconnect between frames.
            Err(FrameError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                return Ok(())
            }
            Err(other) => return Err(other),
        };
        let served = if frame.message.mutates() {
            match source.write() {
                Ok(mut guard) => guard.serve(&frame.message),
                Err(poisoned) => poisoned.into_inner().serve(&frame.message),
            }
        } else {
            // Read path: summary polls and queries never mutate, so they
            // share the read lock (and the exact dispatch the in-process
            // transport uses).
            let guard = match source.read() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            guard.serve_readonly(&frame.message)
        };
        // Echo the center-assigned trace id (if any) with the measured
        // phase split, and the pipelining correlation id verbatim; the
        // source itself never sees either.
        let opts = CallOptions {
            want_stats: frame.want_stats,
            trace: frame.trace.map(|t| t.trace_id),
        };
        write_frame(
            &mut stream,
            &served.as_asked(opts, frame.correlation_id),
            false,
        )?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dits::DitsLocalConfig;
    use spatial::{Grid, Point, SpatialDataset};

    fn tiny_source(id: SourceId) -> DataSource {
        let grid = Grid::global(10).unwrap();
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

    #[test]
    fn frame_roundtrip_with_and_without_stats() {
        let msg = Message::OverlapQuery {
            query: spatial::CellSet::from_cells([1u64, 2, 3]),
            k: 5,
        };
        for (search, maintenance) in [
            (None, None),
            (Some(SearchStats::from_array([1, 2, 3, 4, 5, 6])), None),
            (
                None,
                Some(MaintenanceStats::from_array([1, 2, 3, 4, 5, 6, 7, 8, 9])),
            ),
        ] {
            let served = ServedReply {
                search,
                maintenance,
                ..ServedReply::plain(msg.clone())
            };
            let mut buf = Vec::new();
            write_frame(&mut buf, &served, true).unwrap();
            let frame = match read_frame(&mut &buf[..]) {
                Ok(f) => f,
                Err(FrameError::Io(e)) => panic!("io: {e}"),
                Err(FrameError::Wire(e)) => panic!("wire: {e}"),
            };
            assert!(frame.want_stats);
            assert_eq!(frame.message, msg);
            assert_eq!(frame.search, served.search);
            assert_eq!(frame.maintenance, served.maintenance);
            assert_eq!(frame.service, None);
            assert_eq!(frame.trace, None);
            assert_eq!(frame.correlation_id, None);
        }
    }

    #[test]
    fn frame_roundtrip_with_correlation_id() {
        let msg = Message::OverlapQuery {
            query: spatial::CellSet::from_cells([4u64, 5]),
            k: 2,
        };
        // The correlation id composes with every other frame block and
        // never changes the counted message bytes.
        let plain = ServedReply::plain(msg.clone()).traced(Some(11));
        let correlated = plain.clone().correlated(Some(u64::MAX));
        let mut plain_buf = Vec::new();
        let plain_bytes = write_frame(&mut plain_buf, &plain, true).unwrap();
        let mut buf = Vec::new();
        let corr_bytes = write_frame(&mut buf, &correlated, true).unwrap();
        assert_eq!(plain_bytes, corr_bytes);
        let frame = match read_frame(&mut &buf[..]) {
            Ok(f) => f,
            Err(FrameError::Io(e)) => panic!("io: {e}"),
            Err(FrameError::Wire(e)) => panic!("wire: {e}"),
        };
        assert_eq!(frame.message, msg);
        assert_eq!(frame.correlation_id, Some(u64::MAX));
        assert_eq!(frame.trace.map(|t| t.trace_id), Some(11));
        // Every truncation of the correlated frame still fails closed.
        for cut in 0..buf.len() {
            assert!(
                read_frame(&mut &buf[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn frame_roundtrip_with_service_and_trace() {
        let msg = Message::OverlapReply {
            source: 2,
            results: vec![],
        };
        let phases = PhaseTimings {
            traversal: Duration::from_nanos(1_234),
            verify: Duration::from_nanos(987_654_321),
        };
        // The reply frame of a traced, pipelined call: every block at once.
        let served = ServedReply::search(msg.clone(), SearchStats::from_array([1, 2, 3, 4, 5, 6]))
            .with_timing(Duration::from_micros(42), phases)
            .traced(Some(7_000_000_123))
            .correlated(Some(300));
        let mut buf = Vec::new();
        let counted = write_frame(&mut buf, &served, false).unwrap();
        let frame = match read_frame(&mut &buf[..]) {
            Ok(f) => f,
            Err(FrameError::Io(e)) => panic!("io: {e}"),
            Err(FrameError::Wire(e)) => panic!("wire: {e}"),
        };
        assert_eq!(frame.message, msg);
        assert_eq!(frame.message_bytes, counted);
        assert_eq!(frame.message_bytes, msg.wire_size());
        assert_eq!(frame.search, served.search);
        assert_eq!(frame.correlation_id, Some(300));
        assert_eq!(frame.service, Some(Duration::from_micros(42)));
        assert_eq!(
            frame.trace,
            Some(SourceTrace {
                trace_id: 7_000_000_123,
                phases,
            })
        );
        // Every truncation of the extended frame still fails closed.
        for cut in 0..buf.len() {
            assert!(
                read_frame(&mut &buf[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn truncated_frames_are_io_or_wire_errors_never_panics() {
        let served = ServedReply::search(
            Message::OverlapReply {
                source: 1,
                results: vec![],
            },
            SearchStats::from_array([9, 8, 7, 6, 5, 4]),
        );
        let mut buf = Vec::new();
        write_frame(&mut buf, &served, false).unwrap();
        for cut in 0..buf.len() {
            assert!(
                read_frame(&mut &buf[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    /// Bits 6 and 7 of the flags byte are set by no writer: a request or a
    /// reply frame carrying either is refused, not read as the frame
    /// without it.
    #[test]
    fn unknown_frame_flags_are_refused() {
        let query = Message::OverlapQuery {
            query: spatial::CellSet::from_cells([1u64, 2, 3]),
            k: 5,
        };
        let request = ServedReply::plain(query).correlated(Some(9));
        let reply = ServedReply::search(
            Message::OverlapReply {
                source: 1,
                results: vec![],
            },
            SearchStats::from_array([9, 8, 7, 6, 5, 4]),
        )
        .traced(Some(3));
        for (served, want_stats) in [(request, true), (reply, false)] {
            let mut buf = Vec::new();
            write_frame(&mut buf, &served, want_stats).unwrap();
            assert!(read_frame(&mut &buf[..]).is_ok());
            for bit in [6, 7] {
                let mut raw = buf.clone();
                // The flags byte follows the four-byte length prefix.
                raw[4] |= 1 << bit;
                assert!(
                    matches!(
                        read_frame(&mut &raw[..]),
                        Err(FrameError::Wire(WireError::OutOfRange("frame flags")))
                    ),
                    "bit {bit} of {served:?}"
                );
            }
        }
    }

    #[test]
    fn in_process_transport_serves_queries_and_polls() {
        let sources = vec![tiny_source(0), tiny_source(3)];
        let t = InProcessTransport::new(&sources);
        assert_eq!(t.source_ids(), vec![0, 3]);
        let query = Message::KnnQuery {
            query: sources[0].grid_query(&SpatialDataset::new(99, vec![Point::new(10.0, 50.0)])),
            k: 2,
        };
        let reply = t.call(3, &query, true).unwrap();
        assert!(matches!(reply.message, Message::KnnReply { source: 3, .. }));
        assert!(reply.search.is_some());
        // Stats opt-out leaves the message identical but drops the block.
        let no_stats = t.call(3, &query, false).unwrap();
        assert_eq!(no_stats.message, reply.message);
        assert!(no_stats.search.is_none());
        // Summary poll is read-only and allowed.
        let poll = t.call(0, &Message::summary_poll(), false).unwrap();
        assert!(matches!(
            poll.message,
            Message::SummaryRefresh {
                dataset_count: 6,
                ..
            }
        ));
        // Mutation needs the exclusive transport.
        let err = t
            .call(
                0,
                &Message::ApplyUpdates {
                    resolution: 10,
                    ops: vec![crate::message::CellOp::Delete(0)],
                },
                false,
            )
            .unwrap_err();
        assert_eq!(err, TransportError::ExclusiveRequired);
        assert_eq!(
            t.call(9, &query, false).unwrap_err(),
            TransportError::UnknownSource(9)
        );
    }

    #[test]
    fn exclusive_transport_applies_maintenance() {
        let mut sources = vec![tiny_source(0)];
        let t = ExclusiveTransport::new(&mut sources);
        let reply = t
            .call(
                0,
                &Message::ApplyUpdates {
                    resolution: 10,
                    ops: vec![crate::message::CellOp::Delete(2)],
                },
                true,
            )
            .unwrap();
        assert!(matches!(
            reply.message,
            Message::SummaryRefresh {
                dataset_count: 5,
                applied: 1,
                ..
            }
        ));
        assert_eq!(reply.maintenance.map(|m| m.deletes), Some(1));
        assert_eq!(sources[0].dataset_count(), 5);
    }
}
