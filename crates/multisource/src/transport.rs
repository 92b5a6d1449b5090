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
//!   summary polls; a source refuses mutating maintenance through it.
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
//! [`SearchStats`]/[`MaintenanceStats`] block follows the message (seven and
//! nine varints, in `to_array` order); bit 3 on
//! a reply says a timing block follows: the source's wall-clock service time
//! and its traversal/verification phase split, three varints of
//! nanoseconds.  Bit 4 is retired and must never be reused: an old peer may
//! still set it, and such a frame is refused like one with bit 6 or 7.
//! Bit 5 says a correlation id (one varint) ends the frame: a pipelining
//! transport tags each request with one and matches replies by the echoed
//! id, so multiple frames can be in flight on one connection.  All of these
//! are an *instrumentation channel*: they ride in the frame, not in the
//! message, so opting in or out never changes the protocol bytes the
//! paper's communication figures count.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::indexing_slicing,
        clippy::todo,
        clippy::unimplemented,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

use std::fmt;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Mutex, PoisonError};
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
/// Reply flag: the timing block (service, traversal and verification
/// nanoseconds — three varints) follows the statistics blocks.
const FLAG_HAS_SERVICE: u8 = 0b0000_1000;
/// Request/reply flag: a pipelining correlation id (one varint) ends the
/// frame.  The server echoes it verbatim, so a client with several frames
/// in flight on one connection can match each reply to its request.
const FLAG_HAS_CORRELATION: u8 = 0b0010_0000;
/// Every flag a writer sets; a frame with any other bit is refused, so no
/// two frames read as one.  Bit 4 is retired (see the module docs).
const KNOWN_FLAGS: u8 = FLAG_WANT_STATS
    | FLAG_HAS_SEARCH
    | FLAG_HAS_MAINTENANCE
    | FLAG_HAS_SERVICE
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
    /// Traversal vs. verification time the source observed while serving.
    /// Zero unless statistics were requested.
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
    /// Traversal vs. verification split observed while serving; on the
    /// wire it rides next to `service`.
    pub phases: PhaseTimings,
    /// Pipelining correlation id to echo on the reply frame.  The *serving
    /// transport* sets this from the request frame; the source itself never
    /// sees it.
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

    /// Attaches a pipelining correlation id to echo on the reply frame.
    pub fn correlated(mut self, correlation_id: Option<u64>) -> Self {
        self.correlation_id = correlation_id;
        self
    }

    /// The reply as the call asked for it — the one rule every serving
    /// transport applies.  Without `want_stats` every statistics block goes,
    /// the timing (service time and phase split) with them; the pipelining
    /// `correlation_id` is the call's.
    pub fn as_asked(self, want_stats: bool, correlation_id: Option<u64>) -> Self {
        let served = if want_stats {
            self
        } else {
            ServedReply::plain(self.message)
        };
        served.correlated(correlation_id)
    }

    fn into_reply(self, want_stats: bool, request_bytes: usize) -> TransportReply {
        let served = self.as_asked(want_stats, None);
        TransportReply {
            reply_bytes: served.message.wire_size(),
            message: served.message,
            request_bytes,
            search: served.search,
            maintenance: served.maintenance,
            service: served.service,
            phases: served.phases,
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

    /// Sends `request` to `source` and waits for the reply.  With
    /// `want_stats`, the source's off-wire statistics, service time and
    /// phase split ride back alongside the reply (never changing the counted
    /// protocol bytes).
    fn call(
        &self,
        source: SourceId,
        request: &Message,
        want_stats: bool,
    ) -> Result<TransportReply, TransportError>;
}

/// The in-process transport: sources are a borrowed slice, a call is a
/// function call to [`DataSource::serve_readonly`], the read path a TCP
/// server takes.  Every benchmark and test deployment polls and queries
/// through it, and it is `Copy` — the engine carries it by value.  A source
/// answers a mutating batch here with its typed refusal (a caller's
/// [`TransportError::Remote`]); maintenance goes through
/// [`ExclusiveTransport`].
#[derive(Debug, Clone, Copy)]
pub struct InProcessTransport<'a> {
    sources: &'a [DataSource],
}

impl<'a> InProcessTransport<'a> {
    /// A transport over the given sources.
    pub fn new(sources: &'a [DataSource]) -> Self {
        Self { sources }
    }
}

impl SourceTransport for InProcessTransport<'_> {
    fn source_ids(&self) -> Vec<SourceId> {
        let mut ids: Vec<SourceId> = self.sources.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids
    }

    fn call(
        &self,
        source: SourceId,
        request: &Message,
        want_stats: bool,
    ) -> Result<TransportReply, TransportError> {
        let src = self.sources.iter().find(|s| s.id == source);
        let src = src.ok_or(TransportError::UnknownSource(source))?;
        Ok(src
            .serve_readonly(request)
            .into_reply(want_stats, request.wire_size()))
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
        let guard = self.sources.lock().unwrap_or_else(PoisonError::into_inner);
        let mut ids: Vec<SourceId> = guard.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids
    }

    fn call(
        &self,
        source: SourceId,
        request: &Message,
        want_stats: bool,
    ) -> Result<TransportReply, TransportError> {
        let mut guard = self.sources.lock().unwrap_or_else(PoisonError::into_inner);
        let src = guard
            .iter_mut()
            .find(|s| s.id == source)
            .ok_or(TransportError::UnknownSource(source))?;
        Ok(src
            .serve(request)
            .into_reply(want_stats, request.wire_size()))
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
    /// Source-reported phase split, read with `service` (zero without it).
    pub phases: PhaseTimings,
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
        for elapsed in [service, reply.phases.traversal, reply.phases.verify] {
            put_varint(&mut body, elapsed.as_nanos() as u64);
        }
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
        let mut a = SearchStats::default().to_array();
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
    let (service, phases) = if flags & FLAG_HAS_SERVICE != 0 {
        let mut nanos = || get_varint(&mut body, "timing").map(Duration::from_nanos);
        let service = nanos()?;
        let phases = PhaseTimings {
            traversal: nanos()?,
            verify: nanos()?,
        };
        (Some(service), phases)
    } else {
        (None, PhaseTimings::default())
    };
    let correlation_id = if flags & FLAG_HAS_CORRELATION != 0 {
        Some(get_varint(&mut body, "correlation id")?)
    } else {
        None
    };
    // No writer puts anything after the last block its flags announce.
    if body.has_remaining() {
        return Err(WireError::OutOfRange("frame body").into());
    }
    Ok(DecodedFrame {
        want_stats: flags & FLAG_WANT_STATS != 0,
        message,
        message_bytes,
        search,
        maintenance,
        service,
        phases,
        correlation_id,
    })
}

/// Cooperative shutdown for [`serve_source_until`]: triggering the signal
/// stops the accept loop and *drains* the server — every connection answers
/// the request it has read and then closes between frames, instead of dying
/// mid-frame; a peer that has stalled mid-request is dropped.  Cloning shares the
/// signal, so one signal can fan out to the accept loop, its connection
/// handlers, and whatever (test, stdin watcher, signal handler) pulls the
/// trigger.
#[derive(Clone, Debug, Default)]
pub struct ShutdownSignal {
    state: std::sync::Arc<SignalState>,
}

#[derive(Debug, Default)]
struct SignalState {
    triggered: std::sync::atomic::AtomicBool,
    /// The addresses of the listeners whose accept loops wait on this
    /// signal: a trigger connects to each once, so a blocked `accept`
    /// returns and sees the flag.
    listeners: Mutex<Vec<std::net::SocketAddr>>,
}

/// How long a trigger waits for the loopback connection that wakes an
/// accept loop.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

impl ShutdownSignal {
    /// A fresh, untriggered signal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests shutdown and wakes every accept loop waiting on the signal
    /// with one loopback connection each.  Idempotent.
    pub fn trigger(&self) {
        self.state
            .triggered
            .store(true, std::sync::atomic::Ordering::Release);
        let listeners = self
            .state
            .listeners
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for addr in listeners.iter() {
            let _ = TcpStream::connect_timeout(addr, WAKE_TIMEOUT);
        }
    }

    /// Whether shutdown has been requested.
    pub fn is_triggered(&self) -> bool {
        self.state
            .triggered
            .load(std::sync::atomic::Ordering::Acquire)
    }

    /// Registers a listener to wake on trigger until the returned guard is
    /// dropped.  A wildcard address is woken on the loopback address of its
    /// family.
    fn wake_listener(&self, mut addr: std::net::SocketAddr) -> WakeGuard<'_> {
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                std::net::SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                std::net::SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        self.state
            .listeners
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(addr);
        WakeGuard { signal: self, addr }
    }
}

/// Unregisters a listener from its [`ShutdownSignal`] when dropped.
struct WakeGuard<'a> {
    signal: &'a ShutdownSignal,
    addr: std::net::SocketAddr,
}

impl Drop for WakeGuard<'_> {
    fn drop(&mut self) {
        let mut listeners = (self.signal.state.listeners)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(at) = listeners.iter().position(|a| *a == self.addr) {
            listeners.swap_remove(at);
        }
    }
}

/// How long a connection's read or write waits before it looks at the
/// shutdown signal, between frames and inside one.
const SHUTDOWN_POLL: Duration = Duration::from_millis(25);

/// Whether a read or write on a socket with a timeout ended by timing out
/// (the OS reports it as either kind).
fn timed_out(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Upper bound on the drain after shutdown is triggered, which otherwise
/// ends as the last connection thread does: connections still serving a
/// request by then are abandoned to their detached threads.  Generous — a
/// frame is one request/reply exchange, not a session, and a stalled peer
/// is dropped within a [`SHUTDOWN_POLL`].
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
/// serves framed requests against `source` until `shutdown` triggers, or
/// until the listener keeps failing, which triggers it.  Then the loop stops
/// accepting, every open connection answers the request it has read and
/// closes between frames (a peer stalled mid-request, or not reading its
/// reply, is dropped within a 25 ms read or write timeout), and the call
/// returns when the last connection thread ends, or after [`DRAIN_GRACE`].
///
/// Connections are handled on their own threads; the source sits behind a
/// read-write lock so concurrent queries proceed in parallel while a
/// maintenance batch gets exclusive access.
pub fn serve_source_until(listener: TcpListener, source: DataSource, shutdown: ShutdownSignal) {
    let source = std::sync::Arc::new(std::sync::RwLock::new(source));
    // Every connection thread holds a sender and never sends: the receiver
    // disconnects when the last of them ends.
    let (open, drained) = std::sync::mpsc::channel::<()>();
    // Blocking accepts: a trigger wakes the loop with a connection of its
    // own, registered before the first look at the flag so none is missed.
    let _wake = match listener
        .set_nonblocking(false)
        .and_then(|()| listener.local_addr())
    {
        Ok(addr) => shutdown.wake_listener(addr),
        Err(e) => {
            eprintln!("source server: listener unusable: {e}");
            return;
        }
    };
    // Transient accept failures (ECONNABORTED, fd exhaustion under load)
    // must not shut the source down; only a persistently failing listener
    // ends the loop.
    let mut consecutive_failures = 0u32;
    while !shutdown.is_triggered() {
        let stream = match listener.accept() {
            // The trigger's wake-up, or a peer that raced it: either way
            // the server is draining and serves no new connection.
            Ok(_) if shutdown.is_triggered() => break,
            Ok((stream, _peer)) => stream,
            Err(e) => {
                consecutive_failures += 1;
                eprintln!(
                    "source {}: accept failed: {e}",
                    source.read().unwrap_or_else(PoisonError::into_inner).id
                );
                if consecutive_failures >= 100 {
                    shutdown.trigger();
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        consecutive_failures = 0;
        let source = std::sync::Arc::clone(&source);
        let signal = shutdown.clone();
        let open = open.clone();
        std::thread::spawn(move || {
            let _open = open; // dropped as the thread ends, even by a panic
            let _ = serve_connection(stream, &source, &signal);
        });
    }
    // Drain: connections notice the signal between frames (via their idle
    // poll) and close themselves; wait for them, but not forever.
    drop(open);
    let _ = drained.recv_timeout(DRAIN_GRACE);
}

/// Serves framed request/reply exchanges on one connection until the peer
/// hangs up, sends garbage, or `shutdown` triggers.
///
/// Every read and write waits at most [`SHUTDOWN_POLL`] and looks at the
/// signal when it times out.  Between frames (a `peek` that consumes
/// nothing) a triggered signal closes the connection.  Inside a frame the
/// read or write resumes after each timeout, so a slow peer is still
/// served, until the signal triggers: then a peer that has stalled
/// mid-request, or stopped reading its replies, is dropped, and its
/// connection does not outlive the drain.  A request that has fully arrived
/// is always served, and answered unless its peer stopped reading.
fn serve_connection(
    stream: TcpStream,
    source: &std::sync::RwLock<DataSource>,
    shutdown: &ShutdownSignal,
) -> Result<(), FrameError> {
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(SHUTDOWN_POLL))?;
    stream.set_write_timeout(Some(SHUTDOWN_POLL))?;
    let mut until_shutdown = UntilShutdown {
        stream: &stream,
        shutdown,
    };
    loop {
        match stream.peek(&mut [0u8; 1]) {
            Ok(0) => return Ok(()), // clean disconnect between frames
            Ok(_) => {}
            Err(e) if timed_out(&e) => {
                if shutdown.is_triggered() {
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
        let frame = match read_frame(&mut until_shutdown) {
            Ok(frame) => frame,
            // Clean disconnect between frames, or a stalled peer at shutdown.
            Err(FrameError::Io(e))
                if e.kind() == std::io::ErrorKind::UnexpectedEof || timed_out(&e) =>
            {
                return Ok(())
            }
            Err(other) => return Err(other),
        };
        let served = if frame.message.mutates() {
            source
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .serve(&frame.message)
        } else {
            // Read path: summary polls and queries never mutate, so they
            // share the read lock (and the exact dispatch the in-process
            // transport uses).
            source
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .serve_readonly(&frame.message)
        };
        // Echo the pipelining correlation id verbatim; the source itself
        // never sees it.
        match write_frame(
            &mut until_shutdown,
            &served.as_asked(frame.want_stats, frame.correlation_id),
            false,
        ) {
            Ok(_) => {}
            // A peer that stopped reading, dropped at shutdown.
            Err(e) if timed_out(&e) => return Ok(()),
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
}

/// A connection while a frame is in flight, either way: a read or write that
/// times out ([`SHUTDOWN_POLL`]) is resumed, unless the signal has
/// triggered.  A timed-out read consumed nothing and a timed-out write sent
/// nothing, so resuming loses no byte.
struct UntilShutdown<'a> {
    stream: &'a TcpStream,
    shutdown: &'a ShutdownSignal,
}

impl Read for UntilShutdown<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Err(e) if timed_out(&e) && !self.shutdown.is_triggered() => {}
                result => return result,
            }
        }
    }
}

impl Write for UntilShutdown<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        loop {
            match self.stream.write(buf) {
                Err(e) if timed_out(&e) && !self.shutdown.is_triggered() => {}
                result => return result,
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
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
            (Some(SearchStats::from_array([1, 2, 3, 4, 5, 6, 7])), None),
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
            assert_eq!(frame.phases, PhaseTimings::default());
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
        let plain = ServedReply::plain(msg.clone())
            .with_timing(Duration::from_nanos(11), PhaseTimings::default());
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
        assert_eq!(frame.service, Some(Duration::from_nanos(11)));
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
        // The reply frame of a pipelined call with statistics: every block
        // at once.
        let served =
            ServedReply::search(msg.clone(), SearchStats::from_array([1, 2, 3, 4, 5, 6, 7]))
                .with_timing(Duration::from_micros(42), phases)
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
        assert_eq!(frame.phases, phases);
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
            SearchStats::from_array([9, 8, 7, 6, 5, 4, 3]),
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

    /// A correlated request frame and a reply frame carrying statistics and
    /// timing, each as written and read back once.
    fn request_and_reply_frames() -> [(ServedReply, Vec<u8>); 2] {
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
            SearchStats::from_array([9, 8, 7, 6, 5, 4, 3]),
        )
        .with_timing(Duration::from_nanos(3), PhaseTimings::default());
        [(request, true), (reply, false)].map(|(served, want_stats)| {
            let mut buf = Vec::new();
            write_frame(&mut buf, &served, want_stats).unwrap();
            assert!(read_frame(&mut &buf[..]).is_ok());
            (served, buf)
        })
    }

    /// Every bit of the flags byte no writer sets — the retired bit 4 among
    /// them — is refused on a request or a reply frame, not read as the
    /// frame without it.
    #[test]
    fn unknown_frame_flags_are_refused() {
        let unknown: Vec<u32> = (0..8)
            .filter(|bit| !KNOWN_FLAGS & (1 << bit) != 0)
            .collect();
        assert!(unknown.contains(&4), "bit 4 is retired, never reused");
        for (served, buf) in request_and_reply_frames() {
            for &bit in &unknown {
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

    /// A body longer than the blocks its flags announce is refused, not read
    /// as the frame without the extra byte.
    #[test]
    fn trailing_frame_bytes_are_refused() {
        for (served, mut raw) in request_and_reply_frames() {
            raw.push(0);
            let len = u32::try_from(raw.len() - 4).unwrap();
            raw[..4].copy_from_slice(&len.to_be_bytes());
            assert!(
                matches!(
                    read_frame(&mut &raw[..]),
                    Err(FrameError::Wire(WireError::OutOfRange("frame body")))
                ),
                "{served:?} with one trailing byte"
            );
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
        // Mutation needs the exclusive transport: the source itself refuses
        // a batch on its read path, and its index stays as it was.
        let before = sources[0].index().clone();
        let refused = t
            .call(
                0,
                &Message::ApplyUpdates {
                    resolution: 10,
                    ops: vec![crate::message::CellOp::Delete(0)],
                },
                false,
            )
            .unwrap();
        assert!(matches!(
            refused.message,
            Message::Error {
                code: crate::message::ERR_UNSUPPORTED,
                ..
            }
        ));
        assert_eq!(sources[0].index(), &before);
        assert_eq!(
            t.call(9, &query, false).unwrap_err(),
            TransportError::UnknownSource(9)
        );
    }

    /// A server that gives up on its listener still drains: it triggers the
    /// signal and waits for its connections instead of returning under
    /// them, and a connection in the middle of a frame when accepts start
    /// failing is closed by the drain, well inside the grace.  Shutting the
    /// listening socket down for reads, through a second handle on it, fails
    /// every later accept.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_listener_given_up_on_still_drains() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let breaker = TcpStream::from(std::os::fd::OwnedFd::from(listener.try_clone().unwrap()));
        let signal = ShutdownSignal::new();
        let given_up = signal.clone();
        let server =
            std::thread::spawn(move || serve_source_until(listener, tiny_source(0), signal));
        let (mut frame, poll) = (Vec::new(), ServedReply::plain(Message::summary_poll()));
        write_frame(&mut frame, &poll, false).unwrap();
        // One whole exchange first, so the connection is the server's.
        client.write_all(&frame).unwrap();
        read_frame(&mut client).unwrap();
        client.write_all(&frame[..4]).unwrap();
        breaker.shutdown(std::net::Shutdown::Read).unwrap();
        // A hundred failed accepts, ten milliseconds apart, trigger the drain.
        let started = std::time::Instant::now();
        while !given_up.is_triggered() {
            assert!(!server.is_finished(), "returned with a frame in flight");
            assert!(
                started.elapsed() < Duration::from_secs(30),
                "accepts never failed"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let triggered = std::time::Instant::now();
        server.join().unwrap();
        assert!(
            triggered.elapsed() < DRAIN_GRACE / 5,
            "drained {:?} after the trigger",
            triggered.elapsed()
        );
        assert_closed(&mut client);
    }

    /// The server's end of `client` is closed: a read sees end of file (or a
    /// reset) at once, not a timeout.
    fn assert_closed(client: &mut TcpStream) {
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        match client.read(&mut [0u8; 1]) {
            Ok(n) => assert_eq!(n, 0, "the connection is still served"),
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset),
        }
    }

    /// A peer that pauses mid-frame is still served; one that stalls there
    /// is dropped once shutdown triggers, so the server drains at its next
    /// poll instead of waiting out the grace with the connection thread
    /// blocked in the frame.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_peer_stalled_mid_frame_does_not_hold_the_drain() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let signal = ShutdownSignal::new();
        let trigger = signal.clone();
        let server =
            std::thread::spawn(move || serve_source_until(listener, tiny_source(0), signal));
        let (mut frame, poll) = (Vec::new(), ServedReply::plain(Message::summary_poll()));
        write_frame(&mut frame, &poll, false).unwrap();
        // A slow peer: two header bytes, a pause of several polls, the rest.
        let (head, tail) = frame.split_at(2);
        client.write_all(head).unwrap();
        std::thread::sleep(SHUTDOWN_POLL * 4);
        client.write_all(tail).unwrap();
        let reply = read_frame(&mut client).unwrap().message;
        assert!(matches!(reply, Message::SummaryRefresh { .. }));
        // A stalled one: two header bytes, then nothing.
        client.write_all(head).unwrap();
        std::thread::sleep(SHUTDOWN_POLL * 4);
        assert!(!server.is_finished());
        let triggered = std::time::Instant::now();
        trigger.trigger();
        server.join().unwrap();
        assert!(
            triggered.elapsed() < DRAIN_GRACE / 5,
            "drained {:?} after the trigger",
            triggered.elapsed()
        );
        assert_closed(&mut client);
    }

    /// A peer that sends requests and never reads the replies fills both
    /// directions' socket buffers, so the server blocks writing a reply; once
    /// shutdown triggers, that write gives up within a poll and the server
    /// drains instead of waiting out the grace.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_peer_that_never_reads_does_not_hold_the_drain() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let signal = ShutdownSignal::new();
        let trigger = signal.clone();
        let server =
            std::thread::spawn(move || serve_source_until(listener, tiny_source(0), signal));
        let (mut frame, poll) = (Vec::new(), ServedReply::plain(Message::summary_poll()));
        write_frame(&mut frame, &poll, false).unwrap();
        // Whole frames only, so the server never sees a torn one.
        let batch = frame.repeat((64 << 10) / frame.len());
        client.set_write_timeout(Some(SHUTDOWN_POLL * 4)).unwrap();
        let started = std::time::Instant::now();
        loop {
            match client.write_all(&batch) {
                Ok(()) => {}
                Err(e) if timed_out(&e) => break,
                Err(e) => panic!("writing polls: {e}"),
            }
            assert!(
                started.elapsed() < Duration::from_secs(30),
                "the server kept reading"
            );
        }
        assert!(!server.is_finished());
        let triggered = std::time::Instant::now();
        trigger.trigger();
        server.join().unwrap();
        assert!(
            triggered.elapsed() < Duration::from_secs(1),
            "drained {:?} after the trigger",
            triggered.elapsed()
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
