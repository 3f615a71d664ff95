//! The listener and surrogate threads.
//!
//! "There is a listener thread on the cluster (part of the server library)
//! that listens to new end devices joining a D-Stampede computation. Upon
//! joining, a specific surrogate thread is created on the cluster on
//! behalf of the new end device. All subsequent D-Stampede calls from this
//! end device are fielded and carried out by this specific surrogate
//! thread. ... The surrogate thread ceases to exist when the end device
//! goes away." (paper §3.2.2)
//!
//! Sessions negotiate their codec with a single identification byte (XDR
//! for C clients, JDR for Java clients) and then exchange length-prefixed
//! frames. If a client vanishes without detaching — a crash, the failure
//! case the paper lists as unhandled (§3.3) — the surrogate tears the
//! session down anyway: its connections drop, releasing GC claims and
//! requeueing in-flight queue items. That cleanup is this implementation's
//! extension over the paper.

use std::collections::HashMap;
use std::fmt;
use std::future::Future;
use std::io::Read;
#[cfg(test)]
use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::Poll;
use std::time::Duration;

use parking_lot::Mutex;

use bytes::Bytes;
use dstampede_core::StmError;
use dstampede_obs::trace;
use dstampede_obs::trace::TraceContext;
use dstampede_wire::{
    codec_for, read_frame_bytes, write_encoded, CodecId, EncodedFrame, Reply, ReplyFrame, Request,
    WaitSpec, MAX_FRAME,
};

use crate::addrspace::AddressSpace;
use crate::exec::{
    execute, register_parked_waker, reply_would_block, rewrite_nonblocking, shim_plan, wait_of,
    ConnTable, GcNoteQueue, ShimPlan,
};
use crate::reactor::{AsyncTcpListener, AsyncTcpStream, PeriodicHandle, Reactor, Sleep};

/// Tuning for a listener's surrogate sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ListenerConfig {
    /// Tears a session down when the end device sends nothing for this
    /// long — the session lease. Long-idle clients keep their lease alive
    /// with [`Request::Heartbeat`] (any request renews it). `None`
    /// disables the lease: a vanished client is only noticed when the
    /// kernel reports the TCP connection gone.
    pub session_lease: Option<Duration>,
    /// Upper bound on concurrently active surrogate sessions. A
    /// connection arriving at capacity is shed with a clean reject frame
    /// (an [`StmError::Full`]-coded error answering its first request)
    /// instead of growing the session set without bound. `None` admits
    /// every connection.
    pub max_sessions: Option<usize>,
}

/// How a surrogate session ended.
enum SessionEnd {
    /// The client sent `Detach`.
    Clean,
    /// I/O or protocol error — the client crashed or corrupted the stream.
    Dirty,
    /// The session lease expired without traffic.
    LeaseExpired,
}

/// Counters describing a listener's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ListenerStats {
    /// Sessions accepted so far.
    pub sessions_started: u64,
    /// Sessions that ended with a clean `Detach`.
    pub clean_detaches: u64,
    /// Sessions that ended on I/O or protocol error (client crash).
    pub dirty_teardowns: u64,
    /// Sessions torn down because their lease expired (silent client).
    pub lease_teardowns: u64,
    /// Connections shed at the [`ListenerConfig::max_sessions`] cap.
    pub sessions_rejected: u64,
    /// Surrogates currently alive.
    pub active_surrogates: usize,
}

#[derive(Debug, Default)]
struct ListenerCounters {
    sessions_started: AtomicU64,
    clean_detaches: AtomicU64,
    dirty_teardowns: AtomicU64,
    lease_teardowns: AtomicU64,
    sessions_rejected: AtomicU64,
    active: AtomicUsize,
}

/// The same lifecycle events mirrored into the address space's metrics
/// registry, so session churn is visible to `stats`, snapshots, and the
/// flight recorder's `sessions` health subject (the local-only
/// [`ListenerStats`] view predates the registry and is kept for tests).
/// Arcs are resolved once at listener startup; the per-session path
/// pays only the atomic bumps.
struct SessionMetrics {
    started: Arc<dstampede_obs::Counter>,
    clean: Arc<dstampede_obs::Counter>,
    dirty: Arc<dstampede_obs::Counter>,
    lease: Arc<dstampede_obs::Counter>,
    rejected: Arc<dstampede_obs::Counter>,
    active: Arc<dstampede_obs::Gauge>,
}

impl SessionMetrics {
    fn for_space(space: &AddressSpace) -> Self {
        let m = space.metrics();
        SessionMetrics {
            started: m.counter("session", "started"),
            clean: m.counter("session", "clean_detaches"),
            dirty: m.counter("session", "dirty_teardowns"),
            lease: m.counter("session", "lease_teardowns"),
            rejected: m.counter("session", "rejected"),
            active: m.gauge("session", "active"),
        }
    }
}

/// Per-session state shared between a reactor surrogate, the lease
/// reaper, and listener shutdown. Reactor surrogates cannot use
/// `set_read_timeout` (the socket is nonblocking), so one periodic task
/// scans these slots and shuts down the socket of any session whose
/// pending frame read has outlived the lease; the surrogate's read then
/// fails and `expired` tells it why. [`Listener::shutdown`] closes every
/// registered socket the same way: a frozen executor cannot answer
/// clients, so their sockets must deliver EOF instead (the legacy path
/// does not need this — its surrogate threads outlive the listener).
struct LeaseSlot {
    /// Tick at which the current frame read started.
    read_started: Arc<AtomicU64>,
    /// Whether the surrogate is currently parked in a frame read. The
    /// lease clocks only the wait for the *next request*, matching the
    /// legacy read-timeout semantics: a long-blocking STM call does not
    /// expire the session.
    reading: Arc<AtomicBool>,
    /// Set by the reaper before shutting the socket down.
    expired: Arc<AtomicBool>,
    /// Shares the surrogate's descriptor rather than duplicating it:
    /// one fd per session instead of two at 10⁴ sessions.
    sock: std::sync::Arc<std::net::TcpStream>,
}

type LeaseTable = Arc<Mutex<HashMap<u64, LeaseSlot>>>;

/// A TCP listener accepting end devices into an address space.
pub struct Listener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    counters: Arc<ListenerCounters>,
    accept_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    reaper: Mutex<Option<PeriodicHandle>>,
    reactor_mode: bool,
    /// Reactor-mode session sockets, closed on shutdown (empty in legacy
    /// mode, where surrogate threads survive the listener).
    sessions: LeaseTable,
}

impl Listener {
    /// Starts a listener for the given address space on an ephemeral
    /// loopback port, with no session lease.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn start(space: Arc<AddressSpace>) -> std::io::Result<Arc<Listener>> {
        Listener::start_with(space, ListenerConfig::default())
    }

    /// Starts a listener with explicit session tuning.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn start_with(
        space: Arc<AddressSpace>,
        config: ListenerConfig,
    ) -> std::io::Result<Arc<Listener>> {
        let tcp = TcpListener::bind("127.0.0.1:0")?;
        let addr = tcp.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(ListenerCounters::default());

        let loop_stop = Arc::clone(&stop);
        let loop_counters = Arc::clone(&counters);
        let handle = std::thread::Builder::new()
            .name(format!("as-{}-listener", space.id().0))
            .spawn(move || {
                accept_loop(&space, &tcp, config, &loop_stop, &loop_counters);
            })?;

        Ok(Arc::new(Listener {
            addr,
            stop,
            counters,
            accept_thread: Mutex::new(Some(handle)),
            reaper: Mutex::new(None),
            reactor_mode: false,
            sessions: Arc::new(Mutex::new(HashMap::new())),
        }))
    }

    /// Starts a listener whose accept loop and surrogates run as reactor
    /// tasks instead of dedicated threads: one parked state machine per
    /// session, O(cores) threads total. Wire clients cannot tell the two
    /// modes apart.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn start_reactor(
        space: Arc<AddressSpace>,
        config: ListenerConfig,
        reactor: &Reactor,
    ) -> std::io::Result<Arc<Listener>> {
        let tcp = TcpListener::bind("127.0.0.1:0")?;
        let addr = tcp.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(ListenerCounters::default());
        let leases: LeaseTable = Arc::new(Mutex::new(HashMap::new()));

        let reaper = config.session_lease.map(|lease| {
            let lease_ticks = reactor.ticks_of(lease).max(1);
            let period =
                Duration::from_millis(u64::try_from(lease.as_millis() / 4).unwrap_or(u64::MAX))
                    .clamp(Duration::from_millis(10), Duration::from_secs(1));
            let reaper_reactor = reactor.clone();
            let reaper_leases = Arc::clone(&leases);
            reactor.spawn_periodic(period, move || {
                let now = reaper_reactor.now_tick();
                for slot in reaper_leases.lock().values() {
                    if slot.reading.load(Ordering::Acquire)
                        && now.saturating_sub(slot.read_started.load(Ordering::Acquire))
                            > lease_ticks
                    {
                        slot.expired.store(true, Ordering::Release);
                        let _ = slot.sock.shutdown(std::net::Shutdown::Both);
                    }
                }
                true
            })
        });

        let accepter = AsyncTcpListener::new(tcp, reactor)?;
        let accept_stop = Arc::clone(&stop);
        let accept_counters = Arc::clone(&counters);
        let accept_reactor = reactor.clone();
        let accept_leases = Arc::clone(&leases);
        reactor.spawn(async move {
            let metrics = Arc::new(SessionMetrics::for_space(&space));
            let mut next_session: u64 = 1;
            loop {
                let Ok((stream, _)) = accepter.accept().await else {
                    break;
                };
                if accept_stop.load(Ordering::Acquire) {
                    break;
                }
                let at_capacity = config
                    .max_sessions
                    .is_some_and(|max| accept_counters.active.load(Ordering::Relaxed) >= max);
                if at_capacity {
                    accept_counters
                        .sessions_rejected
                        .fetch_add(1, Ordering::Relaxed);
                    metrics.rejected.inc();
                    let reject_reactor = accept_reactor.clone();
                    accept_reactor.spawn(async move {
                        reject_session_async(stream, &reject_reactor).await;
                    });
                    continue;
                }
                let session = next_session;
                next_session += 1;
                accept_counters
                    .sessions_started
                    .fetch_add(1, Ordering::Relaxed);
                accept_counters.active.fetch_add(1, Ordering::Relaxed);
                metrics.started.inc();
                metrics.active.inc();
                let surrogate_space = Arc::clone(&space);
                let surrogate_counters = Arc::clone(&accept_counters);
                let surrogate_metrics = Arc::clone(&metrics);
                let surrogate_reactor = accept_reactor.clone();
                let surrogate_leases = Arc::clone(&accept_leases);
                accept_reactor.spawn(async move {
                    let end = run_surrogate_async(
                        &surrogate_space,
                        &surrogate_reactor,
                        stream,
                        session,
                        &surrogate_leases,
                    )
                    .await;
                    let (counter, metric) = match end {
                        SessionEnd::Clean => {
                            (&surrogate_counters.clean_detaches, &surrogate_metrics.clean)
                        }
                        SessionEnd::Dirty => (
                            &surrogate_counters.dirty_teardowns,
                            &surrogate_metrics.dirty,
                        ),
                        SessionEnd::LeaseExpired => (
                            &surrogate_counters.lease_teardowns,
                            &surrogate_metrics.lease,
                        ),
                    };
                    counter.fetch_add(1, Ordering::Relaxed);
                    metric.inc();
                    surrogate_counters.active.fetch_sub(1, Ordering::Relaxed);
                    surrogate_metrics.active.dec();
                });
            }
        });

        Ok(Arc::new(Listener {
            addr,
            stop,
            counters,
            accept_thread: Mutex::new(None),
            reaper: Mutex::new(reaper),
            reactor_mode: true,
            sessions: leases,
        }))
    }

    /// The address end devices connect to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of session counters.
    #[must_use]
    pub fn stats(&self) -> ListenerStats {
        ListenerStats {
            sessions_started: self.counters.sessions_started.load(Ordering::Relaxed),
            clean_detaches: self.counters.clean_detaches.load(Ordering::Relaxed),
            dirty_teardowns: self.counters.dirty_teardowns.load(Ordering::Relaxed),
            lease_teardowns: self.counters.lease_teardowns.load(Ordering::Relaxed),
            sessions_rejected: self.counters.sessions_rejected.load(Ordering::Relaxed),
            active_surrogates: self.counters.active.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting new sessions (existing surrogates run on).
    pub fn shutdown(&self) {
        if !self.stop.swap(true, Ordering::AcqRel) {
            // Poke the blocked accept (thread or reactor task) so it
            // observes `stop` and exits.
            let _ = std::net::TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        }
        if let Some(h) = self.accept_thread.lock().take() {
            let _ = h.join();
        }
        if let Some(p) = self.reaper.lock().take() {
            p.cancel();
        }
        if self.reactor_mode {
            // Close every live session socket: once the executor stops,
            // frozen surrogate tasks can never answer again, so clients
            // (including connection-handle drops sending `Disconnect`)
            // must see EOF rather than hang. Surrogates parked in a frame
            // read finish now, while the workers are still running.
            for slot in self.sessions.lock().values() {
                let _ = slot.sock.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl fmt::Debug for Listener {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Listener")
            .field("addr", &self.addr)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    space: &Arc<AddressSpace>,
    tcp: &TcpListener,
    config: ListenerConfig,
    stop: &Arc<AtomicBool>,
    counters: &Arc<ListenerCounters>,
) {
    let metrics = Arc::new(SessionMetrics::for_space(space));
    let mut next_session: u64 = 1;
    // Blocks in `accept`; `Listener::shutdown` wakes it with a connection
    // of its own after raising `stop`.
    loop {
        let accepted = tcp.accept();
        if stop.load(Ordering::Acquire) {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                let at_capacity = config
                    .max_sessions
                    .is_some_and(|max| counters.active.load(Ordering::Relaxed) >= max);
                if at_capacity {
                    counters.sessions_rejected.fetch_add(1, Ordering::Relaxed);
                    metrics.rejected.inc();
                    reject_session(stream);
                    continue;
                }
                let session = next_session;
                next_session += 1;
                counters.sessions_started.fetch_add(1, Ordering::Relaxed);
                counters.active.fetch_add(1, Ordering::Relaxed);
                metrics.started.inc();
                metrics.active.inc();
                let surrogate_space = Arc::clone(space);
                let surrogate_counters = Arc::clone(counters);
                let surrogate_metrics = Arc::clone(&metrics);
                let spawned = std::thread::Builder::new()
                    .name(format!("surrogate-{session}"))
                    .spawn(move || {
                        let end = run_surrogate(&surrogate_space, stream, session, config);
                        let (counter, metric) = match end {
                            SessionEnd::Clean => {
                                (&surrogate_counters.clean_detaches, &surrogate_metrics.clean)
                            }
                            SessionEnd::Dirty => (
                                &surrogate_counters.dirty_teardowns,
                                &surrogate_metrics.dirty,
                            ),
                            SessionEnd::LeaseExpired => (
                                &surrogate_counters.lease_teardowns,
                                &surrogate_metrics.lease,
                            ),
                        };
                        counter.fetch_add(1, Ordering::Relaxed);
                        metric.inc();
                        surrogate_counters.active.fetch_sub(1, Ordering::Relaxed);
                        surrogate_metrics.active.dec();
                    });
                if spawned.is_err() {
                    counters.active.fetch_sub(1, Ordering::Relaxed);
                    metrics.active.dec();
                }
            }
            Err(_) => break,
        }
    }
}

/// Runs one surrogate session to completion.
fn run_surrogate(
    space: &Arc<AddressSpace>,
    mut stream: std::net::TcpStream,
    session: u64,
    config: ListenerConfig,
) -> SessionEnd {
    let _ = stream.set_nodelay(true);
    // The lease doubles as the read timeout: a client silent past it is
    // presumed crashed, and the session (with its connections and their
    // GC claims) is torn down instead of lingering forever.
    let _ = stream.set_read_timeout(config.session_lease);

    // Codec negotiation: one identification byte.
    let mut codec_byte = [0u8; 1];
    if stream.read_exact(&mut codec_byte).is_err() {
        return SessionEnd::Dirty;
    }
    let Ok(codec_id) = CodecId::from_byte(codec_byte[0]) else {
        return SessionEnd::Dirty;
    };
    let codec = codec_for(codec_id);

    let conns = ConnTable::new();
    let gc = Arc::new(GcNoteQueue::new());
    let latency = space.metrics().histogram("rpc", "surrogate_latency_us");

    loop {
        let frame = match read_frame_bytes(&mut stream) {
            Ok(f) => f,
            Err(e)
                if config.session_lease.is_some()
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                dstampede_obs::warn(
                    "listener",
                    format!("session {session} lease expired; tearing down"),
                );
                space
                    .metrics()
                    .counter("failure", "session_lease_expirations")
                    .inc();
                return SessionEnd::LeaseExpired; // conns drop: claims release
            }
            Err(_) => return SessionEnd::Dirty, // client went away
        };
        let request = match codec.decode_request(&frame) {
            Ok(r) => r,
            Err(_) => return SessionEnd::Dirty, // protocol corruption
        };
        let (reply, done, reply_trace) = match request.req {
            Request::Attach { .. } => (
                Reply::Attached {
                    session,
                    as_id: space.id(),
                },
                false,
                None,
            ),
            Request::Detach => (Reply::Ok, true, None),
            other => {
                // The end device's trace context becomes ambient while the
                // surrogate carries out the call on its behalf, so spans
                // recorded on the cluster parent under the device's span.
                let guard = trace::scope(request.trace);
                let started = std::time::Instant::now();
                let reply = execute(space, &conns, Some(&gc), None, other);
                latency.record_duration(started.elapsed());
                let reply_trace = trace::current();
                drop(guard);
                (reply, false, reply_trace)
            }
        };
        let reply_frame = ReplyFrame {
            seq: request.seq,
            gc_notes: gc.drain(),
            reply,
            trace: reply_trace,
        };
        let encoded = match codec.encode_reply(&reply_frame) {
            Ok(b) => b,
            Err(_) => return SessionEnd::Dirty,
        };
        if write_encoded(&mut stream, &encoded).is_err() {
            return SessionEnd::Dirty;
        }
        if done {
            return SessionEnd::Clean; // conns drop here: clean detach
        }
    }
}

/// The reply shed connections get at the session cap: a stable
/// [`StmError::Full`] code so clients can back off and retry, with a
/// detail string naming the real cause.
fn capacity_reply() -> Reply {
    Reply::Error {
        code: StmError::Full.code(),
        detail: "listener at max-sessions capacity; retry later".to_owned(),
    }
}

/// Sheds one legacy-path connection at capacity: negotiates the codec,
/// answers the first frame (the `Attach`) with [`capacity_reply`], and
/// closes. A short read timeout bounds how long a silent peer can stall
/// the accept loop.
fn reject_session(mut stream: std::net::TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut codec_byte = [0u8; 1];
    if stream.read_exact(&mut codec_byte).is_err() {
        return;
    }
    let Ok(codec_id) = CodecId::from_byte(codec_byte[0]) else {
        return;
    };
    let codec = codec_for(codec_id);
    let Ok(frame) = read_frame_bytes(&mut stream) else {
        return;
    };
    let Ok(request) = codec.decode_request(&frame) else {
        return;
    };
    let reply_frame = ReplyFrame {
        seq: request.seq,
        gc_notes: Vec::new(),
        reply: capacity_reply(),
        trace: None,
    };
    if let Ok(encoded) = codec.encode_reply(&reply_frame) {
        let _ = write_encoded(&mut stream, &encoded);
    }
}

/// Async twin of [`read_frame_bytes`], buffered: each `read` drains as
/// much as the socket holds, so a header+body frame costs one syscall
/// instead of two and a pipelined frame already buffered costs none.
struct FrameReader {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameReader {
    fn new() -> FrameReader {
        FrameReader {
            buf: vec![0; 8 * 1024],
            start: 0,
            end: 0,
        }
    }

    fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Pulls more bytes off the socket, compacting (and growing, bounded
    /// by the `MAX_FRAME` check in `read_frame`) so at least `need`
    /// bytes of spare room exist.
    async fn fill(&mut self, stream: &AsyncTcpStream, need: usize) -> std::io::Result<()> {
        if self.start > 0 && (self.start == self.end || self.buf.len() - self.end < need) {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() < self.end + need {
            self.buf.resize(self.end + need, 0);
        }
        let n = stream.read_some(&mut self.buf[self.end..]).await?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "peer closed mid-read",
            ));
        }
        self.end += n;
        Ok(())
    }

    async fn read_frame(&mut self, stream: &AsyncTcpStream) -> std::io::Result<Bytes> {
        while self.buffered() < 4 {
            self.fill(stream, 4 - self.buffered()).await?;
        }
        let header: [u8; 4] = self.buf[self.start..self.start + 4]
            .try_into()
            .expect("4 buffered bytes");
        let len = u32::from_be_bytes(header) as usize;
        if len > MAX_FRAME {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds limit"),
            ));
        }
        while self.buffered() < 4 + len {
            self.fill(stream, 4 + len - self.buffered()).await?;
        }
        let mut payload = dstampede_wire::pool::get(len).into_vec();
        payload.clear();
        payload.extend_from_slice(&self.buf[self.start + 4..self.start + 4 + len]);
        self.start += 4 + len;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        Ok(Bytes::from(payload))
    }
}

/// Async twin of [`write_encoded`]: header and segments flattened into
/// one buffer (no vectored nonblocking write in std).
async fn write_encoded_async(stream: &AsyncTcpStream, frame: &EncodedFrame) -> std::io::Result<()> {
    if frame.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds limit", frame.len()),
        ));
    }
    let mut buf = Vec::with_capacity(4 + frame.len());
    buf.extend_from_slice(&u32::try_from(frame.len()).unwrap_or(u32::MAX).to_be_bytes());
    for seg in frame.segments() {
        buf.extend_from_slice(seg);
    }
    stream.write_all(&buf).await
}

/// Races `fut` against an absolute-tick deadline. `None` on timeout.
async fn with_deadline<F: Future + Unpin>(mut sleep: Sleep, mut fut: F) -> Option<F::Output> {
    std::future::poll_fn(move |cx| {
        if let Poll::Ready(v) = Pin::new(&mut fut).poll(cx) {
            return Poll::Ready(Some(v));
        }
        if Pin::new(&mut sleep).poll(cx).is_ready() {
            return Poll::Ready(None);
        }
        Poll::Pending
    })
    .await
}

/// Reactor twin of [`reject_session`], bounded by a timer-wheel deadline
/// instead of a read timeout.
async fn reject_session_async(stream: std::net::TcpStream, reactor: &Reactor) {
    let _ = stream.set_nodelay(true);
    let Ok(stream) = AsyncTcpStream::new(stream, reactor) else {
        return;
    };
    let sleep = reactor.sleep(Duration::from_millis(200));
    let exchange = Box::pin(async {
        let mut codec_byte = [0u8; 1];
        stream.read_exact(&mut codec_byte).await.ok()?;
        let codec_id = CodecId::from_byte(codec_byte[0]).ok()?;
        let codec = codec_for(codec_id);
        let frame = FrameReader::new().read_frame(&stream).await.ok()?;
        let request = codec.decode_request(&frame).ok()?;
        let reply_frame = ReplyFrame {
            seq: request.seq,
            gc_notes: Vec::new(),
            reply: capacity_reply(),
            trace: None,
        };
        let encoded = codec.encode_reply(&reply_frame).ok()?;
        write_encoded_async(&stream, &encoded).await.ok()
    });
    let _ = with_deadline(sleep, exchange).await;
}

/// Runs one surrogate session as a reactor task, registering its lease
/// slot for the reaper while it lives.
async fn run_surrogate_async(
    space: &Arc<AddressSpace>,
    reactor: &Reactor,
    stream: std::net::TcpStream,
    session: u64,
    leases: &LeaseTable,
) -> SessionEnd {
    let _ = stream.set_nodelay(true);
    let stream = std::sync::Arc::new(stream);
    let read_started = Arc::new(AtomicU64::new(reactor.now_tick()));
    let reading = Arc::new(AtomicBool::new(false));
    let expired = Arc::new(AtomicBool::new(false));
    // Registered for every session, not only leased ones: listener
    // shutdown needs the socket to deliver EOF to the client.
    leases.lock().insert(
        session,
        LeaseSlot {
            read_started: Arc::clone(&read_started),
            reading: Arc::clone(&reading),
            expired: Arc::clone(&expired),
            sock: std::sync::Arc::clone(&stream),
        },
    );
    let end = surrogate_frames(space, reactor, stream, session, &read_started, &reading).await;
    leases.lock().remove(&session);
    if matches!(end, SessionEnd::Dirty) && expired.load(Ordering::Acquire) {
        dstampede_obs::warn(
            "listener",
            format!("session {session} lease expired; tearing down"),
        );
        space
            .metrics()
            .counter("failure", "session_lease_expirations")
            .inc();
        return SessionEnd::LeaseExpired;
    }
    end
}

/// The reactor surrogate's frame loop — mirrors [`run_surrogate`], with
/// blocking requests dispatched per [`shim_plan`] so a wait parks this
/// task, never a worker thread.
async fn surrogate_frames(
    space: &Arc<AddressSpace>,
    reactor: &Reactor,
    stream: std::sync::Arc<std::net::TcpStream>,
    session: u64,
    read_started: &AtomicU64,
    reading: &AtomicBool,
) -> SessionEnd {
    let Ok(stream) = AsyncTcpStream::from_shared(stream, reactor) else {
        return SessionEnd::Dirty;
    };

    let mut codec_byte = [0u8; 1];
    read_started.store(reactor.now_tick(), Ordering::Release);
    reading.store(true, Ordering::Release);
    let negotiated = stream.read_exact(&mut codec_byte).await;
    reading.store(false, Ordering::Release);
    if negotiated.is_err() {
        return SessionEnd::Dirty;
    }
    let Ok(codec_id) = CodecId::from_byte(codec_byte[0]) else {
        return SessionEnd::Dirty;
    };
    let codec = codec_for(codec_id);

    let conns = Arc::new(ConnTable::new());
    let gc = Arc::new(GcNoteQueue::new());
    let latency = space.metrics().histogram("rpc", "surrogate_latency_us");
    let mut frames = FrameReader::new();

    loop {
        read_started.store(reactor.now_tick(), Ordering::Release);
        reading.store(true, Ordering::Release);
        let frame = frames.read_frame(&stream).await;
        reading.store(false, Ordering::Release);
        let Ok(frame) = frame else {
            return SessionEnd::Dirty; // client (or the lease reaper) closed
        };
        let request = match codec.decode_request(&frame) {
            Ok(r) => r,
            Err(_) => return SessionEnd::Dirty, // protocol corruption
        };
        let (reply, done, reply_trace) = match request.req {
            Request::Attach { .. } => (
                Reply::Attached {
                    session,
                    as_id: space.id(),
                },
                false,
                None,
            ),
            Request::Detach => (Reply::Ok, true, None),
            other => {
                let started = std::time::Instant::now();
                let (reply, reply_trace) =
                    dispatch_shimmed(space, reactor, &conns, &gc, other, request.trace).await;
                latency.record_duration(started.elapsed());
                (reply, false, reply_trace)
            }
        };
        let reply_frame = ReplyFrame {
            seq: request.seq,
            gc_notes: gc.drain(),
            reply,
            trace: reply_trace,
        };
        let encoded = match codec.encode_reply(&reply_frame) {
            Ok(b) => b,
            Err(_) => return SessionEnd::Dirty,
        };
        if write_encoded_async(&stream, &encoded).await.is_err() {
            return SessionEnd::Dirty;
        }
        if done {
            return SessionEnd::Clean; // conns drop here: clean detach
        }
    }
}

/// Executes one surrogate request under the shim discipline: inline when
/// it cannot block, parked on the container's waker set when the wakeup
/// is local, offloaded to a blocking thread otherwise. The end device's
/// trace context is scoped around each synchronous slice — never across
/// an await, since the ambient scope is thread-local.
async fn dispatch_shimmed(
    space: &Arc<AddressSpace>,
    reactor: &Reactor,
    conns: &Arc<ConnTable>,
    gc: &Arc<GcNoteQueue>,
    req: Request,
    trace_ctx: Option<TraceContext>,
) -> (Reply, Option<TraceContext>) {
    match shim_plan(space, conns, &req) {
        ShimPlan::Inline => {
            let guard = trace::scope(trace_ctx);
            let reply = execute(space, conns, Some(gc), None, req);
            let reply_trace = trace::current();
            drop(guard);
            (reply, reply_trace)
        }
        ShimPlan::Park => park_execute(space, reactor, conns, gc, req, trace_ctx).await,
        ShimPlan::Offload => {
            let space = Arc::clone(space);
            let conns = Arc::clone(conns);
            let gc = Arc::clone(gc);
            reactor
                .run_blocking("surrogate-offload", move || {
                    let guard = trace::scope(trace_ctx);
                    let reply = execute(&space, &conns, Some(&gc), None, req);
                    let reply_trace = trace::current();
                    drop(guard);
                    (reply, reply_trace)
                })
                .await
        }
    }
}

/// Runs a blocking request as park-and-retry: register this task's waker
/// on the wakeup source, attempt a `NonBlocking` rewrite, and go
/// `Pending` while the attempt reports would-block. Registration happens
/// *before* the attempt (the [`dstampede_core::WakerSet`] contract), so
/// a publish racing the attempt re-wakes the task instead of being lost.
/// `TimeoutMs` waits arm a timer-wheel [`Sleep`] checked after each
/// failed attempt.
async fn park_execute(
    space: &Arc<AddressSpace>,
    reactor: &Reactor,
    conns: &Arc<ConnTable>,
    gc: &Arc<GcNoteQueue>,
    req: Request,
    trace_ctx: Option<TraceContext>,
) -> (Reply, Option<TraceContext>) {
    let attempt = rewrite_nonblocking(&req);
    let mut sleep = match wait_of(&req) {
        Some(WaitSpec::TimeoutMs(ms)) => Some(reactor.sleep(Duration::from_millis(u64::from(ms)))),
        _ => None,
    };
    std::future::poll_fn(move |cx| {
        let registered = register_parked_waker(space, conns, &req, cx.waker());
        let guard = trace::scope(trace_ctx);
        let reply = execute(space, conns, Some(gc), None, attempt.clone());
        let reply_trace = trace::current();
        drop(guard);
        // An unregistrable source (conn torn down mid-request) degrades
        // to the inline attempt's own error rather than spinning.
        if !(registered && reply_would_block(&reply)) {
            return Poll::Ready((reply, reply_trace));
        }
        if let Some(s) = sleep.as_mut() {
            if Pin::new(s).poll(cx).is_ready() {
                return Poll::Ready((Reply::from_error(&StmError::Timeout), None));
            }
        }
        Poll::Pending
    })
    .await
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstampede_clf::MemFabric;
    use dstampede_core::AsId;
    use dstampede_wire::RequestFrame;

    fn setup() -> (Arc<AddressSpace>, Arc<Listener>) {
        let fabric = MemFabric::new();
        let space = AddressSpace::start(fabric.endpoint(AsId(0)), true);
        let listener = Listener::start(Arc::clone(&space)).unwrap();
        (space, listener)
    }

    fn attach_raw(addr: SocketAddr, codec: CodecId) -> std::net::TcpStream {
        let mut s = dstampede_clf::tcp_connect(addr).unwrap();
        s.write_all(&[codec.byte()]).unwrap();
        s
    }

    fn roundtrip(
        stream: &mut std::net::TcpStream,
        codec: &dyn dstampede_wire::Codec,
        seq: u64,
        req: Request,
    ) -> ReplyFrame {
        let encoded = codec.encode_request(&RequestFrame::new(seq, req)).unwrap();
        write_encoded(&mut *stream, &encoded).unwrap();
        let frame = read_frame_bytes(&mut *stream).unwrap();
        codec.decode_reply(&frame).unwrap()
    }

    #[test]
    fn attach_ping_detach_with_both_codecs() {
        let (space, listener) = setup();
        for codec_id in [CodecId::Xdr, CodecId::Jdr] {
            let codec = codec_for(codec_id);
            let mut s = attach_raw(listener.addr(), codec_id);
            let reply = roundtrip(
                &mut s,
                codec.as_ref(),
                1,
                Request::Attach {
                    client_name: "t".into(),
                },
            );
            assert!(matches!(reply.reply, Reply::Attached { .. }));
            let reply = roundtrip(&mut s, codec.as_ref(), 2, Request::Ping { nonce: 5 });
            assert_eq!(reply.reply, Reply::Pong { nonce: 5 });
            assert_eq!(reply.seq, 2);
            let reply = roundtrip(&mut s, codec.as_ref(), 3, Request::Detach);
            assert_eq!(reply.reply, Reply::Ok);
        }
        // Wait for surrogate threads to finish.
        for _ in 0..100 {
            if listener.stats().active_surrogates == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = listener.stats();
        assert_eq!(stats.sessions_started, 2);
        assert_eq!(stats.clean_detaches, 2);
        assert_eq!(stats.dirty_teardowns, 0);
        listener.shutdown();
        space.shutdown();
    }

    #[test]
    fn client_crash_tears_surrogate_down() {
        let (space, listener) = setup();
        let codec = codec_for(CodecId::Xdr);
        let mut s = attach_raw(listener.addr(), CodecId::Xdr);
        let _ = roundtrip(
            &mut s,
            codec.as_ref(),
            1,
            Request::Attach {
                client_name: "crasher".into(),
            },
        );
        drop(s); // crash without Detach
        for _ in 0..200 {
            if listener.stats().active_surrogates == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = listener.stats();
        assert_eq!(stats.active_surrogates, 0);
        assert_eq!(stats.dirty_teardowns, 1);
        listener.shutdown();
        space.shutdown();
    }

    #[test]
    fn bad_codec_byte_closes_session() {
        let (space, listener) = setup();
        let mut s = dstampede_clf::tcp_connect(listener.addr()).unwrap();
        s.write_all(&[99]).unwrap();
        // The surrogate drops the connection; a read returns EOF.
        let mut buf = [0u8; 1];
        // Allow time for teardown.
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        assert_eq!(s.read(&mut buf).unwrap_or(0), 0);
        listener.shutdown();
        space.shutdown();
    }

    /// Context switches so far of this process's thread named `name`.
    #[cfg(target_os = "linux")]
    fn switches_of(name: &str) -> Option<u64> {
        let task = std::fs::read_dir("/proc/self/task")
            .ok()?
            .filter_map(Result::ok)
            .find(|t| {
                std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.trim() == name)
            })?;
        let status = std::fs::read_to_string(task.path().join("status")).ok()?;
        Some(
            status
                .lines()
                .filter(|l| l.contains("ctxt_switches:"))
                .filter_map(|l| l.split_whitespace().last()?.parse::<u64>().ok())
                .sum(),
        )
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn idle_listener_sleeps_in_accept_and_shuts_down_promptly() {
        let fabric = MemFabric::new();
        let space = AddressSpace::start(fabric.endpoint(AsId(61)), true);
        let listener = Listener::start(Arc::clone(&space)).unwrap();
        let name = "as-61-listener";
        // A session still attaches while the thread blocks in accept.
        let codec = codec_for(CodecId::Xdr);
        let mut s = attach_raw(listener.addr(), CodecId::Xdr);
        let reply = roundtrip(&mut s, codec.as_ref(), 1, Request::Ping { nonce: 9 });
        assert_eq!(reply.reply, Reply::Pong { nonce: 9 });
        drop(s);
        std::thread::sleep(Duration::from_millis(20));
        let before = switches_of(name).expect("listener thread");
        std::thread::sleep(Duration::from_millis(300));
        let after = switches_of(name).expect("listener thread");
        assert_eq!(before, after, "the idle accept thread woke up");
        let t0 = std::time::Instant::now();
        listener.shutdown();
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "shutdown took {:?}",
            t0.elapsed()
        );
        assert!(
            switches_of(name).is_none(),
            "accept thread outlived shutdown"
        );
        space.shutdown();
    }
}
