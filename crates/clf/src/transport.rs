//! The CLF transport contract.
//!
//! CLF (paper §3.2.2) is "a low level packet transport layer \[providing\]
//! reliable, ordered point-to-point packet transport between the D-Stampede
//! address spaces within the cluster, with the illusion of an infinite
//! packet queue. It exploits shared memory within an SMP, and any available
//! network between the nodes". The [`ClfTransport`] trait captures that
//! contract; backends provide it over in-process channels
//! ([`crate::mem`], the "shared memory within an SMP" case) and real UDP
//! sockets ([`crate::udp`], the "UDP over a LAN" case).

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::RwLock;

use dstampede_core::AsId;
use dstampede_obs::{Counter, Gauge, Histogram, MetricsRegistry};

use crate::error::ClfError;

/// Receives the messages an endpoint delivers, on the endpoint's own
/// receive thread (see [`ClfTransport::set_handler`]).
///
/// Calls are never concurrent, and messages from one sender arrive in
/// send order. Messages queued before the handler was installed are
/// handed over on the installing thread; everything else arrives on the
/// receive thread. A handler must never block on traffic the same
/// endpoint has yet to receive — a reply to its own RPC, say — because
/// nothing else drains the endpoint while it waits.
pub trait ClfHandler: Send + Sync {
    /// Handles one delivered message.
    fn on_message(&self, from: AsId, msg: Bytes);

    /// Runs the handler's due timed work. Called on every pass of the
    /// receive loop; the return value bounds how long the loop may block
    /// before the next call (`None`: nothing is scheduled).
    fn on_tick(&self) -> Option<Duration> {
        None
    }
}

/// The default handler: queues messages for [`ClfTransport::recv`].
struct InboxHandler(Sender<(AsId, Bytes)>);

impl ClfHandler for InboxHandler {
    fn on_message(&self, from: AsId, msg: Bytes) {
        let _ = self.0.send((from, msg));
    }
}

/// A backend's single delivery path: its receive thread hands every
/// message to the installed [`ClfHandler`]. Until one is installed the
/// handler is an inbox feeding `recv`/`recv_timeout`/`try_recv`, which
/// is how bare endpoints (tests, benches) read their traffic.
///
/// The receive thread calls the handler under a read lock, so
/// [`Delivery::install`] cannot slip between a message and the handler
/// it was meant for.
pub(crate) struct Delivery {
    handler: RwLock<Arc<dyn ClfHandler>>,
    inbox: Receiver<(AsId, Bytes)>,
}

impl Delivery {
    pub(crate) fn new() -> Delivery {
        let (tx, inbox) = unbounded();
        Delivery {
            handler: RwLock::new(Arc::new(InboxHandler(tx))),
            inbox,
        }
    }

    /// Hands `msgs` (drained) to the handler, in order.
    pub(crate) fn deliver_all(&self, msgs: &mut Vec<(AsId, Bytes)>) {
        if msgs.is_empty() {
            return;
        }
        let handler = self.handler.read();
        for (from, msg) in msgs.drain(..) {
            handler.on_message(from, msg);
        }
    }

    /// Hands one message to the handler.
    pub(crate) fn deliver(&self, from: AsId, msg: Bytes) {
        self.handler.read().on_message(from, msg);
    }

    /// Runs the handler's timed work; see [`ClfHandler::on_tick`].
    pub(crate) fn tick(&self) -> Option<Duration> {
        self.handler.read().on_tick()
    }

    /// Installs `handler`. Messages already queued in the inbox are
    /// handed over first, with the receive thread held off, so per-sender
    /// order survives the switch. The inbox sender drops with the old
    /// handler: `recv` reports [`ClfError::Closed`] from then on.
    pub(crate) fn install(&self, handler: Arc<dyn ClfHandler>) {
        let mut slot = self.handler.write();
        while let Ok((from, msg)) = self.inbox.try_recv() {
            handler.on_message(from, msg);
        }
        *slot = handler;
    }

    pub(crate) fn recv(&self, closed: &AtomicBool) -> Result<(AsId, Bytes), ClfError> {
        // A bounded wait loop so shutdown eventually wakes the caller.
        loop {
            match self.recv_timeout(closed, Duration::from_millis(50)) {
                Err(ClfError::Timeout) => {}
                other => return other,
            }
        }
    }

    pub(crate) fn recv_timeout(
        &self,
        closed: &AtomicBool,
        timeout: Duration,
    ) -> Result<(AsId, Bytes), ClfError> {
        if closed.load(Ordering::Acquire) {
            return Err(ClfError::Closed);
        }
        match self.inbox.recv_timeout(timeout) {
            Ok(m) => Ok(m),
            Err(RecvTimeoutError::Timeout) if closed.load(Ordering::Acquire) => {
                Err(ClfError::Closed)
            }
            Err(RecvTimeoutError::Timeout) => Err(ClfError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(ClfError::Closed),
        }
    }

    pub(crate) fn try_recv(&self, closed: &AtomicBool) -> Result<(AsId, Bytes), ClfError> {
        if closed.load(Ordering::Acquire) {
            return Err(ClfError::Closed);
        }
        match self.inbox.try_recv() {
            Ok(m) => Ok(m),
            Err(TryRecvError::Empty) => Err(ClfError::Empty),
            Err(TryRecvError::Disconnected) => Err(ClfError::Closed),
        }
    }
}

impl fmt::Debug for Delivery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Delivery")
            .field("queued", &self.inbox.len())
            .finish()
    }
}

/// Monotonic counters describing an endpoint's traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransportStats {
    /// Messages sent.
    pub msgs_sent: u64,
    /// Messages delivered (to the handler, or to `recv`).
    pub msgs_received: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Payload bytes delivered.
    pub bytes_received: u64,
    /// Packets retransmitted (UDP backend only).
    pub retransmits: u64,
    /// Duplicate or stale packets discarded (UDP backend only).
    pub duplicates_dropped: u64,
    /// Sends rejected with [`ClfError::Backpressure`] because the
    /// destination's unacknowledged-packet window was full (UDP
    /// backend only).
    pub backpressure: u64,
    /// Selective-acknowledgment frames received and integrated into the
    /// send window (UDP backend only).
    pub sack_frames: u64,
    /// Hole packets retransmitted on duplicate-SACK evidence, without
    /// waiting for the retransmission timeout (UDP backend only).
    pub fast_retransmits: u64,
}

/// Registry-backed handles mirrored by a bound [`StatCounters`].
#[derive(Debug)]
struct ObsHandles {
    msgs_sent: Arc<Counter>,
    msgs_received: Arc<Counter>,
    bytes_sent: Arc<Counter>,
    bytes_received: Arc<Counter>,
    retransmits: Arc<Counter>,
    duplicates_dropped: Arc<Counter>,
    backpressure: Arc<Counter>,
    rtt: Arc<Histogram>,
    srtt: Arc<Gauge>,
    coalesced: Arc<Histogram>,
    sack_sent: Arc<Counter>,
    sack_received: Arc<Counter>,
    acks_piggybacked: Arc<Counter>,
    fast_retransmits: Arc<Counter>,
    batch_tx: Arc<Histogram>,
    batch_rx: Arc<Histogram>,
}

/// Shared atomic counter block used by the backends.
///
/// Optionally bound (once) to a `dstampede-obs` registry, after which
/// every update is mirrored into registry-backed series under the `clf`
/// subsystem, labeled with the backend (`transport=udp` / `transport=mem`).
#[derive(Debug, Default)]
pub struct StatCounters {
    pub(crate) msgs_sent: AtomicU64,
    pub(crate) msgs_received: AtomicU64,
    pub(crate) bytes_sent: AtomicU64,
    pub(crate) bytes_received: AtomicU64,
    pub(crate) retransmits: AtomicU64,
    pub(crate) duplicates_dropped: AtomicU64,
    pub(crate) backpressure: AtomicU64,
    pub(crate) sack_frames: AtomicU64,
    pub(crate) fast_retransmits: AtomicU64,
    obs: OnceLock<ObsHandles>,
}

impl StatCounters {
    /// Binds these counters to `registry`; the first bind wins, later
    /// calls are ignored. Safe to call after the endpoint's pump thread
    /// is running (updates before the bind are simply not mirrored —
    /// they remain visible via [`StatCounters::snapshot`]).
    pub fn bind(&self, registry: &MetricsRegistry, transport: &str) {
        let labels = [("transport", transport)];
        let _ = self.obs.set(ObsHandles {
            msgs_sent: registry.counter_labeled("clf", "msgs_sent", &labels),
            msgs_received: registry.counter_labeled("clf", "msgs_received", &labels),
            bytes_sent: registry.counter_labeled("clf", "bytes_sent", &labels),
            bytes_received: registry.counter_labeled("clf", "bytes_received", &labels),
            retransmits: registry.counter_labeled("clf", "retransmits", &labels),
            duplicates_dropped: registry.counter_labeled("clf", "duplicates_dropped", &labels),
            backpressure: registry.counter_labeled("clf", "backpressure", &labels),
            rtt: registry.histogram_labeled("clf", "rtt_us", &labels),
            srtt: registry.gauge_labeled("clf", "srtt_us", &labels),
            coalesced: registry.histogram_labeled("clf", "coalesced_frames", &labels),
            sack_sent: registry.counter_labeled("clf", "sack_frames_sent", &labels),
            sack_received: registry.counter_labeled("clf", "sack_frames_received", &labels),
            acks_piggybacked: registry.counter_labeled("clf", "acks_piggybacked", &labels),
            fast_retransmits: registry.counter_labeled("clf", "sack_fast_retransmits", &labels),
            batch_tx: registry.histogram_labeled("clf", "batch_tx_datagrams", &labels),
            batch_rx: registry.histogram_labeled("clf", "batch_rx_datagrams", &labels),
        });
    }

    pub(crate) fn note_sent(&self, bytes: usize) {
        self.msgs_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
        if let Some(obs) = self.obs.get() {
            obs.msgs_sent.inc();
            obs.bytes_sent.add(bytes as u64);
        }
    }

    pub(crate) fn note_received(&self, bytes: usize) {
        self.msgs_received.fetch_add(1, Ordering::Relaxed);
        self.bytes_received
            .fetch_add(bytes as u64, Ordering::Relaxed);
        if let Some(obs) = self.obs.get() {
            obs.msgs_received.inc();
            obs.bytes_received.add(bytes as u64);
        }
    }

    pub(crate) fn note_retransmit(&self) {
        self.retransmits.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = self.obs.get() {
            obs.retransmits.inc();
        }
    }

    pub(crate) fn note_duplicate(&self) {
        self.duplicates_dropped.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = self.obs.get() {
            obs.duplicates_dropped.inc();
        }
    }

    /// Records a send rejected for lack of window space — the signal
    /// the health engine folds into a peer's `Degraded` level.
    pub(crate) fn note_backpressure(&self) {
        self.backpressure.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = self.obs.get() {
            obs.backpressure.inc();
        }
    }

    /// Records an observed packet round-trip time (UDP backend: DATA
    /// transmit to cumulative ACK).
    pub(crate) fn note_rtt(&self, rtt: Duration) {
        if let Some(obs) = self.obs.get() {
            obs.rtt.record_duration(rtt);
        }
    }

    /// Publishes the current smoothed round-trip estimate (UDP backend:
    /// the Jacobson/Karels SRTT driving the adaptive retransmission
    /// timeout) as a live gauge.
    pub(crate) fn note_srtt(&self, srtt: Duration) {
        if let Some(obs) = self.obs.get() {
            obs.srtt
                .set(i64::try_from(srtt.as_micros()).unwrap_or(i64::MAX));
        }
    }

    /// Records how many protocol frames one transmitted datagram carried
    /// (UDP backend: the transmit coalescer's packing factor).
    pub(crate) fn note_coalesced(&self, frames: u64) {
        if let Some(obs) = self.obs.get() {
            obs.coalesced.record(frames);
        }
    }

    /// Records one standalone selective-acknowledgment frame emitted
    /// toward a peer.
    pub(crate) fn note_sack_sent(&self) {
        if let Some(obs) = self.obs.get() {
            obs.sack_sent.inc();
        }
    }

    /// Records one selective-acknowledgment frame received and folded
    /// into a peer's send window.
    pub(crate) fn note_sack_received(&self) {
        self.sack_frames.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = self.obs.get() {
            obs.sack_received.inc();
        }
    }

    /// Records one owed acknowledgment that rode outgoing DATA instead
    /// of a standalone frame (UDP backend).
    pub(crate) fn note_ack_piggybacked(&self) {
        if let Some(obs) = self.obs.get() {
            obs.acks_piggybacked.inc();
        }
    }

    /// Records one hole packet fast-retransmitted on duplicate-SACK
    /// evidence (also counted in the aggregate retransmit counter).
    pub(crate) fn note_fast_retransmit(&self) {
        self.fast_retransmits.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = self.obs.get() {
            obs.fast_retransmits.inc();
        }
    }

    /// Records how many datagrams one transmit syscall carried.
    pub(crate) fn note_batch_tx(&self, datagrams: u64) {
        if let Some(obs) = self.obs.get() {
            obs.batch_tx.record(datagrams);
        }
    }

    /// Records how many datagrams one receive syscall drained.
    pub(crate) fn note_batch_rx(&self, datagrams: u64) {
        if let Some(obs) = self.obs.get() {
            obs.batch_rx.record(datagrams);
        }
    }

    /// A consistent-enough snapshot for reporting.
    pub fn snapshot(&self) -> TransportStats {
        TransportStats {
            msgs_sent: self.msgs_sent.load(Ordering::Relaxed),
            msgs_received: self.msgs_received.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            retransmits: self.retransmits.load(Ordering::Relaxed),
            duplicates_dropped: self.duplicates_dropped.load(Ordering::Relaxed),
            backpressure: self.backpressure.load(Ordering::Relaxed),
            sack_frames: self.sack_frames.load(Ordering::Relaxed),
            fast_retransmits: self.fast_retransmits.load(Ordering::Relaxed),
        }
    }
}

/// Reliable, ordered, point-to-point message transport between address
/// spaces with the illusion of an infinite packet queue.
///
/// Guarantees, for any ordered pair of address spaces `(A, B)`:
///
/// * every message `A` sends to `B` is delivered exactly once (while both
///   endpoints are up);
/// * messages are delivered in send order;
/// * `send` never blocks on the receiver (unbounded buffering).
pub trait ClfTransport: Send + Sync + fmt::Debug {
    /// The address space this endpoint belongs to.
    fn local(&self) -> AsId;

    /// Sends a message to another address space.
    ///
    /// # Errors
    ///
    /// [`ClfError::UnknownPeer`] for unroutable destinations,
    /// [`ClfError::Closed`] after shutdown, [`ClfError::Io`] on socket
    /// failure.
    fn send(&self, dst: AsId, msg: Bytes) -> Result<(), ClfError>;

    /// Sends a message assembled from scatter-gather segments; the
    /// receiver observes the concatenation, exactly as if
    /// [`ClfTransport::send`] had been called with the flattened bytes.
    ///
    /// The default implementation flattens — a single segment is
    /// forwarded without copying, multiple segments are gathered into one
    /// buffer first. Backends that can transmit segments directly (the
    /// UDP endpoint fragments across segment boundaries without
    /// materializing the message) override this to stay zero-copy.
    ///
    /// # Errors
    ///
    /// As for [`ClfTransport::send`].
    fn send_segments(&self, dst: AsId, segments: &[Bytes]) -> Result<(), ClfError> {
        match segments {
            [] => self.send(dst, Bytes::new()),
            [one] => self.send(dst, one.clone()),
            many => {
                let total = many.iter().map(Bytes::len).sum();
                let mut flat = Vec::with_capacity(total);
                for seg in many {
                    flat.extend_from_slice(seg);
                }
                self.send(dst, Bytes::from(flat))
            }
        }
    }

    /// Installs the handler the endpoint's receive thread calls for
    /// every delivered message, in place of the default inbox behind
    /// [`ClfTransport::recv`]. Messages already queued in that inbox go
    /// to the new handler first; afterwards `recv` and its variants
    /// report [`ClfError::Closed`].
    fn set_handler(&self, handler: Arc<dyn ClfHandler>);

    /// Blocks until the next message arrives (default handler only).
    ///
    /// # Errors
    ///
    /// [`ClfError::Closed`] after shutdown.
    fn recv(&self) -> Result<(AsId, Bytes), ClfError>;

    /// Waits up to `timeout` for the next message.
    ///
    /// # Errors
    ///
    /// [`ClfError::Timeout`] on expiry, [`ClfError::Closed`] after shutdown.
    fn recv_timeout(&self, timeout: Duration) -> Result<(AsId, Bytes), ClfError>;

    /// Returns the next message if one is already queued.
    ///
    /// # Errors
    ///
    /// [`ClfError::Empty`] when nothing is queued, [`ClfError::Closed`]
    /// after shutdown.
    fn try_recv(&self) -> Result<(AsId, Bytes), ClfError>;

    /// Traffic counters.
    fn stats(&self) -> TransportStats;

    /// Mirrors this endpoint's counters into a telemetry registry (see
    /// `dstampede-obs`). Backends without counters may ignore the call;
    /// only the first bind takes effect.
    fn bind_metrics(&self, registry: &MetricsRegistry) {
        let _ = registry;
    }

    /// Enables or disables the selective-acknowledgment fast path toward
    /// one peer. Disabling forces the legacy per-datagram cumulative-ack
    /// exchange — the downgrade used when a peer predates SACK. Backends
    /// without a SACK path ignore the call; the UDP backend applies it
    /// to subsequent sends.
    fn set_peer_sack(&self, peer: AsId, enabled: bool) {
        let _ = (peer, enabled);
    }

    /// Runs one pass of time-driven protocol housekeeping — retransmission
    /// scan, deferred/aged-batch flush — outside the backend's own pump
    /// cadence. Reactor-mode runtimes call this from the unified timer
    /// wheel so RTO and pacing deadlines share one clock with every other
    /// runtime timer. Backends without timed protocol state ignore it.
    fn housekeep(&self) {}

    /// Discards per-peer protocol state for a peer declared dead:
    /// unacknowledged send buffers, reassembly state. Backends without
    /// per-peer buffering may ignore the call. Idempotent; the peer may
    /// be re-learned later (e.g. after a restart).
    fn purge_peer(&self, peer: AsId) {
        let _ = peer;
    }

    /// Shuts the endpoint down; subsequent operations fail with
    /// [`ClfError::Closed`]. Idempotent.
    fn shutdown(&self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_counters_snapshot() {
        let c = StatCounters::default();
        c.note_sent(10);
        c.note_sent(5);
        c.note_received(7);
        let s = c.snapshot();
        assert_eq!(s.msgs_sent, 2);
        assert_eq!(s.bytes_sent, 15);
        assert_eq!(s.msgs_received, 1);
        assert_eq!(s.bytes_received, 7);
        assert_eq!(s.retransmits, 0);
    }

    #[test]
    fn bound_counters_mirror_into_registry() {
        let reg = MetricsRegistry::new("test");
        let c = StatCounters::default();
        c.note_sent(3); // before bind: counted locally, not mirrored
        c.bind(&reg, "udp");
        c.bind(&reg, "udp"); // second bind is ignored
        c.note_sent(5);
        c.note_received(2);
        c.note_retransmit();
        c.note_duplicate();
        c.note_rtt(Duration::from_micros(40));
        c.note_srtt(Duration::from_micros(80));
        c.note_coalesced(3);
        c.note_backpressure();
        c.note_sack_sent();
        c.note_sack_received();
        c.note_ack_piggybacked();
        c.note_fast_retransmit();
        c.note_batch_tx(4);
        c.note_batch_rx(6);
        assert_eq!(c.snapshot().msgs_sent, 2);
        assert_eq!(c.snapshot().backpressure, 1);
        assert_eq!(c.snapshot().sack_frames, 1);
        assert_eq!(c.snapshot().fast_retransmits, 1);
        let snap = reg.snapshot();
        assert_eq!(snap.counter_value("clf", "msgs_sent"), Some(1));
        assert_eq!(snap.counter_value("clf", "bytes_sent"), Some(5));
        assert_eq!(snap.counter_value("clf", "msgs_received"), Some(1));
        assert_eq!(snap.counter_value("clf", "retransmits"), Some(1));
        assert_eq!(snap.counter_value("clf", "duplicates_dropped"), Some(1));
        assert_eq!(snap.counter_value("clf", "backpressure"), Some(1));
        let rtt = snap.histogram("clf", "rtt_us").expect("rtt series");
        assert_eq!(rtt.count, 1);
        assert_eq!(rtt.sum, 40);
        assert_eq!(snap.gauge_value("clf", "srtt_us"), Some(80));
        let co = snap
            .histogram("clf", "coalesced_frames")
            .expect("coalesced series");
        assert_eq!(co.count, 1);
        assert_eq!(co.sum, 3);
        assert_eq!(snap.counter_value("clf", "sack_frames_sent"), Some(1));
        assert_eq!(snap.counter_value("clf", "sack_frames_received"), Some(1));
        assert_eq!(snap.counter_value("clf", "acks_piggybacked"), Some(1));
        assert_eq!(snap.counter_value("clf", "sack_fast_retransmits"), Some(1));
        let bt = snap
            .histogram("clf", "batch_tx_datagrams")
            .expect("batch tx series");
        assert_eq!((bt.count, bt.sum), (1, 4));
        let br = snap
            .histogram("clf", "batch_rx_datagrams")
            .expect("batch rx series");
        assert_eq!((br.count, br.sum), (1, 6));
    }
}
