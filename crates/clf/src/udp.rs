//! Reliable-UDP CLF backend — "UDP over a LAN".
//!
//! Between cluster nodes the paper's CLF runs over UDP while still
//! promising reliable, ordered delivery with an infinite packet queue.
//! This backend implements that promise with a sliding-window ARQ
//! protocol (state machines in [`crate::window`], drivable by the
//! model-based suite in `tests/window_model.rs`):
//!
//! * messages are fragmented into DATA packets of at most
//!   [`UdpConfig::frag_payload`] bytes, each carrying a per-peer sequence
//!   number and an end-of-message flag;
//! * the receiver reorders out-of-order packets, drops duplicates and
//!   reassembles in-order fragments into messages;
//! * acknowledgments cost no datagram of their own when traffic flows
//!   both ways: every DATA datagram carries the sender's cumulative ack
//!   for the receiving peer in a trailer. A lone in-order packet's ack is
//!   held up to [`ACK_DELAY`](crate::window::ACK_DELAY) for such a ride
//!   before it leaves as a standalone cumulative-ack + SACK-bitmap frame
//!   (encoded with the `dstampede-wire` codecs); a hole, a duplicate or a
//!   second unacked packet is acknowledged at once, so the sender learns
//!   exactly which packets are holes, and bulk bursts are acked once per
//!   burst. Every ack reports how long it was held, and the sender takes
//!   that off its RTT samples;
//! * the sender keeps at most [`UdpConfig::window_bytes`] in flight,
//!   staging the rest ([`ClfError::Backpressure`] only fires when the
//!   packet window [`UdpConfig::max_unacked`] is genuinely full),
//!   fast-retransmits holes reported by successive SACKs, and recovers
//!   everything else on an adaptive timeout.
//!
//! The data plane is zero-copy (see `DESIGN.md` §4.6): a send accepts
//! scatter-gather [`Bytes`] segments and fragments *across* segment
//! boundaries without materializing the message — the window buffers
//! hold refcounted slices, and the only per-packet copy is the gather
//! into the outgoing datagram at the kernel boundary. On receive, each
//! datagram lands in a recycled buffer that is frozen into [`Bytes`];
//! fragment payloads are slice views into it, and a single-fragment
//! message is delivered as that view without reassembly.
//!
//! Three transmit-path optimizations ride on top:
//!
//! * **Coalescing** — DATA packets bound for the same peer are packed
//!   into one datagram (format: a container magic, then repeated
//!   `[u16 length][packet]`). With [`UdpConfig::coalesce_delay`] at zero
//!   only the packets of a single send share a datagram; a non-zero
//!   delay additionally holds a per-peer batch open so that back-to-back
//!   sends coalesce, trading that much latency for fewer syscalls.
//! * **Syscall batching** — bursts of datagrams move through
//!   `sendmmsg`/`recvmmsg` on Linux (one syscall per burst instead of
//!   one per datagram), with a portable per-datagram fallback elsewhere.
//! * **Adaptive timing** — [`UdpConfig::rto`] only seeds the timer. Each
//!   peer runs a Jacobson/Karels estimator (SRTT/RTTVAR from ACK
//!   round-trips, Karn's rule excluding retransmitted packets,
//!   exponential backoff while a peer stays silent), and the same
//!   estimate drives a per-peer [`Pacer`] spreading transmissions across
//!   the round trip instead of blasting the window into the kernel.
//!
//! Interoperability is negotiated in band: a SACK-capable sender flags
//! its DATA packets, a SACK-capable receiver answers flagged DATA with
//! SACK frames and piggybacked acks, and either side silently falls back
//! to the legacy immediate per-datagram cumulative-ACK exchange when the
//! flag is absent (old decoders ignore unknown flag bits and unknown
//! packet kinds); a legacy peer is never sent an ack trailer. The
//! fallback can be forced per peer with
//! [`ClfTransport::set_peer_sack`].
//!
//! A deterministic loss injector ([`LossInjection`]) lets tests exercise
//! retransmission without a lossy network.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;

use dstampede_core::AsId;

use dstampede_obs::MetricsRegistry;

use dstampede_wire::{Codec, SackInfo, XdrCodec};

use crate::error::ClfError;
use crate::shaping::Pacer;
use crate::transport::{ClfHandler, ClfTransport, Delivery, StatCounters, TransportStats};
use crate::udp_sys::{self, OutDatagram};
use crate::window::{RecvWindow, SendWindow, MIN_RTO};

const MAGIC: u16 = 0xC1F0;
/// First two bytes of a coalesced datagram: repeated `[u16 len][packet]`.
const COALESCE_MAGIC: u16 = 0xC1F1;
const KIND_DATA: u8 = 0;
const KIND_ACK: u8 = 1;
const KIND_SACK: u8 = 2;
const FLAG_EOM: u8 = 1;
/// In-band capability bit on DATA packets: "answer me with SACK frames".
/// Legacy receivers ignore unknown flag bits and keep sending
/// per-datagram cumulative ACKs, which a SACK sender still understands.
const FLAG_SACK: u8 = 2;
/// DATA flag: an ack trailer `[u64 ack_next][u32 hold µs]` follows the
/// header — the sender's cumulative ack for the receiving peer and how
/// long it held that ack. Only SACK peers are sent it.
const FLAG_ACK: u8 = 4;
/// SACK flag (in the header's flags byte): the codec body is followed by
/// a `[u32 hold µs]` trailer.
const FLAG_HOLD: u8 = 1;
const HEADER_LEN: usize = 2 + 1 + 1 + 2 + 8;
const HOLD_LEN: usize = 4;
const ACK_TRAILER_LEN: usize = 8 + HOLD_LEN;

/// Largest datagram the coalescer will assemble (safely under the 65,507
/// byte UDP payload limit).
const MAX_DATAGRAM: usize = 60_000;

/// Receive buffer size; a UDP datagram cannot exceed it.
const RECV_BUF: usize = 65_536;

/// Fragment payloads at or above this many bytes are delivered as slice
/// views into the receive buffer; smaller ones are copied out so the
/// (large) buffer can be recycled immediately.
const VIEW_THRESHOLD: usize = 256;

/// Kernel socket buffer size requested at bind (best effort; the kernel
/// clamps to its limits silently).
const KERNEL_BUF: usize = 1 << 20;

/// Deterministic packet-loss injection for tests and fault drills.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LossInjection {
    /// Deliver everything (default).
    #[default]
    None,
    /// Suppress the first transmission of every n-th DATA packet
    /// (n ≥ 2); the recovery machinery must retransmit it.
    DropEveryNth(u32),
    /// Seeded pseudo-random faults applied to every outgoing datagram —
    /// DATA, retransmissions, and acknowledgment frames alike — so soak
    /// tests exercise the protocol under sustained lossy-link
    /// conditions. Deterministic under a fixed seed.
    Seeded {
        /// Generator seed.
        seed: u64,
        /// Per-mille probability a datagram vanishes.
        drop_permille: u16,
        /// Per-mille probability a datagram is emitted twice.
        dup_permille: u16,
        /// Per-mille probability a datagram is held back and emitted
        /// after later traffic (reordering).
        reorder_permille: u16,
    },
}

/// Tuning knobs for a [`UdpEndpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpConfig {
    /// Maximum DATA payload per packet. The paper notes UDP caps messages
    /// below 64 KB; we default well under typical loopback MTUs.
    pub frag_payload: usize,
    /// *Initial* retransmission timeout for unacknowledged packets. Once
    /// ACKs flow, each peer's timeout is re-estimated from measured
    /// round-trips (Jacobson/Karels), so this only governs the first
    /// exchanges and peers that have never ACKed.
    pub rto: Duration,
    /// Outbound loss injection.
    pub loss: LossInjection,
    /// High-water mark on staged-plus-unacknowledged DATA packets per
    /// peer. A send that would exceed it fails with
    /// [`ClfError::Backpressure`] instead of growing memory without
    /// bound when a peer stops ACKing. This is the *only* condition that
    /// backpressures: the in-flight byte budget and the pacer merely
    /// defer transmission of already-accepted packets.
    pub max_unacked: usize,
    /// How long a per-peer transmit batch may wait for more packets
    /// before it is flushed. Zero (the default) flushes every send
    /// immediately — packets of one message still share datagrams, but
    /// no latency is added.
    pub coalesce_delay: Duration,
    /// Whether to run the SACK fast path (flag outgoing DATA, answer
    /// flagged DATA with SACK frames). Disabling forces the legacy
    /// per-datagram cumulative-ACK exchange everywhere.
    pub sack: bool,
    /// In-flight byte budget per peer: transmitted-and-unacked bytes
    /// never exceed it. Sized to fit the kernel's *default* receive
    /// buffer clamp, so a full window cannot overrun the peer's socket
    /// and manufacture loss.
    pub window_bytes: usize,
    /// Receive-burst size: how many datagrams one `recvmmsg` may drain.
    pub batch: usize,
    /// Fixed pacing rate in bytes per second. `None` (the default) paces
    /// adaptively at twice the in-flight budget per smoothed round trip
    /// once an RTT estimate exists — effectively unpaced on loopback,
    /// burst-smoothing on real paths.
    pub pace: Option<u64>,
}

impl Default for UdpConfig {
    fn default() -> Self {
        UdpConfig {
            frag_payload: 8192,
            rto: Duration::from_millis(40),
            loss: LossInjection::None,
            max_unacked: 1024,
            coalesce_delay: Duration::ZERO,
            sack: true,
            window_bytes: 128 * 1024,
            batch: 32,
            pace: None,
        }
    }
}

/// A DATA packet held for (re)transmission: the 14 header bytes plus the
/// message fragment as borrowed segments. Retransmission re-gathers from
/// here, so payload bytes are never duplicated into the send buffer.
#[derive(Debug, Clone)]
struct Packet {
    header: [u8; HEADER_LEN],
    payload: Vec<Bytes>,
}

impl Packet {
    fn data(src: AsId, seq: u64, eom: bool, sack: bool, payload: Vec<Bytes>) -> Packet {
        let mut header = [0u8; HEADER_LEN];
        header[0..2].copy_from_slice(&MAGIC.to_be_bytes());
        header[2] = KIND_DATA;
        header[3] = (u8::from(eom) * FLAG_EOM) | (u8::from(sack) * FLAG_SACK);
        header[4..6].copy_from_slice(&src.0.to_be_bytes());
        header[6..14].copy_from_slice(&seq.to_be_bytes());
        Packet { header, payload }
    }

    fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.iter().map(Bytes::len).sum::<usize>()
    }

    /// Gathers header, optional ack trailer and payload segments into
    /// `out` — the single user-space copy on the transmit path.
    fn gather_into(&self, out: &mut Vec<u8>, ack: Option<&AckTrailer>) {
        let flags_at = out.len() + 3;
        out.extend_from_slice(&self.header);
        if let Some(trailer) = ack {
            out[flags_at] |= FLAG_ACK;
            out.extend_from_slice(trailer);
        }
        for seg in &self.payload {
            out.extend_from_slice(seg);
        }
    }
}

/// The piggybacked-ack trailer of a DATA packet.
type AckTrailer = [u8; ACK_TRAILER_LEN];

/// A hold as it travels on the wire: whole microseconds, saturating.
fn hold_wire(hold: Duration) -> [u8; HOLD_LEN] {
    u32::try_from(hold.as_micros())
        .unwrap_or(u32::MAX)
        .to_be_bytes()
}

fn hold_from_wire(b: &[u8]) -> Duration {
    Duration::from_micros(u64::from(u32::from_be_bytes(
        b.try_into().expect("hold is 4 bytes"),
    )))
}

/// Send-side state for one peer.
struct PeerTx {
    win: SendWindow<Packet>,
    pacer: Pacer,
    /// Fast retransmissions produced by SACK integration, awaiting the
    /// next burst flush.
    pending_retx: Vec<Packet>,
    /// When the oldest staged packet entered the deferred queue, for the
    /// coalesce-delay ripeness check.
    deferred_since: Option<Instant>,
}

impl PeerTx {
    fn new(config: &UdpConfig) -> Self {
        PeerTx {
            win: SendWindow::new(
                config.max_unacked.max(1),
                config.window_bytes.max(1),
                config.rto,
            ),
            pacer: Pacer::new(config.pace),
            pending_retx: Vec::new(),
            deferred_since: None,
        }
    }

    /// Re-targets the adaptive pacer from the smoothed RTT: twice the
    /// in-flight budget per round trip, so pacing never caps throughput
    /// below what the window allows. A fixed [`UdpConfig::pace`] wins.
    fn retarget_pacer(&mut self, config: &UdpConfig) {
        if config.pace.is_some() {
            return;
        }
        if let Some(srtt) = self.win.rtt.srtt() {
            let srtt = srtt.as_secs_f64().max(1e-6);
            self.pacer
                .set_rate(Some(2.0 * config.window_bytes as f64 / srtt));
        }
    }
}

/// Receive-side state for one peer.
#[derive(Default)]
struct PeerRx {
    win: RecvWindow,
    /// Whether the peer's latest DATA carried [`FLAG_SACK`] — answer
    /// with SACK frames and piggybacked acks instead of legacy
    /// cumulative ACKs.
    sack_reply: bool,
}

impl PeerRx {
    /// Stamps the ack trailer for a DATA datagram leaving toward this
    /// peer now, settling any owed ack. `None` for a legacy peer, and
    /// while holes are open: the sender then needs the SACK bitmap,
    /// which goes out standalone.
    fn piggyback(&mut self, now: Instant, stats: &StatCounters) -> Option<AckTrailer> {
        if !self.sack_reply || self.win.has_holes() {
            return None;
        }
        if self.win.ack_deadline().is_some() {
            stats.note_ack_piggybacked();
        }
        let hold = self.win.take_ack(now);
        let mut trailer = [0u8; ACK_TRAILER_LEN];
        trailer[..8].copy_from_slice(&self.win.ack_next().to_be_bytes());
        trailer[8..].copy_from_slice(&hold_wire(hold));
        Some(trailer)
    }
}

struct Shared {
    peers: HashMap<AsId, SocketAddr>,
    tx: HashMap<AsId, PeerTx>,
    rx: HashMap<AsId, PeerRx>,
    /// Peers explicitly downgraded to the legacy ACK exchange.
    sack_disabled: HashSet<AsId>,
}

/// Mutable state of the outbound loss injector.
struct LossState {
    /// DATA packet counter for [`LossInjection::DropEveryNth`].
    counter: u64,
    /// Generator for [`LossInjection::Seeded`].
    rng: u64,
    /// Datagram held back for reordering.
    held: Option<OutDatagram>,
}

impl LossState {
    fn new(config: &UdpConfig) -> LossState {
        let seed = match config.loss {
            LossInjection::Seeded { seed, .. } => seed,
            _ => 0,
        };
        LossState {
            counter: 0,
            rng: seed ^ 0x9E37_79B9_7F4A_7C15,
            held: None,
        }
    }

    fn roll(&mut self) -> u64 {
        self.rng = self
            .rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.rng >> 11) % 1000
    }
}

/// Applies [`LossInjection::Seeded`] to an assembled burst in place.
fn apply_loss(config: &UdpConfig, loss: &Mutex<LossState>, grams: &mut Vec<OutDatagram>) {
    let LossInjection::Seeded {
        drop_permille,
        dup_permille,
        reorder_permille,
        ..
    } = config.loss
    else {
        return;
    };
    let mut st = loss.lock();
    let mut out = Vec::with_capacity(grams.len() + 1);
    for g in grams.drain(..) {
        if st.roll() < u64::from(drop_permille) {
            continue;
        }
        let dup = st.roll() < u64::from(dup_permille);
        let reorder = st.roll() < u64::from(reorder_permille);
        if reorder && st.held.is_none() {
            // Held until later traffic overtakes it; the ARQ machinery
            // keeps generating traffic, so nothing is held forever.
            st.held = Some(g);
            continue;
        }
        if dup {
            out.push(OutDatagram {
                addr: g.addr,
                buf: g.buf.clone(),
            });
        }
        out.push(g);
        if let Some(h) = st.held.take() {
            out.push(h);
        }
    }
    *grams = out;
}

/// A reliable-UDP CLF endpoint.
///
/// # Examples
///
/// Two endpoints on loopback:
///
/// ```
/// use bytes::Bytes;
/// use dstampede_clf::{ClfTransport, UdpConfig, UdpEndpoint};
/// use dstampede_core::AsId;
///
/// # fn main() -> Result<(), dstampede_clf::ClfError> {
/// let a = UdpEndpoint::bind(AsId(0), UdpConfig::default())?;
/// let b = UdpEndpoint::bind(AsId(1), UdpConfig::default())?;
/// a.add_peer(AsId(1), b.local_addr());
/// b.add_peer(AsId(0), a.local_addr());
/// a.send(AsId(1), Bytes::from_static(b"over udp"))?;
/// assert_eq!(&b.recv()?.1[..], b"over udp");
/// # a.shutdown(); b.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct UdpEndpoint {
    local: AsId,
    addr: SocketAddr,
    socket: UdpSocket,
    config: UdpConfig,
    shared: Arc<Mutex<Shared>>,
    delivery: Arc<Delivery>,
    stats: Arc<StatCounters>,
    closed: Arc<AtomicBool>,
    pump: Mutex<Option<std::thread::JoinHandle<()>>>,
    loss: Arc<Mutex<LossState>>,
}

impl UdpEndpoint {
    /// Binds an endpoint on an ephemeral loopback port and starts its
    /// protocol pump thread, which is also the endpoint's receive thread:
    /// it hands completed messages straight to the installed
    /// [`ClfHandler`].
    ///
    /// # Errors
    ///
    /// [`ClfError::Io`] if the socket cannot be bound.
    pub fn bind(local: AsId, config: UdpConfig) -> Result<Arc<Self>, ClfError> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        udp_sys::enlarge_buffers(&socket, KERNEL_BUF);
        // The read timeout bounds how late the pump can be for its
        // housekeeping (retransmission scan, deferred/aged-batch flush),
        // so a sub-10ms coalesce delay tightens it.
        let tick = if config.coalesce_delay.is_zero() {
            Duration::from_millis(10)
        } else {
            config
                .coalesce_delay
                .clamp(Duration::from_millis(1), Duration::from_millis(10))
        };
        socket.set_read_timeout(Some(tick))?;
        let addr = socket.local_addr()?;
        let shared = Arc::new(Mutex::new(Shared {
            peers: HashMap::new(),
            tx: HashMap::new(),
            rx: HashMap::new(),
            sack_disabled: HashSet::new(),
        }));
        let delivery = Arc::new(Delivery::new());
        let stats = Arc::new(StatCounters::default());
        let closed = Arc::new(AtomicBool::new(false));
        let loss = Arc::new(Mutex::new(LossState::new(&config)));

        let pump_socket = socket.try_clone()?;
        let pump_shared = Arc::clone(&shared);
        let pump_delivery = Arc::clone(&delivery);
        let pump_stats = Arc::clone(&stats);
        let pump_closed = Arc::clone(&closed);
        let pump_loss = Arc::clone(&loss);
        let handle = std::thread::Builder::new()
            .name(format!("clf-udp-{}", local.0))
            .spawn(move || {
                let ctx = PumpCtx {
                    local,
                    socket: &pump_socket,
                    shared: &pump_shared,
                    delivery: &pump_delivery,
                    stats: &pump_stats,
                    config,
                    loss: &pump_loss,
                };
                pump_loop(&ctx, &pump_closed, tick);
            })
            .expect("spawning the CLF pump thread failed");

        Ok(Arc::new(UdpEndpoint {
            local,
            addr,
            socket,
            config,
            shared,
            delivery,
            stats,
            closed,
            pump: Mutex::new(Some(handle)),
            loss,
        }))
    }

    /// The endpoint's bound socket address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Registers the socket address of a peer address space.
    pub fn add_peer(&self, peer: AsId, addr: SocketAddr) {
        self.shared.lock().peers.insert(peer, addr);
    }

    /// Packets sent to `peer` and not yet acknowledged, staged ones
    /// included: zero once the peer has acknowledged everything.
    #[must_use]
    pub fn unacked_packets(&self, peer: AsId) -> usize {
        self.shared
            .lock()
            .tx
            .get(&peer)
            .map_or(0, |tx| tx.win.window_used())
    }

    fn should_suppress(&self) -> bool {
        match self.config.loss {
            LossInjection::DropEveryNth(n) => {
                let mut st = self.loss.lock();
                st.counter += 1;
                n >= 2 && st.counter.is_multiple_of(u64::from(n))
            }
            _ => false,
        }
    }
}

/// Walks a segment list, carving off fragment payloads as refcounted
/// slices without copying any payload bytes.
struct SegCursor<'a> {
    segments: &'a [Bytes],
    idx: usize,
    off: usize,
}

impl<'a> SegCursor<'a> {
    fn new(segments: &'a [Bytes]) -> Self {
        SegCursor {
            segments,
            idx: 0,
            off: 0,
        }
    }

    fn take(&mut self, mut n: usize) -> Vec<Bytes> {
        let mut out = Vec::new();
        while n > 0 && self.idx < self.segments.len() {
            let seg = &self.segments[self.idx];
            let avail = seg.len() - self.off;
            if avail == 0 {
                self.idx += 1;
                self.off = 0;
                continue;
            }
            let take = avail.min(n);
            out.push(seg.slice(self.off..self.off + take));
            self.off += take;
            n -= take;
            if self.off == seg.len() {
                self.idx += 1;
                self.off = 0;
            }
        }
        out
    }
}

fn encode_ack(src: AsId, cum_ack: u64) -> Vec<u8> {
    let mut pkt = Vec::with_capacity(HEADER_LEN);
    pkt.extend_from_slice(&MAGIC.to_be_bytes());
    pkt.push(KIND_ACK);
    pkt.push(0);
    pkt.extend_from_slice(&src.0.to_be_bytes());
    pkt.extend_from_slice(&cum_ack.to_be_bytes());
    pkt
}

/// Builds a standalone SACK datagram: the CLF header (its seq field
/// mirrors `ack_next` for cheap inspection, its flags byte announces the
/// hold trailer) followed by the codec-encoded SACK body — the same
/// bytes either `dstampede-wire` codec round-trips, so the protocol
/// suite can cross-check the transport against the codecs — and the
/// hold.
fn encode_sack_datagram(src: AsId, sack: &SackInfo, hold: Duration) -> Vec<u8> {
    let body = XdrCodec::new()
        .encode_sack(sack)
        .expect("receive-window bitmap is bounded")
        .to_bytes();
    let mut pkt = Vec::with_capacity(HEADER_LEN + body.len() + HOLD_LEN);
    pkt.extend_from_slice(&MAGIC.to_be_bytes());
    pkt.push(KIND_SACK);
    pkt.push(FLAG_HOLD);
    pkt.extend_from_slice(&src.0.to_be_bytes());
    pkt.extend_from_slice(&sack.ack_next.to_be_bytes());
    pkt.extend_from_slice(&body);
    pkt.extend_from_slice(&hold_wire(hold));
    pkt
}

struct Parsed {
    kind: u8,
    flags: u8,
    src: AsId,
    seq: u64,
    /// A DATA packet's piggybacked cumulative ack (`ack_next`).
    ack: Option<u64>,
    /// How long the ack this packet carries was held (zero if unsaid).
    hold: Duration,
    payload: Bytes,
}

/// Parses the packet at `datagram[start..end]`, splitting off an ack or
/// hold trailer its flags announce; a packet too short for the trailer
/// is dropped. Payloads at or above [`VIEW_THRESHOLD`] are returned as
/// slice views into the datagram; smaller ones are copied out so the
/// receive buffer stays reclaimable.
fn parse(datagram: &Bytes, start: usize, mut end: usize) -> Option<Parsed> {
    let pkt = &datagram[start..end];
    if pkt.len() < HEADER_LEN {
        return None;
    }
    if u16::from_be_bytes([pkt[0], pkt[1]]) != MAGIC {
        return None;
    }
    let (kind, flags) = (pkt[2], pkt[3]);
    let mut body = start + HEADER_LEN;
    let (mut ack, mut hold) = (None, Duration::ZERO);
    if kind == KIND_DATA && flags & FLAG_ACK != 0 {
        if body + ACK_TRAILER_LEN > end {
            return None;
        }
        let t = &datagram[body..body + ACK_TRAILER_LEN];
        ack = Some(u64::from_be_bytes(t[..8].try_into().expect("8 bytes")));
        hold = hold_from_wire(&t[8..]);
        body += ACK_TRAILER_LEN;
    } else if kind == KIND_SACK && flags & FLAG_HOLD != 0 {
        end = end.checked_sub(HOLD_LEN).filter(|&e| e >= body)?;
        hold = hold_from_wire(&datagram[end..end + HOLD_LEN]);
    }
    let payload = if end - body >= VIEW_THRESHOLD {
        datagram.slice(body..end)
    } else {
        Bytes::copy_from_slice(&datagram[body..end])
    };
    Some(Parsed {
        kind,
        flags,
        src: AsId(u16::from_be_bytes([pkt[4], pkt[5]])),
        seq: u64::from_be_bytes(pkt[6..14].try_into().expect("8 bytes")),
        ack,
        hold,
        payload,
    })
}

/// Calls `f` for every packet in the first `len` bytes of a received
/// datagram — a bare packet or a coalesced container. Bytes past `len`
/// are stale leftovers of the recycled receive slot and never read.
fn for_each_packet(datagram: &Bytes, len: usize, mut f: impl FnMut(Parsed)) {
    if len < 2 || len > datagram.len() {
        return;
    }
    match u16::from_be_bytes([datagram[0], datagram[1]]) {
        MAGIC => {
            if let Some(p) = parse(datagram, 0, len) {
                f(p);
            }
        }
        COALESCE_MAGIC => {
            let mut off = 2;
            while off + 2 <= len {
                let n = usize::from(u16::from_be_bytes([datagram[off], datagram[off + 1]]));
                off += 2;
                if off + n > len {
                    break;
                }
                if let Some(p) = parse(datagram, off, off + n) {
                    f(p);
                }
                off += n;
            }
        }
        _ => {}
    }
}

/// Packs `packets` for one peer into datagrams, as many per datagram as
/// fit. A datagram carrying a single packet uses the bare packet format;
/// several packets use the coalesced container. The first packet of
/// every datagram carries `ack`, when given.
fn assemble(
    addr: SocketAddr,
    packets: &[Packet],
    ack: Option<AckTrailer>,
    grams: &mut Vec<OutDatagram>,
    stats: &StatCounters,
) {
    let trailer_len = if ack.is_some() { ACK_TRAILER_LEN } else { 0 };
    let mut i = 0;
    while i < packets.len() {
        let mut j = i + 1;
        let first_len = packets[i].wire_len() + trailer_len;
        let mut size = 2 + 2 + first_len;
        if first_len <= usize::from(u16::MAX) {
            while j < packets.len() {
                let w = packets[j].wire_len();
                if w > usize::from(u16::MAX) || size + 2 + w > MAX_DATAGRAM {
                    break;
                }
                size += 2 + w;
                j += 1;
            }
        }
        let mut buf = Vec::with_capacity(size);
        if j - i == 1 {
            packets[i].gather_into(&mut buf, ack.as_ref());
        } else {
            buf.extend_from_slice(&COALESCE_MAGIC.to_be_bytes());
            for (k, pkt) in packets[i..j].iter().enumerate() {
                let (trailer, extra) = if k == 0 {
                    (ack.as_ref(), trailer_len)
                } else {
                    (None, 0)
                };
                let len = u16::try_from(pkt.wire_len() + extra).expect("coalesced packet fits u16");
                buf.extend_from_slice(&len.to_be_bytes());
                pkt.gather_into(&mut buf, trailer);
            }
        }
        grams.push(OutDatagram { addr, buf });
        stats.note_coalesced((j - i) as u64);
        i = j;
    }
}

/// Applies loss injection and hands the burst to the batched send path.
fn emit(
    socket: &UdpSocket,
    config: &UdpConfig,
    loss: &Mutex<LossState>,
    grams: &mut Vec<OutDatagram>,
    stats: &StatCounters,
) {
    apply_loss(config, loss, grams);
    if grams.is_empty() {
        return;
    }
    udp_sys::send_burst(socket, grams, &mut |n| stats.note_batch_tx(n as u64));
    grams.clear();
}

/// Pops every packet the byte window and pacer admit right now.
fn drain_transmittable(tx: &mut PeerTx, now: Instant, out: &mut Vec<Packet>) {
    while let Some(len) = tx.win.transmittable_len() {
        if !tx.pacer.grant(len, now) {
            break;
        }
        let t = tx
            .win
            .transmit_next(now)
            .expect("transmittable head exists");
        // Injected loss suppresses only the first transmission; the
        // recovery machinery retransmits the packet for real.
        if !t.suppress {
            out.push(t.pkt);
        }
    }
}

/// Everything the pump thread needs, bundled.
struct PumpCtx<'a> {
    local: AsId,
    socket: &'a UdpSocket,
    shared: &'a Mutex<Shared>,
    delivery: &'a Delivery,
    stats: &'a StatCounters,
    config: UdpConfig,
    loss: &'a Mutex<LossState>,
}

/// The pump: receive a burst, update protocol state, send urgent acks
/// and whatever the windows admit, then hand the burst's completed
/// messages to the handler. A lone packet's ack is decided only after
/// the handler ran, so a reply it sends inline carries the ack; an ack
/// still owed leaves standalone when its deadline passes. `tick` is the
/// socket read timeout; a handler or owed-ack deadline due sooner bounds
/// the wait instead. Only this thread creates owed acks, so the bound
/// it computes is never too late.
fn pump_loop(ctx: &PumpCtx<'_>, closed: &AtomicBool, tick: Duration) {
    let batch = ctx.config.batch.max(1);
    let mut bufs: Vec<Vec<u8>> = (0..batch).map(|_| vec![0u8; RECV_BUF]).collect();
    let mut results: Vec<(usize, SocketAddr)> = Vec::new();
    let mut grams: Vec<OutDatagram> = Vec::new();
    let mut completed: Vec<(AsId, Bytes)> = Vec::new();
    let mut last_scan = Instant::now();
    let mut ack_due: Option<Instant> = None;
    while !closed.load(Ordering::Acquire) {
        let ack_wait = ack_due.map(|t| t.saturating_duration_since(Instant::now()));
        let due_first = [ctx.delivery.tick(), ack_wait]
            .into_iter()
            .flatten()
            .min()
            .filter(|d| *d < tick);
        let readable = due_first.is_none_or(|d| udp_sys::wait_readable(ctx.socket, d));
        let received = if readable {
            udp_sys::recv_burst(ctx.socket, &mut bufs, &mut results)
        } else {
            Ok(())
        };
        match received {
            Ok(()) => {
                if !results.is_empty() {
                    ctx.stats.note_batch_rx(results.len() as u64);
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => break,
        }
        let now = Instant::now();
        for k in 0..results.len() {
            let (len, from_addr) = results[k];
            // Freeze the whole slot into `Bytes` so payload views can
            // borrow it; packets are parsed within the received length,
            // and the slot is reclaimed at full length, unzeroed, when
            // nothing borrows it.
            let datagram = Bytes::from(std::mem::take(&mut bufs[k]));
            for_each_packet(&datagram, len, |p| {
                handle_packet(ctx, p, from_addr, now, &mut completed);
            });
            bufs[k] = datagram
                .try_into_vec()
                .unwrap_or_else(|_| vec![0u8; RECV_BUF]);
        }
        results.clear();
        let scan = now.duration_since(last_scan) >= MIN_RTO;
        if scan {
            last_scan = now;
        }
        ack_due = collect_outgoing(
            ctx.local,
            &ctx.config,
            ctx.stats,
            ctx.shared,
            scan,
            now,
            &mut grams,
        );
        emit(ctx.socket, &ctx.config, ctx.loss, &mut grams, ctx.stats);
        ctx.delivery.deliver_all(&mut completed);
    }
}

/// One pass over protocol state: flush fast retransmissions and
/// deferred packets the window or pacer now admits — each datagram
/// carrying the peer's ack — run the timeout scan when due, and send the
/// acks now due: standalone SACKs whose deadline passed, and a legacy
/// cumulative ACK to every legacy peer that sent DATA. Returns the
/// earliest deadline of an ack still owed.
fn collect_outgoing(
    local: AsId,
    config: &UdpConfig,
    stats: &StatCounters,
    shared: &Mutex<Shared>,
    scan: bool,
    now: Instant,
    grams: &mut Vec<OutDatagram>,
) -> Option<Instant> {
    let mut st = shared.lock();
    let st = &mut *st;
    let mut to_wire: Vec<Packet> = Vec::new();
    for (peer, tx) in st.tx.iter_mut() {
        let Some(&addr) = st.peers.get(peer) else {
            continue;
        };
        to_wire.clear();
        to_wire.append(&mut tx.pending_retx);
        if scan {
            for (_, pkt) in tx.win.scan_retransmits(now) {
                stats.note_retransmit();
                to_wire.push(pkt);
            }
        }
        if tx.win.deferred_len() > 0 {
            let ripe = config.coalesce_delay.is_zero()
                || tx.win.deferred_bytes() + 2 >= MAX_DATAGRAM
                || tx
                    .deferred_since
                    .is_none_or(|t| now.duration_since(t) >= config.coalesce_delay);
            if ripe {
                drain_transmittable(tx, now, &mut to_wire);
                if tx.win.deferred_len() == 0 {
                    tx.deferred_since = None;
                }
            }
        }
        if to_wire.is_empty() {
            continue;
        }
        let ack = if config.sack && !st.sack_disabled.contains(peer) {
            st.rx.get_mut(peer).and_then(|rx| rx.piggyback(now, stats))
        } else {
            None
        };
        assemble(addr, &to_wire, ack, grams, stats);
    }
    let mut next_due: Option<Instant> = None;
    for (peer, rx) in st.rx.iter_mut() {
        let Some(due) = rx.win.ack_deadline() else {
            continue;
        };
        // Legacy peers are acked at once and never see a SACK frame.
        let sack = config.sack && rx.sack_reply;
        if sack && due > now {
            next_due = Some(next_due.map_or(due, |t| t.min(due)));
            continue;
        }
        let Some(&addr) = st.peers.get(peer) else {
            continue;
        };
        let hold = rx.win.take_ack(now);
        let buf = if sack {
            stats.note_sack_sent();
            encode_sack_datagram(local, &rx.win.sack(), hold)
        } else if let Some(cum) = rx.win.ack_next().checked_sub(1) {
            encode_ack(local, cum)
        } else {
            continue;
        };
        grams.push(OutDatagram { addr, buf });
    }
    next_due
}

fn handle_packet(
    ctx: &PumpCtx<'_>,
    p: Parsed,
    from_addr: SocketAddr,
    now: Instant,
    completed: &mut Vec<(AsId, Bytes)>,
) {
    match p.kind {
        KIND_DATA => handle_data(ctx, p, from_addr, now, completed),
        KIND_ACK => {
            let mut st = ctx.shared.lock();
            if let Some(tx) = st.tx.get_mut(&p.src) {
                let ev = tx.win.on_cum_ack(p.seq, now);
                note_sample(ctx, tx, ev.sample);
            }
        }
        KIND_SACK => {
            let Ok(sack) = XdrCodec::new().decode_sack(&p.payload) else {
                return;
            };
            ctx.stats.note_sack_received();
            let mut st = ctx.shared.lock();
            fold_ack(
                ctx,
                &mut st,
                p.src,
                sack.ack_next,
                &sack.sacked_seqs(),
                p.hold,
                now,
            );
        }
        _ => {}
    }
}

/// Integrates a SACK or a piggybacked ack from `peer` into its send
/// window, queueing any fast retransmissions for the next flush.
fn fold_ack(
    ctx: &PumpCtx<'_>,
    st: &mut Shared,
    peer: AsId,
    ack_next: u64,
    sacked: &[u64],
    hold: Duration,
    now: Instant,
) {
    let Some(tx) = st.tx.get_mut(&peer) else {
        return;
    };
    let ev = tx.win.on_sack(ack_next, sacked, hold, now);
    for (_, pkt) in ev.fast_retransmits {
        ctx.stats.note_fast_retransmit();
        ctx.stats.note_retransmit();
        tx.pending_retx.push(pkt);
    }
    note_sample(ctx, tx, ev.sample);
}

/// Publishes the RTT sample an ack yielded and re-targets the pacer.
fn note_sample(ctx: &PumpCtx<'_>, tx: &mut PeerTx, sample: Option<Duration>) {
    if let Some(s) = sample {
        ctx.stats.note_rtt(s);
        ctx.stats.note_srtt(tx.win.rtt.srtt().unwrap_or_default());
    }
    tx.retarget_pacer(&ctx.config);
}

fn handle_data(
    ctx: &PumpCtx<'_>,
    p: Parsed,
    from_addr: SocketAddr,
    now: Instant,
    completed: &mut Vec<(AsId, Bytes)>,
) {
    let done;
    {
        let mut st = ctx.shared.lock();
        // Learn/refresh the peer's address from observed traffic.
        st.peers.insert(p.src, from_addr);
        if let Some(ack_next) = p.ack {
            fold_ack(ctx, &mut st, p.src, ack_next, &[], p.hold, now);
        }
        let rx = st.rx.entry(p.src).or_default();
        rx.sack_reply = p.flags & FLAG_SACK != 0;
        let ev = rx
            .win
            .insert(p.seq, p.flags & FLAG_EOM != 0, p.payload, now);
        if !ev.accepted {
            ctx.stats.note_duplicate();
        }
        done = ev.completed;
    }
    for msg in done {
        ctx.stats.note_received(msg.len());
        completed.push((p.src, msg));
    }
}

impl ClfTransport for UdpEndpoint {
    fn local(&self) -> AsId {
        self.local
    }

    fn send(&self, dst: AsId, msg: Bytes) -> Result<(), ClfError> {
        self.send_segments(dst, std::slice::from_ref(&msg))
    }

    fn send_segments(&self, dst: AsId, segments: &[Bytes]) -> Result<(), ClfError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(ClfError::Closed);
        }
        let total: usize = segments.iter().map(Bytes::len).sum();
        let mut grams: Vec<OutDatagram> = Vec::new();
        {
            let mut st = self.shared.lock();
            let st = &mut *st;
            let addr = *st.peers.get(&dst).ok_or(ClfError::UnknownPeer)?;
            let sack = self.config.sack && !st.sack_disabled.contains(&dst);
            let tx = st
                .tx
                .entry(dst)
                .or_insert_with(|| PeerTx::new(&self.config));
            let frag = self.config.frag_payload.max(1);
            let n_frags = total.div_ceil(frag).max(1);
            if !tx.win.can_accept(n_frags) {
                self.stats.note_backpressure();
                return Err(ClfError::Backpressure { peer: dst });
            }
            let now = Instant::now();
            let mut cursor = SegCursor::new(segments);
            for i in 0..n_frags {
                let take = if i + 1 == n_frags {
                    total - i * frag
                } else {
                    frag
                };
                let eom = i + 1 == n_frags;
                let pkt = Packet::data(self.local, tx.win.next_seq(), eom, sack, cursor.take(take));
                let wire_len = pkt.wire_len();
                tx.win.stage(pkt, wire_len, self.should_suppress());
            }
            if self.config.coalesce_delay.is_zero() || tx.win.deferred_bytes() + 2 >= MAX_DATAGRAM {
                let mut to_wire = Vec::new();
                drain_transmittable(tx, now, &mut to_wire);
                if !to_wire.is_empty() {
                    // Stamped under the lock, at assembly: the ack is
                    // current, never the one of an earlier staging.
                    let ack = if sack {
                        st.rx
                            .get_mut(&dst)
                            .and_then(|rx| rx.piggyback(now, &self.stats))
                    } else {
                        None
                    };
                    assemble(addr, &to_wire, ack, &mut grams, &self.stats);
                }
                if tx.win.deferred_len() == 0 {
                    tx.deferred_since = None;
                } else if tx.deferred_since.is_none() {
                    tx.deferred_since = Some(now);
                }
            } else if tx.deferred_since.is_none() {
                tx.deferred_since = Some(now);
            }
        }
        emit(
            &self.socket,
            &self.config,
            &self.loss,
            &mut grams,
            &self.stats,
        );
        self.stats.note_sent(total);
        Ok(())
    }

    fn set_handler(&self, handler: Arc<dyn ClfHandler>) {
        self.delivery.install(handler);
    }

    fn recv(&self) -> Result<(AsId, Bytes), ClfError> {
        self.delivery.recv(&self.closed)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<(AsId, Bytes), ClfError> {
        self.delivery.recv_timeout(&self.closed, timeout)
    }

    fn try_recv(&self) -> Result<(AsId, Bytes), ClfError> {
        self.delivery.try_recv(&self.closed)
    }

    fn stats(&self) -> TransportStats {
        self.stats.snapshot()
    }

    fn bind_metrics(&self, registry: &MetricsRegistry) {
        self.stats.bind(registry, "udp");
    }

    /// One wheel-clocked pass over timed protocol state: the
    /// retransmission scan, any deferred/aged coalesce batches the
    /// window or pacer now admits, and owed acks now due. Safe alongside the pump thread — the
    /// shared lock serializes protocol mutation, and concurrent sends on
    /// the same socket are fine.
    fn housekeep(&self) {
        if self.closed.load(Ordering::Acquire) {
            return;
        }
        let mut grams: Vec<OutDatagram> = Vec::new();
        collect_outgoing(
            self.local,
            &self.config,
            &self.stats,
            &self.shared,
            true,
            Instant::now(),
            &mut grams,
        );
        emit(
            &self.socket,
            &self.config,
            &self.loss,
            &mut grams,
            &self.stats,
        );
    }

    fn purge_peer(&self, peer: AsId) {
        let mut st = self.shared.lock();
        st.tx.remove(&peer);
        st.rx.remove(&peer);
        // The address mapping stays: a restarted peer starts a fresh
        // sequence space and is re-learned from observed traffic.
    }

    fn set_peer_sack(&self, peer: AsId, enabled: bool) {
        let mut st = self.shared.lock();
        if enabled {
            st.sack_disabled.remove(&peer);
        } else {
            st.sack_disabled.insert(peer);
        }
    }

    fn shutdown(&self) {
        self.closed.store(true, Ordering::Release);
        if let Some(h) = self.pump.lock().take() {
            // Shutdown may run on the pump itself (a handler reacting to
            // a message); it exits on its next pass.
            if h.thread().id() != std::thread::current().id() {
                let _ = h.join();
            }
        }
    }
}

impl fmt::Debug for UdpEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UdpEndpoint")
            .field("local", &self.local)
            .field("addr", &self.addr)
            .field("closed", &self.closed.load(Ordering::Relaxed))
            .finish()
    }
}

impl Drop for UdpEndpoint {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Builds a fully-connected set of loopback UDP endpoints for `n` address
/// spaces `AsId(0) .. AsId(n-1)`.
///
/// # Errors
///
/// [`ClfError::Io`] if any socket cannot be bound.
pub fn udp_mesh(n: u16, config: UdpConfig) -> Result<Vec<Arc<UdpEndpoint>>, ClfError> {
    let endpoints: Vec<Arc<UdpEndpoint>> = (0..n)
        .map(|i| UdpEndpoint::bind(AsId(i), config))
        .collect::<Result<_, _>>()?;
    for a in &endpoints {
        for b in &endpoints {
            if a.local() != b.local() {
                a.add_peer(b.local(), b.local_addr());
            }
        }
    }
    Ok(endpoints)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(config: UdpConfig) -> (Arc<UdpEndpoint>, Arc<UdpEndpoint>) {
        let mut v = udp_mesh(2, config).unwrap();
        let b = v.pop().unwrap();
        let a = v.pop().unwrap();
        (a, b)
    }

    #[test]
    fn small_message_round_trip() {
        let (a, b) = pair(UdpConfig::default());
        a.send(AsId(1), Bytes::from_static(b"ping")).unwrap();
        let (from, msg) = b.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(from, AsId(0));
        assert_eq!(&msg[..], b"ping");
    }

    #[test]
    fn empty_message_delivered() {
        let (a, b) = pair(UdpConfig::default());
        a.send(AsId(1), Bytes::new()).unwrap();
        let (_, msg) = b.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(msg.is_empty());
    }

    #[test]
    fn large_message_fragments_and_reassembles() {
        let (a, b) = pair(UdpConfig::default());
        let payload: Vec<u8> = (0..60_000u32).map(|i| (i % 251) as u8).collect();
        a.send(AsId(1), Bytes::from(payload.clone())).unwrap();
        let (_, msg) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&msg[..], &payload[..]);
    }

    #[test]
    fn many_messages_stay_ordered() {
        let (a, b) = pair(UdpConfig::default());
        for i in 0..200u32 {
            a.send(AsId(1), Bytes::from(i.to_be_bytes().to_vec()))
                .unwrap();
        }
        for i in 0..200u32 {
            let (_, msg) = b.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(u32::from_be_bytes(msg[..].try_into().unwrap()), i);
        }
    }

    #[test]
    fn survives_packet_loss() {
        let lossy = UdpConfig {
            loss: LossInjection::DropEveryNth(3),
            rto: Duration::from_millis(20),
            ..UdpConfig::default()
        };
        let (a, b) = pair(lossy);
        let payload: Vec<u8> = (0..40_000u32).map(|i| (i % 13) as u8).collect();
        for i in 0..20u32 {
            let mut m = payload.clone();
            m[0] = i as u8;
            a.send(AsId(1), Bytes::from(m)).unwrap();
        }
        for i in 0..20u32 {
            let (_, msg) = b.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(msg[0], i as u8, "message {i} out of order or corrupt");
            assert_eq!(msg.len(), payload.len());
        }
        assert!(
            a.stats().retransmits > 0,
            "loss injection should force retransmissions"
        );
    }

    #[test]
    fn sack_fast_path_runs_by_default() {
        let (a, b) = pair(UdpConfig::default());
        for i in 0..50u32 {
            a.send(AsId(1), Bytes::from(vec![0u8; 4096 + i as usize]))
                .unwrap();
        }
        for i in 0..50u32 {
            let (_, msg) = b.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(msg.len(), 4096 + i as usize);
        }
        // Give the last SACK a moment to arrive back at the sender.
        let deadline = Instant::now() + Duration::from_secs(2);
        while a.stats().sack_frames == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            a.stats().sack_frames > 0,
            "default config should exchange SACK frames"
        );
    }

    #[test]
    fn sack_downgrade_falls_back_to_legacy_acks() {
        let (a, b) = pair(UdpConfig::default());
        a.set_peer_sack(AsId(1), false);
        for i in 0..20u8 {
            a.send(AsId(1), Bytes::from(vec![i; 512])).unwrap();
        }
        for i in 0..20u8 {
            let (_, msg) = b.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(msg[0], i);
        }
        assert_eq!(
            a.stats().sack_frames,
            0,
            "downgraded peer must be answered with legacy ACKs"
        );
    }

    #[test]
    fn unknown_peer_rejected() {
        let a = UdpEndpoint::bind(AsId(0), UdpConfig::default()).unwrap();
        assert_eq!(
            a.send(AsId(7), Bytes::new()).unwrap_err(),
            ClfError::UnknownPeer
        );
        a.shutdown();
    }

    #[test]
    fn bidirectional_traffic() {
        let (a, b) = pair(UdpConfig::default());
        a.send(AsId(1), Bytes::from_static(b"to-b")).unwrap();
        b.send(AsId(0), Bytes::from_static(b"to-a")).unwrap();
        assert_eq!(
            &b.recv_timeout(Duration::from_secs(2)).unwrap().1[..],
            b"to-b"
        );
        assert_eq!(
            &a.recv_timeout(Duration::from_secs(2)).unwrap().1[..],
            b"to-a"
        );
    }

    #[test]
    fn shutdown_closes_operations() {
        let (a, _b) = pair(UdpConfig::default());
        a.shutdown();
        assert_eq!(a.send(AsId(1), Bytes::new()).unwrap_err(), ClfError::Closed);
        assert_eq!(a.try_recv().unwrap_err(), ClfError::Closed);
    }

    #[test]
    fn timeout_and_empty() {
        let (a, _b) = pair(UdpConfig::default());
        assert_eq!(a.try_recv().unwrap_err(), ClfError::Empty);
        assert_eq!(
            a.recv_timeout(Duration::from_millis(20)).unwrap_err(),
            ClfError::Timeout
        );
    }

    #[test]
    fn dead_peer_triggers_backpressure_and_purge_recovers() {
        let a = UdpEndpoint::bind(
            AsId(0),
            UdpConfig {
                max_unacked: 4,
                rto: Duration::from_secs(30), // keep retransmits out of the picture
                ..UdpConfig::default()
            },
        )
        .unwrap();
        // Point at a socket nobody ever ACKs from.
        let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
        a.add_peer(AsId(1), sink.local_addr().unwrap());
        for _ in 0..4 {
            a.send(AsId(1), Bytes::from_static(b"x")).unwrap();
        }
        assert_eq!(
            a.send(AsId(1), Bytes::from_static(b"x")).unwrap_err(),
            ClfError::Backpressure { peer: AsId(1) }
        );
        // Declaring the peer dead purges the buffer and unblocks sends.
        a.purge_peer(AsId(1));
        a.send(AsId(1), Bytes::from_static(b"x")).unwrap();
        a.shutdown();
    }

    #[test]
    fn pacer_deferral_is_not_backpressure() {
        // A deliberately slow fixed pace: the sender accepts the whole
        // burst immediately (no Backpressure — the packet window has
        // room) and the pacer trickles it onto the wire.
        let (a, b) = pair(UdpConfig {
            pace: Some(1024 * 1024), // 1 MB/s, ~64 KiB initial burst
            ..UdpConfig::default()
        });
        let t0 = Instant::now();
        for i in 0..20u8 {
            a.send(AsId(1), Bytes::from(vec![i; 8192]))
                .unwrap_or_else(|e| panic!("pacer deferral must not error: {e:?}"));
        }
        let staged_in = t0.elapsed();
        for i in 0..20u8 {
            let (_, msg) = b.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(msg[0], i);
        }
        let drained_in = t0.elapsed();
        assert_eq!(a.stats().backpressure, 0, "deferral is not backpressure");
        assert!(
            staged_in < Duration::from_millis(500),
            "sends must not block on the pacer ({staged_in:?})"
        );
        // 160 KiB at 1 MB/s minus the ~64 KiB burst ⇒ tens of ms paced.
        assert!(
            drained_in >= Duration::from_millis(50),
            "pacing should have throttled delivery ({drained_in:?})"
        );
    }

    #[test]
    fn genuinely_full_window_backpressures_while_pacer_defers() {
        // Tiny packet window + slow pace: the first sends defer on the
        // pacer without erroring, and only exhausting the packet window
        // itself produces Backpressure.
        let a = UdpEndpoint::bind(
            AsId(0),
            UdpConfig {
                max_unacked: 4,
                pace: Some(1),
                rto: Duration::from_secs(30),
                ..UdpConfig::default()
            },
        )
        .unwrap();
        let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
        a.add_peer(AsId(1), sink.local_addr().unwrap());
        for _ in 0..4 {
            a.send(AsId(1), Bytes::from_static(b"x")).unwrap();
        }
        assert_eq!(
            a.send(AsId(1), Bytes::from_static(b"x")).unwrap_err(),
            ClfError::Backpressure { peer: AsId(1) }
        );
        assert_eq!(a.stats().backpressure, 1);
        a.shutdown();
    }

    #[test]
    fn seeded_loss_recovers_everything() {
        let (a, b) = pair(UdpConfig {
            loss: LossInjection::Seeded {
                seed: 7,
                drop_permille: 100,
                dup_permille: 50,
                reorder_permille: 100,
            },
            rto: Duration::from_millis(20),
            ..UdpConfig::default()
        });
        for i in 0..50u8 {
            a.send(AsId(1), Bytes::from(vec![i; 600])).unwrap();
        }
        for i in 0..50u8 {
            let (_, msg) = b.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(msg[0], i, "message {i} lost or reordered");
            assert_eq!(msg.len(), 600);
        }
    }

    #[test]
    fn garbage_packets_ignored() {
        let (a, b) = pair(UdpConfig::default());
        // Throw junk at b's socket from a raw socket.
        let junk = UdpSocket::bind("127.0.0.1:0").unwrap();
        junk.send_to(b"not a clf packet", b.local_addr()).unwrap();
        junk.send_to(&[0u8; 3], b.local_addr()).unwrap();
        a.send(AsId(1), Bytes::from_static(b"real")).unwrap();
        assert_eq!(
            &b.recv_timeout(Duration::from_secs(2)).unwrap().1[..],
            b"real"
        );
    }

    #[test]
    fn send_segments_concatenates_across_fragments() {
        let (a, b) = pair(UdpConfig {
            frag_payload: 10,
            ..UdpConfig::default()
        });
        let segs = [
            Bytes::from_static(b"alpha-"),
            Bytes::new(),
            Bytes::from_static(b"beta-and-more-"),
            Bytes::from_static(b"gamma"),
        ];
        a.send_segments(AsId(1), &segs).unwrap();
        let (_, msg) = b.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(&msg[..], b"alpha-beta-and-more-gamma");
    }

    #[test]
    fn recycled_slot_parses_only_the_received_length() {
        let data = |seq: u64, payload: &[u8]| {
            let mut pkt = Packet::data(AsId(3), seq, true, true, vec![])
                .header
                .to_vec();
            pkt.extend_from_slice(payload);
            pkt
        };
        let payloads = |datagram: &Bytes, len: usize| {
            let mut out = Vec::new();
            for_each_packet(datagram, len, |p| out.push((p.seq, p.payload)));
            out
        };
        let mut slot = vec![0u8; RECV_BUF];
        let long = data(0, &[0xAA; 1000]);
        slot[..long.len()].copy_from_slice(&long);
        let datagram = Bytes::from(slot);
        let got = payloads(&datagram, long.len());
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0].1[..], &[0xAA; 1000][..]);
        drop(got);
        // The slot comes back at full length, not zeroed: the short
        // datagram lands on top of the long one's bytes.
        let mut slot = datagram.try_into_vec().expect("no view outlives the parse");
        assert_eq!(slot.len(), RECV_BUF);
        let short = data(1, b"hi");
        slot[..short.len()].copy_from_slice(&short);
        let datagram = Bytes::from(slot);
        let got = payloads(&datagram, short.len());
        assert_eq!(got.len(), 1);
        assert_eq!(
            (got[0].0, &got[0].1[..]),
            (1, &b"hi"[..]),
            "stale bytes leaked"
        );
    }

    #[test]
    fn one_slot_carries_a_long_then_a_short_message() {
        let (a, b) = pair(UdpConfig {
            batch: 1,
            ..UdpConfig::default()
        });
        a.send(AsId(1), Bytes::from(vec![7u8; 5000])).unwrap();
        a.send(AsId(1), Bytes::from_static(b"short")).unwrap();
        assert_eq!(
            &b.recv_timeout(Duration::from_secs(2)).unwrap().1[..],
            &[7u8; 5000][..]
        );
        assert_eq!(
            &b.recv_timeout(Duration::from_secs(2)).unwrap().1[..],
            b"short"
        );
    }

    #[test]
    fn coalesce_delay_packs_frames_per_datagram() {
        let (a, b) = pair(UdpConfig {
            coalesce_delay: Duration::from_millis(5),
            ..UdpConfig::default()
        });
        let reg = MetricsRegistry::new("test");
        a.bind_metrics(&reg);
        for i in 0..5u8 {
            a.send(AsId(1), Bytes::from(vec![i])).unwrap();
        }
        for i in 0..5u8 {
            let (_, msg) = b.recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(msg[0], i, "coalesced frames must stay ordered");
        }
        let snap = reg.snapshot();
        let co = snap
            .histogram("clf", "coalesced_frames")
            .expect("coalesced series");
        assert!(
            co.sum > co.count,
            "five back-to-back sends within the delay should share datagrams \
             (frames={}, datagrams={})",
            co.sum,
            co.count
        );
    }
}
