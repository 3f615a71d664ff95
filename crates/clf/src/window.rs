//! Sliding-window ARQ state machines for the CLF fast path.
//!
//! The protocol core of the UDP backend lives here, factored out of the
//! socket layer: send-side window bookkeeping ([`SendWindow`]),
//! receive-side reordering and reassembly ([`RecvWindow`]), and adaptive
//! retransmission timing ([`RttEstimator`]). Every method takes an
//! explicit `now: Instant` instead of reading the wall clock, so the
//! model-based protocol suite (`tests/window_model.rs`) drives the exact
//! production state machines against a simulated lossy channel with a
//! virtual clock — no sockets, no sleeping, fully deterministic.
//!
//! The send window distinguishes three packet states:
//!
//! * **deferred** — staged by a send but not yet transmitted, because the
//!   in-flight byte budget ([`SendWindow::max_bytes`]) or the sender's
//!   pacer said "not yet". Deferred packets count against the
//!   backpressure window but consume no network.
//! * **unacked** — transmitted and awaiting acknowledgment; eligible for
//!   timeout retransmission and, under SACK feedback, fast retransmission
//!   after [`DUP_SACK_THRESHOLD`] duplicate reports of the same hole.
//! * **acked** — cumulatively or selectively acknowledged and dropped.
//!   A selectively acknowledged packet is forgotten immediately (the
//!   receiver never renegs), so retransmissions only ever cover holes.
//!
//! The receive window also decides *when* to acknowledge. A lone
//! in-order packet's ack is owed, not sent: it may ride the next DATA
//! toward the peer or leave on its own once [`ACK_DELAY`] expires
//! ([`RecvWindow::ack_deadline`]). A duplicate, a hole, or a second
//! unacked packet makes the ack due at once. Every ack reports its
//! *hold* ([`RecvWindow::take_ack`]) and the sender subtracts it from
//! the round trips that ack yields, so RTT samples measure the path and
//! not the receiver's delay.

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

use bytes::Bytes;
use dstampede_wire::{SackInfo, MAX_SACK_BITMAP};

/// Floor on the adaptive retransmission timeout.
pub const MIN_RTO: Duration = Duration::from_millis(5);
/// Ceiling on the adaptive retransmission timeout.
pub const MAX_RTO: Duration = Duration::from_secs(60);

/// How many times a hole must be reported by successive SACKs before the
/// sender fast-retransmits it without waiting for the timeout. Two
/// reports distinguish a real loss from plain reordering, mirroring
/// TCP's duplicate-ACK threshold scaled to per-burst SACK cadence.
pub const DUP_SACK_THRESHOLD: u32 = 2;

/// How long a receiver may hold the acknowledgment of a lone in-order
/// packet, waiting for reverse DATA to carry it (TCP's delayed ACK,
/// QUIC's `max_ack_delay`). A fifth of [`MIN_RTO`], so the hold alone
/// never reaches the sender's retransmission timeout.
pub const ACK_DELAY: Duration = Duration::from_millis(1);

const _: () = assert!(ACK_DELAY.as_nanos() * 2 < MIN_RTO.as_nanos());

/// Jacobson/Karels retransmission-timeout estimation (RFC 6298 shape).
#[derive(Debug, Clone, Copy)]
pub struct RttEstimator {
    srtt: Option<Duration>,
    rttvar: Duration,
    rto: Duration,
    /// Configured starting timeout, used until the first clean sample
    /// and as the backoff-reset floor before one exists.
    initial: Duration,
}

impl RttEstimator {
    /// An estimator seeded with a configured initial timeout (clamped to
    /// [`MIN_RTO`]..[`MAX_RTO`]).
    #[must_use]
    pub fn new(initial: Duration) -> RttEstimator {
        let initial = initial.clamp(MIN_RTO, MAX_RTO);
        RttEstimator {
            srtt: None,
            rttvar: Duration::ZERO,
            rto: initial,
            initial,
        }
    }

    /// Folds one measured round-trip into the estimate. Callers must
    /// respect Karn's rule: never sample a retransmitted packet.
    pub fn sample(&mut self, s: Duration) {
        match self.srtt {
            None => {
                self.srtt = Some(s);
                self.rttvar = s / 2;
            }
            Some(srtt) => {
                let err = srtt.abs_diff(s);
                self.rttvar = (self.rttvar * 3 + err) / 4;
                self.srtt = Some((srtt * 7 + s) / 8);
            }
        }
        self.rto = (self.srtt.unwrap_or_default() + 4 * self.rttvar).clamp(MIN_RTO, MAX_RTO);
    }

    /// Exponential backoff after a retransmission (the estimate itself
    /// is left alone; the next clean sample re-derives the timeout).
    pub fn backoff(&mut self) {
        self.rto = (self.rto * 2).min(MAX_RTO);
    }

    /// Sheds accumulated backoff after acked forward progress that
    /// produced no clean sample (every acked packet had been
    /// retransmitted, so Karn's rule discards them). Without this a
    /// fully retransmitted window can never re-arm the timer: no
    /// packet ever samples, the backoff compounds toward [`MAX_RTO`],
    /// and a sustained burst stalls. The network demonstrably moved,
    /// so fall back to the current estimate.
    pub fn reset_backoff(&mut self) {
        self.rto = match self.srtt {
            Some(srtt) => (srtt + 4 * self.rttvar).clamp(MIN_RTO, MAX_RTO),
            None => self.initial,
        };
    }

    /// The current retransmission timeout.
    #[must_use]
    pub fn rto(&self) -> Duration {
        self.rto
    }

    /// The smoothed round-trip estimate, once at least one clean sample
    /// has been folded in.
    #[must_use]
    pub fn srtt(&self) -> Option<Duration> {
        self.srtt
    }
}

/// One transmitted-and-unacknowledged packet.
#[derive(Debug)]
struct Slot<P> {
    pkt: P,
    wire_len: usize,
    sent_at: Instant,
    /// Karn's rule: a retransmitted packet's ACK is ambiguous and must
    /// not feed the RTT estimator.
    retransmitted: bool,
    /// How many successive SACKs have reported this packet as a hole.
    dup_holes: u32,
}

/// One staged-but-untransmitted packet.
#[derive(Debug)]
struct Staged<P> {
    seq: u64,
    pkt: P,
    wire_len: usize,
    suppress: bool,
}

/// A packet the window released for (first) transmission.
#[derive(Debug)]
pub struct Transmit<P> {
    /// Its sequence number.
    pub seq: u64,
    /// The packet itself.
    pub pkt: P,
    /// When set, the caller must account the packet as in flight but not
    /// actually emit it — the hook test loss injection uses to suppress
    /// a first transmission and force the recovery machinery to act.
    pub suppress: bool,
}

/// What integrating one acknowledgment did to the window.
#[derive(Debug)]
pub struct AckEvent<P> {
    /// Packets newly removed from the window.
    pub newly_acked: usize,
    /// The clean round-trip sample folded into the estimator, if the
    /// ack yielded one (see [`SendWindow::on_sack`]), for telemetry.
    pub sample: Option<Duration>,
    /// Hole packets to fast-retransmit right now: each was reported
    /// missing by [`DUP_SACK_THRESHOLD`] successive SACKs while packets
    /// sent after it arrived.
    pub fast_retransmits: Vec<(u64, P)>,
}

/// Send half of the sliding-window ARQ for one peer.
///
/// Generic over the packet representation `P` (the UDP backend stores
/// pre-built header+payload gather lists; tests store plain bytes); the
/// window itself only tracks sequence numbers, wire lengths, and timing.
#[derive(Debug)]
pub struct SendWindow<P> {
    next_seq: u64,
    unacked: BTreeMap<u64, Slot<P>>,
    deferred: VecDeque<Staged<P>>,
    deferred_bytes: usize,
    in_flight_bytes: usize,
    max_packets: usize,
    max_bytes: usize,
    /// The peer's adaptive retransmission timer.
    pub rtt: RttEstimator,
}

impl<P> SendWindow<P> {
    /// A window admitting at most `max_packets` staged-or-unacked packets
    /// (the backpressure bound) and `max_bytes` transmitted-and-unacked
    /// bytes (the in-flight budget), with the given initial timeout.
    #[must_use]
    pub fn new(max_packets: usize, max_bytes: usize, initial_rto: Duration) -> SendWindow<P> {
        SendWindow {
            next_seq: 0,
            unacked: BTreeMap::new(),
            deferred: VecDeque::new(),
            deferred_bytes: 0,
            in_flight_bytes: 0,
            max_packets: max_packets.max(1),
            max_bytes: max_bytes.max(1),
            rtt: RttEstimator::new(initial_rto),
        }
    }

    /// The sequence number the next staged packet will get.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Packets counted against the backpressure bound: staged + unacked.
    #[must_use]
    pub fn window_used(&self) -> usize {
        self.unacked.len() + self.deferred.len()
    }

    /// Whether `n` more packets fit under the backpressure bound. This —
    /// and only this — failing is genuine backpressure: the peer holds
    /// a full window's worth of our packets hostage. A pacer or byte
    /// budget deferring transmission is not.
    #[must_use]
    pub fn can_accept(&self, n: usize) -> bool {
        self.window_used() + n <= self.max_packets
    }

    /// Transmitted-and-unacknowledged bytes.
    #[must_use]
    pub fn in_flight_bytes(&self) -> usize {
        self.in_flight_bytes
    }

    /// Staged packets awaiting transmission.
    #[must_use]
    pub fn deferred_len(&self) -> usize {
        self.deferred.len()
    }

    /// Wire bytes of the staged packets awaiting transmission.
    #[must_use]
    pub fn deferred_bytes(&self) -> usize {
        self.deferred_bytes
    }

    /// Transmitted packets awaiting acknowledgment.
    #[must_use]
    pub fn unacked_len(&self) -> usize {
        self.unacked.len()
    }

    /// Whether the window holds nothing at all — every staged packet was
    /// transmitted and every transmitted packet acknowledged.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.unacked.is_empty() && self.deferred.is_empty()
    }

    /// Stages a packet of `wire_len` bytes, assigning and returning its
    /// sequence number. The packet is not yet in flight; it waits for
    /// [`SendWindow::transmit_next`]. Callers enforce the backpressure
    /// bound with [`SendWindow::can_accept`] first.
    pub fn stage(&mut self, pkt: P, wire_len: usize, suppress: bool) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.deferred_bytes += wire_len;
        self.deferred.push_back(Staged {
            seq,
            pkt,
            wire_len,
            suppress,
        });
        seq
    }

    /// The wire length of the next staged packet the in-flight byte
    /// budget admits, or `None` when nothing is transmittable. A packet
    /// larger than the whole budget is admitted once the window drains
    /// empty, so an oversized datagram can never wedge the sender.
    #[must_use]
    pub fn transmittable_len(&self) -> Option<usize> {
        let head = self.deferred.front()?;
        if self.in_flight_bytes + head.wire_len <= self.max_bytes || self.unacked.is_empty() {
            Some(head.wire_len)
        } else {
            None
        }
    }

    /// Moves the next transmittable packet into the unacked set and
    /// returns it for emission. `None` under the same conditions as
    /// [`SendWindow::transmittable_len`].
    pub fn transmit_next(&mut self, now: Instant) -> Option<Transmit<P>>
    where
        P: Clone,
    {
        self.transmittable_len()?;
        let staged = self.deferred.pop_front()?;
        self.deferred_bytes -= staged.wire_len;
        self.in_flight_bytes += staged.wire_len;
        self.unacked.insert(
            staged.seq,
            Slot {
                pkt: staged.pkt.clone(),
                wire_len: staged.wire_len,
                sent_at: now,
                retransmitted: false,
                dup_holes: 0,
            },
        );
        Some(Transmit {
            seq: staged.seq,
            pkt: staged.pkt,
            suppress: staged.suppress,
        })
    }

    /// Removes the acked slots among `seqs` and settles the RTT
    /// estimate. Only the newest packet acked yields a sample (QUIC's
    /// largest-acknowledged rule), and only if it was never retransmitted
    /// (Karn's rule): the `hold` the receiver reports is exact for it,
    /// while an older packet's round trip also holds the wait for the
    /// newer one. When the window advanced without a clean sample, the
    /// backoff is shed instead.
    fn ack_all(
        &mut self,
        seqs: impl IntoIterator<Item = u64>,
        hold: Duration,
        now: Instant,
    ) -> (usize, Option<Duration>) {
        let mut newly_acked = 0;
        let mut newest: Option<(u64, Slot<P>)> = None;
        for seq in seqs {
            let Some(slot) = self.unacked.remove(&seq) else {
                continue;
            };
            self.in_flight_bytes -= slot.wire_len;
            newly_acked += 1;
            if newest.as_ref().is_none_or(|(s, _)| seq > *s) {
                newest = Some((seq, slot));
            }
        }
        let sample = newest
            .filter(|(_, slot)| !slot.retransmitted)
            .map(|(_, slot)| now.duration_since(slot.sent_at).saturating_sub(hold));
        match sample {
            Some(s) => self.rtt.sample(s),
            None if newly_acked > 0 => self.rtt.reset_backoff(),
            None => {}
        }
        (newly_acked, sample)
    }

    /// Integrates a legacy cumulative acknowledgment: every packet with
    /// sequence number at most `cum_ack` has been received.
    pub fn on_cum_ack(&mut self, cum_ack: u64, now: Instant) -> AckEvent<P> {
        let acked: Vec<u64> = self.unacked.range(..=cum_ack).map(|(&s, _)| s).collect();
        let (newly_acked, sample) = self.ack_all(acked, Duration::ZERO, now);
        AckEvent {
            newly_acked,
            sample,
            fast_retransmits: Vec::new(),
        }
    }

    /// Integrates a selective acknowledgment: everything below `ack_next`
    /// has been received in order, plus the listed out-of-order `sacked`
    /// sequence numbers. Selectively acknowledged packets are dropped
    /// immediately (the receiver never renegs). Unacked packets below the
    /// highest sacked sequence are holes; one reported by
    /// [`DUP_SACK_THRESHOLD`] successive SACKs is returned for fast
    /// retransmission (and marked retransmitted under Karn's rule).
    ///
    /// `hold` is the delay the receiver reported for this ack; it is
    /// taken off the RTT sample (never below zero). An ack naming a
    /// sequence number never transmitted is forged or stale and is
    /// ignored whole.
    pub fn on_sack(
        &mut self,
        ack_next: u64,
        sacked: &[u64],
        hold: Duration,
        now: Instant,
    ) -> AckEvent<P>
    where
        P: Clone,
    {
        let horizon = self.deferred.front().map_or(self.next_seq, |s| s.seq);
        if ack_next > horizon || sacked.iter().any(|&s| s >= horizon) {
            return AckEvent {
                newly_acked: 0,
                sample: None,
                fast_retransmits: Vec::new(),
            };
        }
        let mut acked: Vec<u64> = self.unacked.range(..ack_next).map(|(&s, _)| s).collect();
        acked.extend_from_slice(sacked);
        let (newly_acked, sample) = self.ack_all(acked, hold, now);
        let mut fast_retransmits = Vec::new();
        if let Some(&horizon) = sacked.iter().max() {
            for (&seq, slot) in self.unacked.range_mut(..horizon) {
                slot.dup_holes += 1;
                if slot.dup_holes >= DUP_SACK_THRESHOLD {
                    slot.dup_holes = 0;
                    slot.retransmitted = true;
                    slot.sent_at = now;
                    fast_retransmits.push((seq, slot.pkt.clone()));
                }
            }
        }
        AckEvent {
            newly_acked,
            sample,
            fast_retransmits,
        }
    }

    /// Returns every unacked packet whose retransmission timeout has
    /// expired, marking each retransmitted and re-arming its timer. Backs
    /// the timeout off once per scan that retransmitted anything.
    pub fn scan_retransmits(&mut self, now: Instant) -> Vec<(u64, P)>
    where
        P: Clone,
    {
        let rto = self.rtt.rto();
        let mut out = Vec::new();
        for (&seq, slot) in self.unacked.iter_mut() {
            if now.duration_since(slot.sent_at) >= rto {
                slot.sent_at = now;
                slot.retransmitted = true;
                slot.dup_holes = 0;
                out.push((seq, slot.pkt.clone()));
            }
        }
        if !out.is_empty() {
            self.rtt.backoff();
        }
        out
    }
}

/// What inserting one packet did to the receive window.
#[derive(Debug)]
pub struct RecvEvent {
    /// Whether the packet was new (false: duplicate or stale, dropped).
    pub accepted: bool,
    /// Messages completed by this packet, in order.
    pub completed: Vec<Bytes>,
}

/// Receive half of the sliding-window ARQ for one peer: reorders
/// out-of-order packets, drops duplicates, reassembles fragments into
/// messages, reports its state as cumulative-ack + SACK bitmap, and
/// decides when that report is owed.
#[derive(Debug, Default)]
pub struct RecvWindow {
    expected: u64,
    /// Out-of-order packets: seq → (end-of-message, payload view).
    ooo: BTreeMap<u64, (bool, Bytes)>,
    assembling: Vec<u8>,
    /// Packets accepted since the last acknowledgment left.
    owed: u32,
    /// When the owed acknowledgment must leave; `None` while none is.
    ack_at: Option<Instant>,
    /// Arrival of the newest accepted packet: the hold an ack reports is
    /// measured from it, so it never exceeds any covered packet's wait.
    last_arrival: Option<Instant>,
}

impl RecvWindow {
    /// An empty window expecting sequence number 0.
    #[must_use]
    pub fn new() -> RecvWindow {
        RecvWindow::default()
    }

    /// The next sequence number expected in order: everything below it
    /// has been received and will never be asked for again. Monotone
    /// non-decreasing — the cumulative ack never retreats.
    #[must_use]
    pub fn ack_next(&self) -> u64 {
        self.expected
    }

    /// Whether packets are parked beyond a gap.
    #[must_use]
    pub fn has_holes(&self) -> bool {
        !self.ooo.is_empty()
    }

    /// Accepts one packet arriving at `now`, returning whether it was new
    /// and any messages it completed (in order). Owes an acknowledgment:
    /// due at once for a duplicate (our ack may have been lost), for a
    /// packet that opens, sits beyond or fills a hole, and for a second
    /// unacked packet; due after [`ACK_DELAY`] for a lone in-order one.
    pub fn insert(&mut self, seq: u64, eom: bool, payload: Bytes, now: Instant) -> RecvEvent {
        if seq < self.expected || self.ooo.contains_key(&seq) {
            self.owe_ack(now);
            return RecvEvent {
                accepted: false,
                completed: Vec::new(),
            };
        }
        let had_holes = self.has_holes();
        self.ooo.insert(seq, (eom, payload));
        let mut completed = Vec::new();
        while let Some((eom, payload)) = self.ooo.remove(&self.expected) {
            if eom && self.assembling.is_empty() {
                // Single-fragment message: the payload view is the
                // message — deliver without reassembly.
                completed.push(payload);
            } else {
                self.assembling.extend_from_slice(&payload);
                if eom {
                    completed.push(Bytes::from(std::mem::take(&mut self.assembling)));
                }
            }
            self.expected += 1;
        }
        self.owed += 1;
        self.last_arrival = Some(now);
        let urgent = had_holes || self.has_holes() || self.owed >= 2;
        self.owe_ack(if urgent { now } else { now + ACK_DELAY });
        RecvEvent {
            accepted: true,
            completed,
        }
    }

    fn owe_ack(&mut self, due: Instant) {
        self.ack_at = Some(self.ack_at.map_or(due, |t| t.min(due)));
    }

    /// When the owed acknowledgment must be sent, or `None` when nothing
    /// is owed. A deadline at or before now means "send it now".
    #[must_use]
    pub fn ack_deadline(&self) -> Option<Instant> {
        self.ack_at
    }

    /// Records that an acknowledgment of the current state leaves now
    /// (standalone or riding DATA), settling whatever was owed. Returns
    /// the hold to report with it: how long ago the newest accepted
    /// packet arrived.
    pub fn take_ack(&mut self, now: Instant) -> Duration {
        self.owed = 0;
        self.ack_at = None;
        self.last_arrival
            .map_or(Duration::ZERO, |t| now.saturating_duration_since(t))
    }

    /// The window's state as a selective acknowledgment: `ack_next` plus
    /// a bitmap where bit `i` (LSB-first within each byte) reports
    /// sequence `ack_next + 1 + i` as received out of order. Sequence
    /// `ack_next` itself is by definition missing, so it has no bit.
    /// Out-of-order packets beyond the bitmap bound simply go unreported
    /// and are recovered by timeout.
    #[must_use]
    pub fn sack(&self) -> SackInfo {
        let mut bitmap = Vec::new();
        for (&seq, _) in self.ooo.range(self.expected + 1..) {
            let bit = (seq - self.expected - 1) as usize;
            let byte = bit / 8;
            if byte >= MAX_SACK_BITMAP {
                break;
            }
            if bitmap.len() <= byte {
                bitmap.resize(byte + 1, 0u8);
            }
            bitmap[byte] |= 1 << (bit % 8);
        }
        SackInfo {
            ack_next: self.expected,
            bitmap: Bytes::from(bitmap),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtt_estimator_follows_samples_and_backs_off() {
        let mut e = RttEstimator::new(Duration::from_millis(40));
        assert_eq!(e.rto(), Duration::from_millis(40));
        // First sample: srtt = s, rttvar = s/2, rto = s + 4·(s/2) = 3s.
        e.sample(Duration::from_millis(10));
        assert_eq!(e.srtt(), Some(Duration::from_millis(10)));
        assert_eq!(e.rto(), Duration::from_millis(30));
        // Steady samples shrink the variance term toward srtt.
        for _ in 0..50 {
            e.sample(Duration::from_millis(10));
        }
        assert!(e.rto() < Duration::from_millis(15), "rto {:?}", e.rto());
        assert!(e.rto() >= MIN_RTO);
        // Backoff doubles up to the ceiling and a clean sample recovers.
        let before = e.rto();
        e.backoff();
        assert_eq!(e.rto(), before * 2);
        for _ in 0..40 {
            e.backoff();
        }
        assert_eq!(e.rto(), MAX_RTO);
        e.sample(Duration::from_millis(10));
        assert!(e.rto() < Duration::from_millis(20));
    }

    #[test]
    fn rtt_estimator_sheds_backoff_on_ack_progress() {
        // Before any clean sample, reset falls back to the initial RTO.
        let mut e = RttEstimator::new(Duration::from_millis(40));
        for _ in 0..20 {
            e.backoff();
        }
        e.reset_backoff();
        assert_eq!(e.rto(), Duration::from_millis(40));
        // After samples, reset re-derives from the estimate instead of
        // compounding — a fully retransmitted window must not wedge the
        // timer at MAX_RTO (Karn's rule never samples those acks).
        e.sample(Duration::from_millis(10));
        for _ in 0..40 {
            e.backoff();
        }
        assert_eq!(e.rto(), MAX_RTO);
        e.reset_backoff();
        assert_eq!(e.rto(), Duration::from_millis(30));
    }

    #[test]
    fn rtt_estimator_clamps_to_floor() {
        let mut e = RttEstimator::new(Duration::from_nanos(1));
        assert_eq!(e.rto(), MIN_RTO);
        e.sample(Duration::from_micros(3));
        assert_eq!(e.rto(), MIN_RTO);
    }

    #[test]
    fn byte_budget_defers_and_drains() {
        let t0 = Instant::now();
        let mut w: SendWindow<u8> = SendWindow::new(100, 1000, Duration::from_millis(40));
        for i in 0..5u8 {
            w.stage(i, 400, false);
        }
        assert_eq!(w.deferred_len(), 5);
        // Budget admits two 400-byte packets, then defers.
        assert!(w.transmit_next(t0).is_some());
        assert!(w.transmit_next(t0).is_some());
        assert_eq!(w.transmittable_len(), None);
        assert_eq!(w.in_flight_bytes(), 800);
        assert_eq!(w.window_used(), 5);
        // Acking one packet reopens the budget for exactly one more.
        let ev = w.on_cum_ack(0, t0 + Duration::from_millis(1));
        assert_eq!(ev.newly_acked, 1);
        assert!(ev.sample.is_some());
        assert!(w.transmit_next(t0 + Duration::from_millis(1)).is_some());
        assert_eq!(w.transmittable_len(), None);
    }

    #[test]
    fn oversized_packet_admitted_when_window_empty() {
        let t0 = Instant::now();
        let mut w: SendWindow<u8> = SendWindow::new(100, 100, Duration::from_millis(40));
        w.stage(0, 5000, false);
        // Bigger than the whole budget, but the window is empty: admit.
        assert_eq!(w.transmittable_len(), Some(5000));
        assert!(w.transmit_next(t0).is_some());
        // A second oversized packet must wait for the first to clear.
        w.stage(1, 5000, false);
        assert_eq!(w.transmittable_len(), None);
        w.on_cum_ack(0, t0 + Duration::from_millis(1));
        assert_eq!(w.transmittable_len(), Some(5000));
    }

    #[test]
    fn sack_removes_holes_from_rto_and_fast_retransmits() {
        let t0 = Instant::now();
        let mut w: SendWindow<u8> = SendWindow::new(100, 1 << 20, Duration::from_millis(40));
        for i in 0..5u8 {
            w.stage(i, 100, false);
            w.transmit_next(t0).unwrap();
        }
        // Seq 0 arrived, 1 was lost, 2..4 arrived out of order:
        // ack_next=1, sacked=[2,3,4].
        let ev = w.on_sack(1, &[2, 3, 4], Duration::ZERO, t0 + Duration::from_millis(1));
        assert_eq!(ev.newly_acked, 4);
        assert_eq!(w.unacked_len(), 1, "only the hole remains");
        assert!(ev.fast_retransmits.is_empty(), "first report is not enough");
        // Second SACK still reporting the hole triggers fast retransmit.
        let ev = w.on_sack(1, &[2, 3, 4], Duration::ZERO, t0 + Duration::from_millis(2));
        assert_eq!(ev.newly_acked, 0);
        assert_eq!(ev.fast_retransmits.len(), 1);
        assert_eq!(ev.fast_retransmits[0].0, 1);
        // Sacked packets were dropped for good: an RTO scan far in the
        // future retransmits only the hole.
        let retx = w.scan_retransmits(t0 + Duration::from_secs(120));
        assert_eq!(retx.len(), 1);
        assert_eq!(retx[0].0, 1);
    }

    #[test]
    fn karn_rule_skips_retransmitted_samples() {
        let t0 = Instant::now();
        let mut w: SendWindow<u8> = SendWindow::new(100, 1 << 20, Duration::from_millis(10));
        w.stage(0, 100, false);
        w.transmit_next(t0).unwrap();
        let retx = w.scan_retransmits(t0 + Duration::from_millis(20));
        assert_eq!(retx.len(), 1);
        let ev = w.on_cum_ack(0, t0 + Duration::from_millis(25));
        assert_eq!(ev.newly_acked, 1);
        assert!(ev.sample.is_none(), "retransmitted packet must not sample");
    }

    #[test]
    fn recv_window_reorders_and_reassembles() {
        let t0 = Instant::now();
        let mut r = RecvWindow::new();
        // Fragments of one message arrive 1, 0, 2 (eom on 2).
        let e = r.insert(1, false, Bytes::from_static(b"bb"), t0);
        assert!(e.accepted);
        assert!(e.completed.is_empty());
        assert_eq!(r.ack_next(), 0);
        assert!(r.has_holes());
        let e = r.insert(0, false, Bytes::from_static(b"aa"), t0);
        assert!(e.completed.is_empty());
        assert_eq!(r.ack_next(), 2);
        let e = r.insert(2, true, Bytes::from_static(b"cc"), t0);
        assert_eq!(e.completed.len(), 1);
        assert_eq!(&e.completed[0][..], b"aabbcc");
        assert_eq!(r.ack_next(), 3);
        // Duplicates and stale packets are rejected.
        assert!(!r.insert(1, false, Bytes::new(), t0).accepted);
    }

    #[test]
    fn recv_window_sack_bitmap_marks_ooo() {
        let t0 = Instant::now();
        let mut r = RecvWindow::new();
        r.insert(0, true, Bytes::from_static(b"m0"), t0);
        // 1 missing; 2, 4, 10 parked out of order.
        r.insert(2, true, Bytes::new(), t0);
        r.insert(4, true, Bytes::new(), t0);
        r.insert(10, true, Bytes::new(), t0);
        let sack = r.sack();
        assert_eq!(sack.ack_next, 1);
        // Bits are relative to ack_next + 1 = 2: bits 0, 2, 8.
        assert!(sack.is_set(0) && sack.is_set(2) && sack.is_set(8));
        assert!(!sack.is_set(1) && !sack.is_set(3));
        assert_eq!(sack.sacked_seqs(), vec![2, 4, 10]);
        // ack_next never retreats as the hole fills.
        r.insert(1, true, Bytes::new(), t0);
        assert_eq!(r.sack().ack_next, 3);
        assert_eq!(r.sack().sacked_seqs(), vec![4, 10]);
    }

    #[test]
    fn lone_packet_ack_is_held_and_urgent_cases_are_not() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let mut r = RecvWindow::new();
        assert_eq!(r.ack_deadline(), None, "nothing received, nothing owed");
        // A lone in-order packet: owed for ACK_DELAY.
        r.insert(0, true, Bytes::new(), t0);
        assert_eq!(r.ack_deadline(), Some(t0 + ACK_DELAY));
        // Riding reverse DATA settles it and reports the hold.
        assert_eq!(r.take_ack(t0 + ms(1) / 2), ms(1) / 2);
        assert_eq!(r.ack_deadline(), None);
        // The second unacked packet makes the ack due at once.
        r.insert(1, true, Bytes::new(), t0 + ms(2));
        r.insert(2, true, Bytes::new(), t0 + ms(3));
        assert_eq!(r.ack_deadline(), Some(t0 + ms(3)));
        r.take_ack(t0 + ms(3));
        // A duplicate: due at once, the earlier ack may have been lost.
        r.insert(2, true, Bytes::new(), t0 + ms(4));
        assert_eq!(r.ack_deadline(), Some(t0 + ms(4)));
        r.take_ack(t0 + ms(4));
        // Opening a hole and filling it are both due at once.
        r.insert(4, true, Bytes::new(), t0 + ms(5));
        assert_eq!(r.ack_deadline(), Some(t0 + ms(5)));
        r.take_ack(t0 + ms(5));
        r.insert(3, true, Bytes::new(), t0 + ms(6));
        assert_eq!(r.ack_deadline(), Some(t0 + ms(6)));
        // The hold is measured from the newest accepted packet.
        assert_eq!(r.take_ack(t0 + ms(7)), ms(1));
    }

    #[test]
    fn hold_is_taken_off_rtt_samples_never_below_zero() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let mut w: SendWindow<u8> = SendWindow::new(100, 1 << 20, ms(40));
        for i in 0..2u8 {
            w.stage(i, 100, false);
            w.transmit_next(t0).unwrap();
        }
        let ev = w.on_sack(1, &[], ms(3), t0 + ms(4));
        assert_eq!(ev.sample, Some(ms(1)), "4 ms round trip, 3 ms of it held");
        // A hold longer than the round trip clamps the sample at zero,
        // and the timeout stays at its floor.
        let ev = w.on_sack(2, &[], ms(500), t0 + ms(5));
        assert_eq!(ev.sample, Some(Duration::ZERO));
        assert!(w.rtt.rto() >= MIN_RTO);
    }

    #[test]
    fn ack_beyond_anything_transmitted_is_ignored() {
        let t0 = Instant::now();
        let mut w: SendWindow<u8> = SendWindow::new(100, 250, Duration::from_millis(40));
        for i in 0..4u8 {
            w.stage(i, 100, false);
        }
        // The byte budget admits two; seqs 2 and 3 stay staged.
        assert!(w.transmit_next(t0).is_some());
        assert!(w.transmit_next(t0).is_some());
        assert_eq!(w.transmittable_len(), None);
        for (ack_next, sacked) in [(3u64, &[][..]), (u64::MAX, &[][..]), (0, &[2u64][..])] {
            let ev = w.on_sack(ack_next, sacked, Duration::ZERO, t0);
            assert_eq!(
                ev.newly_acked, 0,
                "forged ack {ack_next} {sacked:?} acked packets"
            );
            assert_eq!(w.unacked_len(), 2);
        }
        // The real ack still works.
        assert_eq!(w.on_sack(2, &[], Duration::ZERO, t0).newly_acked, 2);
    }
}
