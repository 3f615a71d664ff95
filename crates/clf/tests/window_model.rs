//! Model-based protocol suite for the sliding-window SACK ARQ.
//!
//! The pure state machines in `dstampede_clf::window` take every
//! timestamp as a parameter, so this suite drives a sender/receiver pair
//! entirely on a **virtual clock** through a **simulated link** — no
//! sockets, no sleeps, thousands of adversarial schedules per second.
//! [`FaultPlan::on_packet`] supplies seeded drop/duplicate decisions and
//! a partition phase; the link itself delivers in seeded random order so
//! reordering is the norm, not the exception.
//!
//! Invariants checked on every schedule:
//!
//! 1. **Exactly-once, in-order delivery**: the receiver completes
//!    precisely the sent message sequence — no loss, no duplication, no
//!    reordering — regardless of what the link did.
//! 2. **The cumulative ack never retreats**: `ack_next` is monotone
//!    non-decreasing across the whole schedule.
//! 3. **Fast retransmissions cover genuine holes only**: every packet a
//!    SACK integration re-sends was, at that moment, at or above the
//!    peer's `ack_next` and absent from its bitmap.
//! 4. **Quiescence**: once the faults stop, the protocol drains — every
//!    message is delivered within a bounded number of steps, and the
//!    sender's window empties (nothing wedges).
//! 5. **Held acks stay bounded**: the receiver owes an ack for at most
//!    [`ACK_DELAY`] after a packet arrives, whether the ack then leaves
//!    standalone or rides (simulated) reverse DATA; and on a clean link
//!    (no loss, duplication or reordering) the sender never
//!    fast-retransmits or times out.

use std::time::{Duration, Instant};

use bytes::Bytes;
use dstampede_clf::window::{RecvWindow, SendWindow, ACK_DELAY};
use dstampede_clf::{FaultPlan, FaultVerdict};
use dstampede_core::AsId;
use proptest::prelude::*;

/// The model's packet representation: enough for the receiver to
/// reconstruct the byte stream.
#[derive(Debug, Clone)]
struct Pkt {
    eom: bool,
    payload: Bytes,
}

/// A packet in flight on the simulated link.
#[derive(Debug)]
enum Frame {
    Data {
        seq: u64,
        pkt: Pkt,
    },
    Sack {
        ack_next: u64,
        sacked: Vec<u64>,
        hold: Duration,
    },
    CumAck {
        cum: u64,
    },
}

/// Deterministic generator for link-order decisions (the FaultPlan has
/// its own, for drop/dup decisions).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    /// Pops a pseudo-randomly chosen element — the link delivers in
    /// arbitrary order — or, on a `fifo` link, the oldest.
    fn pop<T>(&mut self, v: &mut Vec<T>, fifo: bool) -> Option<T> {
        if v.is_empty() {
            return None;
        }
        if fifo {
            return Some(v.remove(0));
        }
        let i = (self.next() as usize) % v.len();
        Some(v.swap_remove(i))
    }
}

#[derive(Debug, Clone)]
struct Scenario {
    seed: u64,
    /// Message payload lengths (0 = empty message).
    msg_lens: Vec<usize>,
    frag: usize,
    max_packets: usize,
    max_bytes: usize,
    drop_permille: u32,
    dup_every: u32,
    /// Whether the receiver answers with SACKs (fast path) or legacy
    /// cumulative ACKs (downgrade path).
    sack_mode: bool,
    /// Steps into the schedule at which a full partition begins, and how
    /// long it lasts. Zero length disables it.
    partition_at: usize,
    partition_len: usize,
    /// Virtual time per step, so a held ack spans zero, one or several
    /// steps.
    step_us: u64,
    /// Per-mille chance per step that the receiver sends reverse DATA,
    /// which carries its cumulative ack (when it has no holes).
    piggyback_permille: u64,
    /// Whether the link keeps order (otherwise it reorders freely).
    fifo: bool,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        (
            any::<u64>(),
            proptest::collection::vec(0usize..600, 1..16),
            32usize..256,
            4usize..32,
            256usize..4096,
        ),
        (
            0u32..300,
            prop_oneof![Just(0u32), 2u32..6],
            any::<bool>(),
            0usize..400,
            prop_oneof![Just(0usize), 10usize..120],
        ),
        (100u64..2500, 0u64..1000, any::<bool>()),
    )
        .prop_map(
            |(
                (seed, msg_lens, frag, max_packets, max_bytes),
                (drop_permille, dup_every, sack_mode, partition_at, partition_len),
                (step_us, piggyback_permille, fifo),
            )| Scenario {
                seed,
                msg_lens,
                frag,
                max_packets,
                max_bytes,
                drop_permille,
                dup_every,
                sack_mode,
                partition_at,
                partition_len,
                step_us,
                piggyback_permille,
                fifo,
            },
        )
}

const SRC: AsId = AsId(0);
const DST: AsId = AsId(1);

/// Applies the fault plan to a frame headed onto a link.
fn offer(plan: &FaultPlan, link: &mut Vec<Frame>, frame: Frame, dup_payload: impl Fn() -> Frame) {
    match plan.on_packet(SRC, DST) {
        FaultVerdict::Dropped => {}
        FaultVerdict::Deliver { duplicate } => {
            if duplicate {
                link.push(dup_payload());
            }
            link.push(frame);
        }
    }
}

/// Runs one adversarial schedule to quiescence, checking every invariant
/// along the way. Panics (failing the property) on any violation.
fn run(s: &Scenario) {
    let t0 = Instant::now();
    let mut elapsed = Duration::ZERO;
    let now = |elapsed: Duration| t0 + elapsed;

    let messages: Vec<Vec<u8>> = s
        .msg_lens
        .iter()
        .enumerate()
        .map(|(i, &len)| (0..len).map(|j| ((i * 131 + j) % 251) as u8).collect())
        .collect();

    let mut send = SendWindow::<Pkt>::new(s.max_packets, s.max_bytes, Duration::from_millis(20));
    let mut recv = RecvWindow::new();
    let plan = FaultPlan::new(s.seed);
    if s.drop_permille > 0 {
        plan.drop_permille(s.drop_permille);
    }
    if s.dup_every > 0 {
        plan.duplicate_every_nth(s.dup_every);
    }

    let mut rng = Lcg(s.seed ^ 0xD1CE_F00D);
    let mut to_stage: Vec<Pkt> = Vec::new();
    for msg in &messages {
        let n_frags = msg.len().div_ceil(s.frag).max(1);
        for f in 0..n_frags {
            let lo = f * s.frag;
            let hi = msg.len().min(lo + s.frag);
            to_stage.push(Pkt {
                eom: f + 1 == n_frags,
                payload: Bytes::from(msg[lo..hi].to_vec()),
            });
        }
    }
    let mut stage_idx = 0usize;

    let mut data_link: Vec<Frame> = Vec::new();
    let mut ack_link: Vec<Frame> = Vec::new();
    let mut delivered: Vec<Bytes> = Vec::new();
    let mut last_ack_next = 0u64;
    let mut partitioned = false;
    let clean = s.drop_permille == 0 && s.dup_every == 0 && s.partition_len == 0 && s.fifo;
    let step = Duration::from_micros(s.step_us);

    let mut steps = 0usize;
    let max_steps = 200_000usize;
    while delivered.len() < messages.len() || !send.is_idle() {
        steps += 1;
        assert!(
            steps <= max_steps,
            "schedule did not quiesce: {}/{} messages, window idle={}, \
             unacked={}, deferred={}, links={}+{} ({s:?})",
            delivered.len(),
            messages.len(),
            send.is_idle(),
            send.unacked_len(),
            send.deferred_len(),
            data_link.len(),
            ack_link.len()
        );
        elapsed += step;

        // Partition window: everything on the wire in either direction
        // is lost while it lasts; the protocol must pick up after heal.
        if s.partition_len > 0 && steps == s.partition_at {
            plan.partition(SRC, DST);
            partitioned = true;
        }
        if partitioned && steps >= s.partition_at + s.partition_len {
            plan.heal_all();
            partitioned = false;
        }
        // Stop injecting loss near the step bound so quiescence is
        // reachable: a real network's faults are transient too.
        if steps == max_steps / 2 {
            plan.heal_all();
            partitioned = false;
            plan.drop_permille(0);
            plan.duplicate_every_nth(0);
        }

        // 1. Sender: stage what the window accepts, transmit what the
        //    byte budget admits.
        while stage_idx < to_stage.len() && send.can_accept(1) {
            let pkt = to_stage[stage_idx].clone();
            let wire = pkt.payload.len() + 14;
            send.stage(pkt, wire, false);
            stage_idx += 1;
        }
        while let Some(t) = send.transmit_next(now(elapsed)) {
            let (seq, pkt) = (t.seq, t.pkt);
            let dup = pkt.clone();
            offer(&plan, &mut data_link, Frame::Data { seq, pkt }, move || {
                Frame::Data {
                    seq,
                    pkt: dup.clone(),
                }
            });
        }

        // 2. Link → receiver, in seeded random order; acknowledge like
        //    the real pump: legacy receivers once per burst, SACK
        //    receivers when the window says the ack is due, or earlier
        //    on reverse DATA.
        let burst = 1 + (rng.next() as usize) % 4;
        let mut got_data = false;
        for _ in 0..burst {
            let Some(frame) = rng.pop(&mut data_link, s.fifo) else {
                break;
            };
            let Frame::Data { seq, pkt } = frame else {
                unreachable!("data link carries DATA only")
            };
            let ev = recv.insert(seq, pkt.eom, pkt.payload, now(elapsed));
            if let Some(due) = recv.ack_deadline() {
                assert!(
                    due <= now(elapsed) + ACK_DELAY,
                    "ack held past ACK_DELAY ({s:?})"
                );
            }
            got_data = true;
            for msg in ev.completed {
                assert!(
                    delivered.len() < messages.len(),
                    "delivered more messages than were sent ({s:?})"
                );
                assert_eq!(
                    &msg[..],
                    &messages[delivered.len()][..],
                    "message {} corrupted, duplicated, or out of order ({s:?})",
                    delivered.len()
                );
                delivered.push(msg);
            }
            assert!(
                recv.ack_next() >= last_ack_next,
                "cumulative ack retreated: {} -> {} ({s:?})",
                last_ack_next,
                recv.ack_next()
            );
            last_ack_next = recv.ack_next();
        }
        if s.sack_mode {
            let piggyback = !recv.has_holes()
                && recv.ack_next() > 0
                && rng.next() % 1000 < s.piggyback_permille;
            let due = recv.ack_deadline().is_some_and(|d| d <= now(elapsed));
            if piggyback || due {
                // A piggybacked ack is the cumulative part alone.
                let info = recv.sack();
                let sacked = if piggyback {
                    Vec::new()
                } else {
                    info.sacked_seqs()
                };
                let hold = recv.take_ack(now(elapsed));
                let frame = || Frame::Sack {
                    ack_next: info.ack_next,
                    sacked: sacked.clone(),
                    hold,
                };
                offer(&plan, &mut ack_link, frame(), frame);
            }
        } else if got_data && recv.ack_next() > 0 {
            recv.take_ack(now(elapsed));
            let cum = recv.ack_next() - 1;
            offer(&plan, &mut ack_link, Frame::CumAck { cum }, || {
                Frame::CumAck { cum }
            });
        }

        // 3. Link → sender: integrate acknowledgments; fast
        //    retransmissions must cover genuine holes only.
        while let Some(frame) = rng.pop(&mut ack_link, s.fifo) {
            match frame {
                Frame::Sack {
                    ack_next,
                    sacked,
                    hold,
                } => {
                    let ev = send.on_sack(ack_next, &sacked, hold, now(elapsed));
                    assert!(
                        !clean || ev.fast_retransmits.is_empty(),
                        "clean link fast-retransmitted ({s:?})"
                    );
                    for (seq, pkt) in ev.fast_retransmits {
                        assert!(
                            seq >= ack_next && !sacked.contains(&seq),
                            "fast retransmit of {seq} is not a hole of \
                             (ack_next={ack_next}, sacked={sacked:?}) ({s:?})"
                        );
                        let dup = pkt.clone();
                        offer(&plan, &mut data_link, Frame::Data { seq, pkt }, move || {
                            Frame::Data {
                                seq,
                                pkt: dup.clone(),
                            }
                        });
                    }
                }
                Frame::CumAck { cum } => {
                    send.on_cum_ack(cum, now(elapsed));
                }
                Frame::Data { .. } => unreachable!("ack link carries acks only"),
            }
        }

        // 4. When the schedule is stuck (nothing in flight, sender not
        //    idle), jump the clock to the next timer — the receiver's
        //    held ack, else the sender's timeout — exactly what real
        //    time would do, without waiting for it.
        if data_link.is_empty() && ack_link.is_empty() && !send.is_idle() {
            if let Some(due) = recv.ack_deadline() {
                elapsed = elapsed.max(due - t0);
                continue;
            }
            if send.unacked_len() > 0 {
                elapsed += send.rtt.rto();
            }
            let retransmits = send.scan_retransmits(now(elapsed));
            assert!(
                !clean || retransmits.is_empty(),
                "clean link timed out ({s:?})"
            );
            for (seq, pkt) in retransmits {
                let dup = pkt.clone();
                offer(&plan, &mut data_link, Frame::Data { seq, pkt }, move || {
                    Frame::Data {
                        seq,
                        pkt: dup.clone(),
                    }
                });
            }
        }
    }

    assert_eq!(delivered.len(), messages.len());
    assert_eq!(send.in_flight_bytes(), 0, "drained window holds bytes");
    assert!(
        !recv.has_holes(),
        "receiver parked packets after quiescence"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32 })]

    /// The protocol delivers exactly once, in order, and quiesces under
    /// arbitrary seeded loss, duplication, reordering, and a partition.
    #[test]
    fn window_protocol_survives_adversarial_schedules(s in scenario()) {
        run(&s);
    }
}

/// A deterministic worst-case mix kept outside proptest so it always
/// runs even with `PROPTEST_CASES=0`: heavy loss and duplication plus a
/// long partition, in both acknowledgment modes.
#[test]
fn heavy_loss_partition_both_modes() {
    for sack_mode in [true, false] {
        run(&Scenario {
            seed: 0xBADC_0FFE,
            msg_lens: vec![0, 1, 513, 64, 300, 599, 2, 450],
            frag: 64,
            max_packets: 8,
            max_bytes: 512,
            drop_permille: 250,
            dup_every: 3,
            sack_mode,
            partition_at: 50,
            partition_len: 100,
            step_us: 1000,
            piggyback_permille: 300,
            fifo: false,
        });
    }
}

/// A clean link is the degenerate schedule: everything delivers in one
/// pass, and acks held up to `ACK_DELAY` — at step sizes below, at and
/// above it, with and without reverse DATA, for a full window and for
/// stop-and-wait (every packet's ack held) — never make the sender
/// fast-retransmit or time out.
#[test]
fn clean_link_delivers_first_pass() {
    for step_us in [100, 1000, 2500] {
        for piggyback_permille in [0, 500] {
            for max_packets in [1, 32] {
                run(&Scenario {
                    seed: 1,
                    msg_lens: vec![100, 0, 599, 32, 1, 1, 1],
                    frag: 128,
                    max_packets,
                    max_bytes: 4096,
                    drop_permille: 0,
                    dup_every: 0,
                    sack_mode: true,
                    partition_at: 0,
                    partition_len: 0,
                    step_us,
                    piggyback_permille,
                    fifo: true,
                });
            }
        }
    }
}
