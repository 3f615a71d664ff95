//! Packet-level tests of the reliable-UDP CLF protocol: out-of-order
//! arrival, duplication, and interleaved fragments, injected from a raw
//! socket speaking the wire format directly; hostile acknowledgment
//! trailers; and the acknowledgment economy of piggybacked and held
//! acks between two real endpoints.

use std::net::UdpSocket;
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use bytes::Bytes;
use dstampede_clf::window::{ACK_DELAY, MIN_RTO};
use dstampede_clf::{udp_mesh, ClfError, ClfHandler, ClfTransport, UdpConfig, UdpEndpoint};
use dstampede_core::AsId;
use dstampede_obs::MetricsRegistry;

const MAGIC: u16 = 0xC1F0;
const KIND_DATA: u8 = 0;
const KIND_SACK: u8 = 2;
const FLAG_EOM: u8 = 1;
const FLAG_SACK: u8 = 2;
const FLAG_ACK: u8 = 4;
const FLAG_HOLD: u8 = 1;

fn data_packet(src: AsId, seq: u64, eom: bool, payload: &[u8]) -> Vec<u8> {
    let mut pkt = Vec::new();
    pkt.extend_from_slice(&MAGIC.to_be_bytes());
    pkt.push(KIND_DATA);
    pkt.push(if eom { FLAG_EOM } else { 0 });
    pkt.extend_from_slice(&src.0.to_be_bytes());
    pkt.extend_from_slice(&seq.to_be_bytes());
    pkt.extend_from_slice(payload);
    pkt
}

fn recv_msg(ep: &UdpEndpoint) -> (AsId, Bytes) {
    ep.recv_timeout(Duration::from_secs(5)).expect("delivery")
}

#[test]
fn out_of_order_packets_are_reordered() {
    let ep = UdpEndpoint::bind(AsId(7), UdpConfig::default()).unwrap();
    let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
    let dst = ep.local_addr();

    // Three single-packet messages sent in the order 2, 0, 1.
    let src = AsId(3);
    raw.send_to(&data_packet(src, 2, true, b"third"), dst)
        .unwrap();
    raw.send_to(&data_packet(src, 0, true, b"first"), dst)
        .unwrap();
    raw.send_to(&data_packet(src, 1, true, b"second"), dst)
        .unwrap();

    assert_eq!(&recv_msg(&ep).1[..], b"first");
    assert_eq!(&recv_msg(&ep).1[..], b"second");
    assert_eq!(&recv_msg(&ep).1[..], b"third");
    ep.shutdown();
}

#[test]
fn duplicates_are_dropped() {
    let ep = UdpEndpoint::bind(AsId(7), UdpConfig::default()).unwrap();
    let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
    let dst = ep.local_addr();
    let src = AsId(4);

    let pkt = data_packet(src, 0, true, b"once");
    for _ in 0..5 {
        raw.send_to(&pkt, dst).unwrap();
    }
    raw.send_to(&data_packet(src, 1, true, b"twice"), dst)
        .unwrap();

    assert_eq!(&recv_msg(&ep).1[..], b"once");
    assert_eq!(&recv_msg(&ep).1[..], b"twice");
    // Nothing further: the duplicates were discarded, and the counter
    // recorded them.
    assert_eq!(
        ep.recv_timeout(Duration::from_millis(50)).unwrap_err(),
        ClfError::Timeout
    );
    assert!(ep.stats().duplicates_dropped >= 4);
    ep.shutdown();
}

#[test]
fn fragments_reassemble_even_when_scrambled() {
    let ep = UdpEndpoint::bind(AsId(7), UdpConfig::default()).unwrap();
    let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
    let dst = ep.local_addr();
    let src = AsId(5);

    // One message in three fragments (seq 0,1,2; EOM on the last),
    // delivered 2, 0, 1.
    raw.send_to(&data_packet(src, 2, true, b"C"), dst).unwrap();
    raw.send_to(&data_packet(src, 0, false, b"A"), dst).unwrap();
    raw.send_to(&data_packet(src, 1, false, b"B"), dst).unwrap();

    assert_eq!(&recv_msg(&ep).1[..], b"ABC");
    ep.shutdown();
}

#[test]
fn interleaved_senders_keep_their_own_sequences() {
    let ep = UdpEndpoint::bind(AsId(7), UdpConfig::default()).unwrap();
    let raw_a = UdpSocket::bind("127.0.0.1:0").unwrap();
    let raw_b = UdpSocket::bind("127.0.0.1:0").unwrap();
    let dst = ep.local_addr();

    // Two peers interleave; each peer's stream must stay ordered
    // independently.
    raw_a
        .send_to(&data_packet(AsId(1), 0, true, b"a0"), dst)
        .unwrap();
    raw_b
        .send_to(&data_packet(AsId(2), 0, true, b"b0"), dst)
        .unwrap();
    raw_a
        .send_to(&data_packet(AsId(1), 1, true, b"a1"), dst)
        .unwrap();
    raw_b
        .send_to(&data_packet(AsId(2), 1, true, b"b1"), dst)
        .unwrap();

    let mut per_peer: std::collections::HashMap<AsId, Vec<Vec<u8>>> = Default::default();
    for _ in 0..4 {
        let (from, msg) = recv_msg(&ep);
        per_peer.entry(from).or_default().push(msg.to_vec());
    }
    assert_eq!(per_peer[&AsId(1)], vec![b"a0".to_vec(), b"a1".to_vec()]);
    assert_eq!(per_peer[&AsId(2)], vec![b"b0".to_vec(), b"b1".to_vec()]);
    ep.shutdown();
}

#[test]
fn stale_retransmission_after_delivery_is_ignored() {
    let ep = UdpEndpoint::bind(AsId(7), UdpConfig::default()).unwrap();
    let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
    let dst = ep.local_addr();
    let src = AsId(6);

    raw.send_to(&data_packet(src, 0, true, b"live"), dst)
        .unwrap();
    assert_eq!(&recv_msg(&ep).1[..], b"live");
    // A late retransmission of an already-delivered packet must not
    // produce a second message.
    raw.send_to(&data_packet(src, 0, true, b"live"), dst)
        .unwrap();
    assert_eq!(
        ep.recv_timeout(Duration::from_millis(50)).unwrap_err(),
        ClfError::Timeout
    );
    ep.shutdown();
}

/// The full PR 5 transmit pipeline under PR 2 fault injection: frames
/// coalesce into shared datagrams, the adaptive RTO recovers injected
/// losses, and a fault plan adding propagation delay plus duplicated
/// sends still yields every message with first occurrences in order.
#[test]
fn coalesced_adaptive_pipeline_survives_faults() {
    use std::sync::Arc;

    use dstampede_clf::{udp_mesh, FaultPlan, FaultTransport, LossInjection};

    let config = UdpConfig {
        coalesce_delay: Duration::from_millis(2),
        rto: Duration::from_millis(25),
        loss: LossInjection::DropEveryNth(5),
        ..UdpConfig::default()
    };
    let mut mesh = udp_mesh(2, config).unwrap();
    let b = mesh.pop().unwrap();
    let a = mesh.pop().unwrap();

    let plan = FaultPlan::new(0xD57A);
    plan.delay(Duration::from_millis(1));
    plan.duplicate_every_nth(4);
    let sender = FaultTransport::wrap(a.clone() as Arc<dyn ClfTransport>, plan);

    const N: usize = 30;
    for i in 0..N {
        // Mixed sizes: small frames coalesce, the large ones fragment.
        let len = if i % 3 == 0 { 2048 } else { 24 };
        let mut msg = vec![(i % 251) as u8; len];
        msg[0] = i as u8;
        sender.send(AsId(1), Bytes::from(msg)).unwrap();
    }

    // Duplicated sends arrive as genuinely repeated messages (they get
    // fresh sequence numbers), so collect everything the receiver sees
    // and check the deduplicated first-occurrence order.
    let mut seen = Vec::new();
    while seen.len() < N {
        let (from, msg) = b.recv_timeout(Duration::from_secs(10)).expect("delivery");
        assert_eq!(from, AsId(0));
        if !seen.contains(&msg[0]) {
            seen.push(msg[0]);
        }
    }
    assert_eq!(seen, (0..N as u8).collect::<Vec<_>>());

    let stats = a.stats();
    assert!(
        stats.retransmits > 0,
        "loss injection should force the adaptive RTO to retransmit"
    );
    a.shutdown();
    b.shutdown();
}

/// A SACK-capable DATA packet carrying `trailer` after the header, with
/// the piggybacked-ack flag set.
fn acked_data(src: AsId, seq: u64, trailer: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut pkt = data_packet(src, seq, true, &[]);
    pkt[3] |= FLAG_SACK | FLAG_ACK;
    pkt.extend_from_slice(trailer);
    pkt.extend_from_slice(payload);
    pkt
}

/// A well-formed ack trailer: `[u64 ack_next][u32 hold µs]`.
fn trailer(ack_next: u64, hold_us: u32) -> Vec<u8> {
    let mut t = ack_next.to_be_bytes().to_vec();
    t.extend_from_slice(&hold_us.to_be_bytes());
    t
}

/// Waits until `ep` holds no unacknowledged packet for `peer`; returns
/// how long that took, or `None` past `limit`.
fn idle_within(ep: &UdpEndpoint, peer: AsId, limit: Duration) -> Option<Duration> {
    let t0 = Instant::now();
    while t0.elapsed() < limit {
        if ep.unacked_packets(peer) == 0 {
            return Some(t0.elapsed());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    None
}

/// A raw socket posing as SACK-capable peer `AsId(3)` of a fresh
/// endpoint `AsId(7)` that has already sent it `n` messages.
fn raw_peer_with_unacked(n: u8) -> (Arc<UdpEndpoint>, UdpSocket) {
    let ep = UdpEndpoint::bind(
        AsId(7),
        UdpConfig {
            rto: Duration::from_secs(30),
            ..UdpConfig::default()
        },
    )
    .unwrap();
    let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
    ep.add_peer(AsId(3), raw.local_addr().unwrap());
    for i in 0..n {
        ep.send(AsId(3), Bytes::from(vec![i; 8])).unwrap();
    }
    assert_eq!(ep.unacked_packets(AsId(3)), usize::from(n));
    (ep, raw)
}

#[test]
fn truncated_or_garbage_ack_trailers_are_dropped() {
    let (ep, raw) = raw_peer_with_unacked(1);
    let dst = ep.local_addr();
    let src = AsId(3);
    // The ack flag with too few bytes for the trailer: dropped whole.
    for cut in [0, 5, 11] {
        let mut pkt = data_packet(src, 0, true, &[0xEE; 11][..cut]);
        pkt[3] |= FLAG_SACK | FLAG_ACK;
        raw.send_to(&pkt, dst).unwrap();
    }
    // A SACK announcing a hold it does not carry, and one whose body is
    // garbage: dropped.
    let mut sack = data_packet(src, 0, false, &[1, 2]);
    sack[2] = KIND_SACK;
    sack[3] = FLAG_HOLD;
    raw.send_to(&sack, dst).unwrap();
    let mut sack = data_packet(src, 0, false, &[0xFF; 40]);
    sack[2] = KIND_SACK;
    sack[3] = FLAG_HOLD;
    raw.send_to(&sack, dst).unwrap();
    assert_eq!(
        ep.recv_timeout(Duration::from_millis(50)).unwrap_err(),
        ClfError::Timeout,
        "a truncated trailer must not deliver anything"
    );
    // A garbage trailer of the right length: its ack names nothing ever
    // sent and is ignored; the payload after it is delivered intact.
    raw.send_to(&acked_data(src, 0, &[0xFF; 12], b"intact"), dst)
        .unwrap();
    assert_eq!(&recv_msg(&ep).1[..], b"intact");
    assert_eq!(ep.unacked_packets(src), 1, "garbage ack released a packet");
    // The endpoint is unharmed: a real ack releases the packet.
    raw.send_to(&acked_data(src, 1, &trailer(1, 0), b"next"), dst)
        .unwrap();
    assert_eq!(&recv_msg(&ep).1[..], b"next");
    assert!(idle_within(&ep, src, Duration::from_secs(2)).is_some());
    ep.shutdown();
}

#[test]
fn ack_for_a_sequence_never_sent_is_ignored() {
    let (ep, raw) = raw_peer_with_unacked(2);
    let dst = ep.local_addr();
    let src = AsId(3);
    raw.send_to(&acked_data(src, 0, &trailer(1000, 0), b"forged"), dst)
        .unwrap();
    assert_eq!(&recv_msg(&ep).1[..], b"forged");
    assert_eq!(
        ep.unacked_packets(src),
        2,
        "an ack beyond seq 1 must be ignored"
    );
    raw.send_to(&acked_data(src, 1, &trailer(2, 0), b"real"), dst)
        .unwrap();
    assert_eq!(&recv_msg(&ep).1[..], b"real");
    assert!(idle_within(&ep, src, Duration::from_secs(2)).is_some());
    ep.shutdown();
}

#[test]
fn hold_longer_than_the_round_trip_keeps_the_rto_floor() {
    let ep = UdpEndpoint::bind(AsId(7), UdpConfig::default()).unwrap();
    let reg = MetricsRegistry::new("test");
    ep.bind_metrics(&reg);
    let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let src = AsId(3);
    ep.add_peer(src, raw.local_addr().unwrap());
    ep.send(src, Bytes::from_static(b"m0")).unwrap();
    let mut buf = [0u8; 2048];
    raw.recv_from(&mut buf).expect("m0");
    // Ack it claiming a hold of ~71 minutes.
    raw.send_to(
        &acked_data(src, 0, &trailer(1, u32::MAX), b"ack"),
        ep.local_addr(),
    )
    .unwrap();
    assert_eq!(&recv_msg(&ep).1[..], b"ack");
    assert!(idle_within(&ep, src, Duration::from_secs(2)).is_some());
    let snap = reg.snapshot();
    let rtt = snap.histogram("clf", "rtt_us").expect("rtt series");
    assert_eq!((rtt.count, rtt.sum), (1, 0), "the sample clamps at zero");
    // The timeout derived from that sample stays at its floor: an
    // unanswered packet is not retransmitted sooner than MIN_RTO.
    ep.send(src, Bytes::from_static(b"m1")).unwrap();
    let sent = Instant::now();
    let mut copies = 0;
    while copies < 2 {
        let (n, _) = raw.recv_from(&mut buf).expect("retransmission");
        if n > 14 && buf[2] == KIND_DATA {
            copies += 1;
        }
    }
    assert!(
        sent.elapsed() >= MIN_RTO,
        "retransmitted after {:?}, under MIN_RTO",
        sent.elapsed()
    );
    ep.shutdown();
}

/// Serializes the tests that time acks, so they do not share the CPU
/// with each other.
static TIMING: Mutex<()> = Mutex::new(());

fn timing() -> std::sync::MutexGuard<'static, ()> {
    TIMING
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Answers every message inline, from the receive thread, until
/// `limit` replies have gone out.
struct Echo {
    ep: Mutex<Weak<UdpEndpoint>>,
    replies: Mutex<u32>,
    limit: u32,
}

impl ClfHandler for Echo {
    fn on_message(&self, from: AsId, msg: Bytes) {
        let mut n = self.replies.lock().unwrap();
        if *n < self.limit {
            *n += 1;
            if let Some(ep) = self.ep.lock().unwrap().upgrade() {
                ep.send(from, msg).unwrap();
            }
        }
    }
}

fn echo(ep: &Arc<UdpEndpoint>, limit: u32) -> Arc<Echo> {
    let h = Arc::new(Echo {
        ep: Mutex::new(Arc::downgrade(ep)),
        replies: Mutex::new(0),
        limit,
    });
    ep.set_handler(h.clone());
    h
}

fn registries(a: &UdpEndpoint, b: &UdpEndpoint) -> (MetricsRegistry, MetricsRegistry) {
    let (ra, rb) = (MetricsRegistry::new("a"), MetricsRegistry::new("b"));
    a.bind_metrics(&ra);
    b.bind_metrics(&rb);
    (ra, rb)
}

fn counter(reg: &MetricsRegistry, name: &str) -> u64 {
    reg.snapshot().counter_value("clf", name).unwrap_or(0)
}

#[test]
fn ping_pong_acks_ride_the_replies() {
    let _serial = timing();
    let mut mesh = udp_mesh(2, UdpConfig::default()).unwrap();
    let b = mesh.pop().unwrap();
    let a = mesh.pop().unwrap();
    let (ra, rb) = registries(&a, &b);
    // Both sides answer inline: 200 round trips, each message's ack
    // riding the message that answers it.
    const N: u32 = 200;
    let _b_echo = echo(&b, N);
    let a_echo = echo(&a, N - 1);
    a.send(AsId(1), Bytes::from_static(b"ping")).unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    while *a_echo.replies.lock().unwrap() < N - 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(*a_echo.replies.lock().unwrap(), N - 1, "ping-pong stalled");
    for (ep, peer) in [(&a, AsId(1)), (&b, AsId(0))] {
        assert!(
            idle_within(ep, peer, Duration::from_secs(2)).is_some(),
            "{:?} never went idle",
            ep.local()
        );
    }
    for (side, reg) in [("a", &ra), ("b", &rb)] {
        let standalone = counter(reg, "sack_frames_sent");
        let piggybacked = counter(reg, "acks_piggybacked");
        assert!(
            standalone <= 20,
            "{side}: {standalone} standalone SACKs for {N} messages"
        );
        assert!(
            piggybacked >= u64::from(N) - 20,
            "{side}: {piggybacked} piggybacked"
        );
    }
    a.shutdown();
    b.shutdown();
}

#[test]
fn lone_message_is_acked_within_ack_delay() {
    let _serial = timing();
    let config = UdpConfig {
        rto: Duration::from_millis(300),
        ..UdpConfig::default()
    };
    let mut mesh = udp_mesh(2, config).unwrap();
    let b = mesh.pop().unwrap();
    let a = mesh.pop().unwrap();
    let (_ra, rb) = registries(&a, &b);
    let slack = Duration::from_millis(50);
    for i in 0..5u8 {
        a.send(AsId(1), Bytes::from(vec![i; 16])).unwrap();
        let took = idle_within(&a, AsId(1), Duration::from_secs(2)).expect("never acked");
        assert!(
            took <= ACK_DELAY + slack,
            "lone message acked after {took:?}"
        );
        assert_eq!(recv_msg(&b).1[0], i);
    }
    assert_eq!(
        counter(&rb, "sack_frames_sent"),
        5,
        "one standalone ack each"
    );
    assert_eq!(a.stats().retransmits, 0);
    a.shutdown();
    b.shutdown();
}

#[test]
fn held_acks_do_not_inflate_the_rtt_estimate() {
    let _serial = timing();
    let mut mesh = udp_mesh(2, UdpConfig::default()).unwrap();
    let b = mesh.pop().unwrap();
    let a = mesh.pop().unwrap();
    let (ra, _rb) = registries(&a, &b);
    // Stop and wait, no replies: every ack is held its full ACK_DELAY.
    for i in 0..30u8 {
        a.send(AsId(1), Bytes::from(vec![i; 16])).unwrap();
        assert!(idle_within(&a, AsId(1), Duration::from_secs(2)).is_some());
        recv_msg(&b);
    }
    // Uncorrected, every sample would exceed ACK_DELAY. The median is
    // robust to a scheduling outlier; the smoothed estimate less so.
    let snap = ra.snapshot();
    let p50 = snap
        .histogram("clf", "rtt_us")
        .expect("rtt series")
        .quantile(0.5);
    let srtt_us = reg_gauge(&ra, "srtt_us");
    assert!(
        Duration::from_micros(p50) < ACK_DELAY / 2 && Duration::from_micros(srtt_us) < ACK_DELAY,
        "rtt p50 {p50} µs, srtt {srtt_us} µs count the held {ACK_DELAY:?}"
    );
    a.shutdown();
    b.shutdown();
}

fn reg_gauge(reg: &MetricsRegistry, name: &str) -> u64 {
    let v = reg.snapshot().gauge_value("clf", name).expect("gauge");
    u64::try_from(v).expect("non-negative gauge")
}
