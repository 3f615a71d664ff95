//! Per-layer replays: the workload's own seeded inputs pushed through
//! one layer's public API at a time, outside the daemon.
//!
//! These run after the daemon has stopped, so their threads (CLF pump
//! threads, an echo server, an in-process cluster) never compete with
//! the measured phases.

use std::net::UdpSocket;
use std::time::{Duration, Instant};

use bytes::Bytes;
use dstampede_clf::{udp_mesh, ClfError, ClfTransport, UdpConfig};
use dstampede_core::{
    AsId, Channel, ChannelAttrs, GetSpec, Interest, Item, Queue, QueueAttrs, Timestamp,
};
use dstampede_runtime::{Cluster, ClusterTransport};
use dstampede_wire::{
    codec_for, read_frame, write_frame, BatchGot, BatchPutItem, CodecId, Reply, ReplyFrame,
    Request, RequestFrame, WaitSpec,
};

use crate::gen::{self, Kind, Workload};

/// Runs `op` until `span` has passed (and at least `min` times),
/// returning each call's duration in ns.
fn sample(span: Duration, min: usize, mut op: impl FnMut(usize)) -> Vec<f64> {
    let mut out = Vec::new();
    let end = Instant::now() + span;
    while out.len() < min || Instant::now() < end {
        let t = Instant::now();
        op(out.len());
        out.push(t.elapsed().as_nanos() as f64);
    }
    out
}

fn p50(mut v: Vec<f64>) -> f64 {
    gen::median(&mut v)
}

/// The frames one item's trip puts through a codec: write request and
/// reply, read request and reply, consume request and reply. A queue
/// arrival moves `batch` items in one write and one read frame.
fn item_frames(w: &Workload, seed: u64) -> (Vec<RequestFrame>, Vec<ReplyFrame>) {
    let items: Vec<(Timestamp, Bytes)> = (0..w.batch as u64)
        .map(|i| {
            let ts = Timestamp::new(i as i64);
            (ts, Bytes::from(gen::payload(seed, i, w.item_len)))
        })
        .collect();
    let ok = |seq| ReplyFrame::new(seq, Vec::new(), Reply::Ok);
    let wait = WaitSpec::TimeoutMs(5_000);
    match w.kind {
        Kind::Channel => {
            let (ts, payload) = items[0].clone();
            (
                vec![
                    RequestFrame::new(
                        1,
                        Request::ChannelPut {
                            conn: 1,
                            ts,
                            tag: 0,
                            payload: payload.clone(),
                            wait,
                        },
                    ),
                    RequestFrame::new(
                        2,
                        Request::ChannelGet {
                            conn: 2,
                            spec: GetSpec::After(Timestamp::new(ts.value() - 1)),
                            wait,
                        },
                    ),
                    RequestFrame::new(3, Request::ChannelConsume { conn: 2, upto: ts }),
                ],
                vec![
                    ok(1),
                    ReplyFrame::new(
                        2,
                        Vec::new(),
                        Reply::Item {
                            ts,
                            tag: 0,
                            payload,
                        },
                    ),
                    ok(3),
                ],
            )
        }
        Kind::Queue => {
            let mut reqs = vec![
                RequestFrame::new(
                    1,
                    Request::PutBatch {
                        conn: 1,
                        items: items
                            .iter()
                            .map(|(ts, payload)| BatchPutItem {
                                ts: *ts,
                                tag: 0,
                                payload: payload.clone(),
                                trace: None,
                            })
                            .collect(),
                        wait,
                    },
                ),
                RequestFrame::new(
                    2,
                    Request::GetBatch {
                        conn: 2,
                        specs: Vec::new(),
                        max: w.batch as u32,
                    },
                ),
            ];
            let mut replies = vec![
                ReplyFrame::new(
                    1,
                    Vec::new(),
                    Reply::BatchResults {
                        codes: vec![0; w.batch],
                    },
                ),
                ReplyFrame::new(
                    2,
                    Vec::new(),
                    Reply::BatchItems {
                        items: items
                            .iter()
                            .map(|(ts, payload)| BatchGot {
                                code: 0,
                                ts: *ts,
                                tag: 0,
                                payload: payload.clone(),
                                ticket: ts.value() as u64 + 1,
                                trace: None,
                            })
                            .collect(),
                    },
                ),
            ];
            for (i, (ts, _)) in items.iter().enumerate() {
                let seq = 3 + i as u64;
                reqs.push(RequestFrame::new(
                    seq,
                    Request::QueueConsume {
                        conn: 2,
                        ticket: ts.value() as u64 + 1,
                    },
                ));
                replies.push(ok(seq));
            }
            (reqs, replies)
        }
    }
}

/// Codec cost of the workload's frames.
pub struct WireTimes {
    /// Encoding every frame of one item's trip, ns per item.
    pub encode_ns: f64,
    /// Decoding them, ns per item.
    pub decode_ns: f64,
    /// Encoding and decoding the write call's request and reply, ns per
    /// call (one put, or one enqueue_many of a whole arrival).
    pub write_call_ns: f64,
}

/// Encode and decode times of one item's frames through `codec`.
pub fn wire(w: &Workload, seed: u64, codec: CodecId, span: Duration) -> WireTimes {
    let c = codec_for(codec);
    let (reqs, replies) = item_frames(w, seed);
    // Timed encodes stop at the scatter-gather frame, as a session's
    // vectored write consumes it; flattening is only for the decoders.
    let encode = || {
        let a: Vec<_> = reqs
            .iter()
            .map(|f| c.encode_request(f).expect("encode request"))
            .collect();
        let b: Vec<_> = replies
            .iter()
            .map(|f| c.encode_reply(f).expect("encode reply"))
            .collect();
        (a, b)
    };
    let (req_frames, reply_frames) = encode();
    let req_wire: Vec<Bytes> = req_frames.iter().map(|f| f.to_bytes()).collect();
    let reply_wire: Vec<Bytes> = reply_frames.iter().map(|f| f.to_bytes()).collect();
    for (f, b) in reqs.iter().zip(&req_wire) {
        assert_eq!(
            &c.decode_request(b).expect("decode"),
            f,
            "request round trip"
        );
    }
    for (f, b) in replies.iter().zip(&reply_wire) {
        assert_eq!(&c.decode_reply(b).expect("decode"), f, "reply round trip");
    }
    let per_item = w.batch as f64;
    let enc = p50(sample(span * 2 / 5, 20, |_| {
        std::hint::black_box(encode());
    }));
    let dec = p50(sample(span * 2 / 5, 20, |_| {
        for b in &req_wire {
            std::hint::black_box(c.decode_request(b).expect("decode"));
        }
        for b in &reply_wire {
            std::hint::black_box(c.decode_reply(b).expect("decode"));
        }
    }));
    let write_call = p50(sample(span / 5, 20, |_| {
        std::hint::black_box(c.encode_request(&reqs[0]).expect("encode"));
        std::hint::black_box(c.encode_reply(&replies[0]).expect("encode"));
        std::hint::black_box(c.decode_request(&req_wire[0]).expect("decode"));
        std::hint::black_box(c.decode_reply(&reply_wire[0]).expect("decode"));
    }));
    WireTimes {
        encode_ns: enc / per_item,
        decode_ns: dec / per_item,
        write_call_ns: write_call,
    }
}

/// Core STM replay: put, get and consume ns per item on a standalone
/// container with the workload's payload and capacity, in rounds of up
/// to 32 items (one capacity's worth for small capacities).
pub fn core(w: &Workload, seed: u64, span: Duration) -> (f64, f64, f64) {
    let block = (w.capacity as usize).min(32).max(w.batch);
    let items: Vec<Item> = (0..block as u64)
        .map(|i| Item::from_vec(gen::payload(seed, i, w.item_len)))
        .collect();
    let per = block as f64;
    let ns = |t: Instant| t.elapsed().as_nanos() as f64 / per;
    let [put, get, consume] = match w.kind {
        Kind::Channel => {
            let ch = Channel::standalone(ChannelAttrs::builder().capacity(w.capacity).build());
            let out = ch.connect_output();
            let inp = ch.connect_input(Interest::FromEarliest);
            blocks(block, span, |tss| {
                let t = Instant::now();
                for (ts, item) in tss.iter().zip(&items) {
                    out.put(*ts, item.clone()).expect("core put");
                }
                let a = ns(t);
                let t = Instant::now();
                for ts in tss {
                    std::hint::black_box(inp.get(GetSpec::Exact(*ts)).expect("core get"));
                }
                let b = ns(t);
                let t = Instant::now();
                for ts in tss {
                    inp.consume_until(*ts).expect("core consume");
                }
                let c = ns(t);
                assert_eq!(ch.live_items(), 0, "core replay left items unreclaimed");
                [a, b, c]
            })
        }
        Kind::Queue => {
            let q = Queue::standalone(QueueAttrs::builder().capacity(w.capacity).build());
            let out = q.connect_output();
            let inp = q.connect_input();
            blocks(block, span, |tss| {
                let entries: Vec<(Timestamp, Item)> =
                    tss.iter().copied().zip(items.iter().cloned()).collect();
                let t = Instant::now();
                for chunk in entries.chunks(w.batch) {
                    for r in out.put_many(chunk.to_vec()) {
                        r.expect("core put_many");
                    }
                }
                let a = ns(t);
                let t = Instant::now();
                let mut got = Vec::new();
                while got.len() < tss.len() {
                    got.extend(inp.try_dequeue_many(w.batch).expect("core dequeue_many"));
                }
                let b = ns(t);
                let t = Instant::now();
                for (_, _, ticket) in got {
                    inp.consume(ticket).expect("core consume");
                }
                let c = ns(t);
                assert_eq!(q.queued_items() + q.inflight_items(), 0);
                [a, b, c]
            })
        }
    };
    (p50(put), p50(get), p50(consume))
}

/// Runs `one` on successive blocks of `block` timestamps until `span` is
/// up (and at least 20 times), collecting its three figures per block.
fn blocks(
    block: usize,
    span: Duration,
    mut one: impl FnMut(&[Timestamp]) -> [f64; 3],
) -> [Vec<f64>; 3] {
    let mut out: [Vec<f64>; 3] = Default::default();
    let end = Instant::now() + span;
    let mut base = 0i64;
    while out[0].len() < 20 || Instant::now() < end {
        let tss: Vec<Timestamp> = (base..base + block as i64).map(Timestamp::new).collect();
        base += block as i64;
        for (v, x) in out.iter_mut().zip(one(&tss)) {
            v.push(x);
        }
    }
    out
}

fn send_windowed(ep: &dyn ClfTransport, dst: AsId, msg: Bytes) {
    loop {
        match ep.send(dst, msg.clone()) {
            Ok(()) => return,
            Err(ClfError::Backpressure { .. }) => std::thread::sleep(Duration::from_micros(50)),
            Err(e) => panic!("clf send: {e}"),
        }
    }
}

/// CLF replay on two UDP endpoints at the workload's message size:
/// (one-way µs from a ping-pong, one-way goodput in MB/s).
pub fn clf(w: &Workload, seed: u64, span: Duration) -> (f64, f64) {
    let size = w.item_len * w.batch;
    let msg = Bytes::from(gen::payload(seed, 0, size));
    let mut eps = udp_mesh(2, UdpConfig::default()).expect("udp mesh");
    let b = eps.pop().expect("endpoint");
    let a = eps.pop().expect("endpoint");
    let rtt = sample(span / 2, 20, |_| {
        send_windowed(&*a, AsId(1), msg.clone());
        let (_, got) = b.recv().expect("clf recv");
        send_windowed(&*b, AsId(0), got);
        let (_, back) = a.recv().expect("clf recv");
        assert_eq!(back, msg, "clf ping-pong returned other bytes");
    });
    let msgs = (8 * 1024 * 1024 / size).clamp(200, 4000);
    let goodput = std::thread::scope(|s| {
        let rx = s.spawn(|| {
            (0..msgs)
                .map(|_| b.recv().expect("clf recv").1.len())
                .sum::<usize>()
        });
        let t = Instant::now();
        for _ in 0..msgs {
            send_windowed(&*a, AsId(1), msg.clone());
        }
        let bytes = rx.join().expect("clf receiver");
        assert_eq!(bytes, size * msgs, "clf short delivery");
        bytes as f64 / 1e6 / t.elapsed().as_secs_f64()
    });
    a.shutdown();
    b.shutdown();
    (p50(rtt) / 2e3, goodput)
}

/// The exp1 shape: an in-process two-space cluster over UDP CLF with no
/// listeners; put from AS 0 into a channel on AS 1, get and consume
/// there. µs per cycle.
pub fn inproc(w: &Workload, seed: u64, span: Duration) -> f64 {
    let cluster = Cluster::builder()
        .address_spaces(2)
        .transport(ClusterTransport::Udp(UdpConfig::default()))
        .listeners(false)
        .build()
        .expect("in-process cluster");
    let home = cluster.space(1).expect("as1");
    let chan = home.create_channel(None, ChannelAttrs::default());
    let out = cluster
        .space(0)
        .expect("as0")
        .open_channel(chan.id())
        .expect("open")
        .connect_output()
        .expect("connect");
    let inp = home
        .open_channel(chan.id())
        .expect("open")
        .connect_input(Interest::FromEarliest)
        .expect("connect");
    let item = Item::from_vec(gen::payload(seed, 0, w.item_len * w.batch));
    let cycle = sample(span, 20, |i| {
        let ts = Timestamp::new(i as i64);
        out.put(ts, item.clone(), WaitSpec::Forever).expect("put");
        let (_, got) = inp.get(GetSpec::Exact(ts), WaitSpec::Forever).expect("get");
        assert_eq!(got.len(), item.len());
        inp.consume_until(ts).expect("consume");
    });
    drop((out, inp));
    cluster.shutdown();
    p50(cycle) / 1e3
}

/// Raw loopback round trips at the workload's message size: (TCP µs,
/// UDP µs). UDP sends messages above 60 000 B as several datagrams.
pub fn baseline(w: &Workload, seed: u64, span: Duration) -> (f64, f64) {
    let size = w.item_len * w.batch;
    let msg = gen::payload(seed, 0, size);
    let listener = dstampede_clf::tcp_listen_loopback().expect("listen");
    let addr = listener.local_addr().expect("addr");
    let tcp = std::thread::scope(|s| {
        s.spawn(move || {
            let (mut c, _) = listener.accept().expect("accept");
            c.set_nodelay(true).expect("nodelay");
            while let Ok(m) = read_frame(&mut c) {
                write_frame(&mut c, &m).expect("echo");
            }
        });
        let mut c = dstampede_clf::tcp_connect(addr).expect("connect");
        let rtt = sample(span / 2, 20, |_| {
            write_frame(&mut c, &msg).expect("send");
            assert_eq!(read_frame(&mut c).expect("recv").len(), size);
        });
        drop(c);
        p50(rtt) / 1e3
    });

    const CHUNK: usize = 60_000;
    let a = UdpSocket::bind("127.0.0.1:0").expect("bind");
    let b = UdpSocket::bind("127.0.0.1:0").expect("bind");
    a.connect(b.local_addr().expect("addr")).expect("connect");
    b.connect(a.local_addr().expect("addr")).expect("connect");
    for s in [&a, &b] {
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
    }
    let mut buf = vec![0u8; CHUNK];
    let mut leg = |from: &UdpSocket, to: &UdpSocket| {
        for chunk in msg.chunks(CHUNK) {
            from.send(chunk).expect("udp send");
            let n = to.recv(&mut buf).expect("udp recv");
            assert_eq!(n, chunk.len());
        }
    };
    let udp = sample(span / 2, 20, |_| {
        leg(&a, &b);
        leg(&b, &a);
    });
    (tcp, p50(udp) / 1e3)
}
