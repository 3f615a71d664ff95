//! Blocking requests between address spaces park on the container's
//! waker set instead of taking a thread.
//!
//! A peer's blocking `get` on a container hosted here becomes a parked
//! continuation, answered by whichever thread wakes it — a local putter,
//! or the CLF receive thread running another peer's put — and its
//! `TimeoutMs` deadline sits on the address space's timer wheel. Every
//! drill runs on both runtimes (dedicated threads and the reactor) over
//! both transports (in-process and reliable UDP), serially: the thread
//! census below must not see another test's workers.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dstampede_clf::UdpConfig;
use dstampede_core::{
    ChannelAttrs, GetSpec, Interest, Item, OverflowPolicy, QueueAttrs, StmError, TagFilter,
    Timestamp,
};
use dstampede_runtime::reactor::ReactorConfig;
use dstampede_runtime::{AddressSpace, Cluster, ClusterBuilder, ClusterTransport};
use dstampede_wire::{Reply, Request, WaitSpec};

static SERIAL: Mutex<()> = Mutex::new(());

fn ts(v: i64) -> Timestamp {
    Timestamp::new(v)
}

/// Runs `body` against a fresh cluster of `spaces` address spaces in each
/// runtime × transport configuration.
fn each_config(spaces: u16, body: impl Fn(&str, &Cluster)) {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let udp = ClusterTransport::Udp(UdpConfig::default());
    let configs: [(&str, ClusterBuilder); 4] = [
        ("threads/mem", Cluster::builder()),
        ("threads/udp", Cluster::builder().transport(udp)),
        (
            "reactor/mem",
            Cluster::builder().reactor(ReactorConfig::default()),
        ),
        (
            "reactor/udp",
            Cluster::builder()
                .transport(udp)
                .reactor(ReactorConfig::default()),
        ),
    ];
    for (name, builder) in configs {
        let cluster = builder
            .address_spaces(spaces)
            .listeners(false)
            .build()
            .unwrap();
        body(name, &cluster);
        cluster.shutdown();
    }
}

fn wait_for(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let until = Instant::now() + deadline;
    while Instant::now() < until {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    cond()
}

/// Waits until `space` holds `n` parked peer requests, read from the
/// `rpc/remote_parked` gauge operators see.
fn wait_parked(space: &AddressSpace, n: i64, config: &str) {
    let parked = || {
        space
            .metrics()
            .snapshot()
            .gauge_value("rpc", "remote_parked")
            .unwrap_or(0)
    };
    assert!(
        wait_for(Duration::from_secs(5), || parked() == n),
        "{config}: expected {n} parked requests, have {}",
        parked()
    );
}

/// Names of this process's threads.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|n| n.trim().to_owned())
        .collect()
}

#[test]
fn parked_get_is_woken_by_local_and_remote_puts() {
    each_config(3, |config, cluster| {
        let owner = cluster.space(0).unwrap();
        let getter = cluster.space(1).unwrap();
        let putter = cluster.space(2).unwrap();
        let chan = owner.create_channel(None, ChannelAttrs::default());
        let inp = getter
            .open_channel(chan.id())
            .unwrap()
            .connect_input(Interest::FromEarliest)
            .unwrap();
        std::thread::scope(|s| {
            // Woken by a put on the owner itself.
            let waiter = s.spawn(|| inp.get(GetSpec::Exact(ts(1)), WaitSpec::Forever));
            wait_parked(&owner, 1, config);
            assert!(
                !thread_names().iter().any(|n| n == "as-0-worker"),
                "{config}: a parked request must not hold a worker thread"
            );
            chan.connect_output()
                .put(ts(1), Item::from_vec(b"local".to_vec()))
                .unwrap();
            let got = waiter.join().unwrap().unwrap();
            assert_eq!(got.1.payload(), b"local", "{config}");

            // Woken by a put arriving from a third address space.
            let waiter = s.spawn(|| inp.get(GetSpec::Exact(ts(2)), WaitSpec::Forever));
            wait_parked(&owner, 1, config);
            let out = putter
                .open_channel(chan.id())
                .unwrap()
                .connect_output()
                .unwrap();
            out.put(
                ts(2),
                Item::from_vec(b"remote".to_vec()),
                WaitSpec::NonBlocking,
            )
            .unwrap();
            let got = waiter.join().unwrap().unwrap();
            assert_eq!(got.1.payload(), b"remote", "{config}");
        });
        wait_parked(&owner, 0, config);
    });
}

#[test]
fn timeout_fires_on_the_wheel_no_earlier_than_the_deadline() {
    each_config(2, |config, cluster| {
        let owner = cluster.space(0).unwrap();
        let getter = cluster.space(1).unwrap();
        let q = owner.create_queue(None, QueueAttrs::default());
        let inp = getter.open_queue(q.id()).unwrap().connect_input().unwrap();
        let timeout = Duration::from_millis(20);
        let mut late: Vec<Duration> = (0..20)
            .map(|_| {
                let started = Instant::now();
                let got = inp.get(WaitSpec::TimeoutMs(20));
                let took = started.elapsed();
                assert_eq!(got.unwrap_err(), StmError::Timeout, "{config}");
                assert!(took >= timeout, "{config}: timed out early ({took:?})");
                took - timeout
            })
            .collect();
        late.sort();
        assert!(
            late[late.len() / 2] < Duration::from_millis(5),
            "{config}: median lateness {:?}",
            late[late.len() / 2]
        );
        wait_parked(&owner, 0, config);
    });
}

#[test]
fn close_and_disconnect_wake_parked_requests_with_their_errors() {
    each_config(2, |config, cluster| {
        let owner = cluster.space(0).unwrap();
        let getter = cluster.space(1).unwrap();

        // Close: the parked get observes Closed.
        let chan = owner.create_channel(None, ChannelAttrs::default());
        let inp = getter
            .open_channel(chan.id())
            .unwrap()
            .connect_input(Interest::FromEarliest)
            .unwrap();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| inp.get(GetSpec::Exact(ts(1)), WaitSpec::Forever));
            wait_parked(&owner, 1, config);
            chan.close();
            assert_eq!(
                waiter.join().unwrap().unwrap_err(),
                StmError::Closed,
                "{config}"
            );
        });

        // Disconnect: the connection the parked get waits on goes away.
        let chan = owner.create_channel(None, ChannelAttrs::default());
        let conn = match getter
            .call(
                owner.id(),
                Request::ConnectChannelIn {
                    chan: chan.id(),
                    interest: Interest::FromEarliest,
                    filter: TagFilter::Any,
                },
            )
            .unwrap()
        {
            Reply::Connected { conn } => conn,
            other => panic!("{config}: unexpected {other:?}"),
        };
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                getter.call(
                    owner.id(),
                    Request::ChannelGet {
                        conn,
                        spec: GetSpec::Latest,
                        wait: WaitSpec::Forever,
                    },
                )
            });
            wait_parked(&owner, 1, config);
            assert_eq!(
                getter
                    .call(owner.id(), Request::Disconnect { conn })
                    .unwrap(),
                Reply::Ok
            );
            assert_eq!(
                waiter.join().unwrap().unwrap_err(),
                StmError::NoSuchConnection,
                "{config}"
            );
        });
        wait_parked(&owner, 0, config);
    });
}

#[test]
fn racing_putters_wake_one_parked_queue_get_exactly_once() {
    each_config(2, |config, cluster| {
        let owner = cluster.space(0).unwrap();
        let getter = cluster.space(1).unwrap();
        let q = owner.create_queue(None, QueueAttrs::default());
        let inp = getter.open_queue(q.id()).unwrap().connect_input().unwrap();
        let sent_before = owner.transport().stats().msgs_sent;
        std::thread::scope(|s| {
            let waiter = s.spawn(|| inp.get(WaitSpec::Forever));
            wait_parked(&owner, 1, config);
            let go = Arc::new(std::sync::Barrier::new(8));
            let putters: Vec<_> = (0..8)
                .map(|i| {
                    let (q, go) = (Arc::clone(&q), Arc::clone(&go));
                    s.spawn(move || {
                        let out = q.connect_output();
                        go.wait();
                        out.put(ts(i), Item::from_vec(vec![i as u8])).unwrap();
                    })
                })
                .collect();
            for p in putters {
                p.join().unwrap();
            }
            let (_, _, ticket) = waiter.join().unwrap().unwrap();
            inp.consume(ticket).unwrap();
        });
        // One ticket handed out, seven items still queued.
        assert_eq!(q.stats().gets, 1, "{config}");
        assert_eq!(q.queued_items(), 7, "{config}");
        wait_parked(&owner, 0, config);
        // The owner sent two messages: one get reply, one consume reply.
        // A second get reply would show up here.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            owner.transport().stats().msgs_sent - sent_before,
            2,
            "{config}: exactly one reply per request"
        );
    });
}

#[test]
fn offloaded_requests_still_complete_on_worker_threads() {
    each_config(2, |config, cluster| {
        let owner = cluster.space(0).unwrap();
        let peer = cluster.space(1).unwrap();
        let offloaded = || {
            owner
                .metrics()
                .snapshot()
                .counter_value("rpc", "remote_offloaded")
                .unwrap_or(0)
        };
        let before = offloaded();

        // A cluster-wide pull RPCs every peer: never on the receive thread.
        match peer
            .call(owner.id(), Request::StatsPull { cluster: true })
            .unwrap()
        {
            Reply::StatsReport { .. } => {}
            other => panic!("{config}: unexpected {other:?}"),
        }

        // A blocking batch put into a full `Block` queue waits on a
        // worker until a get frees space.
        let q = owner.create_queue(
            None,
            QueueAttrs::builder()
                .capacity(1)
                .overflow(OverflowPolicy::Block)
                .build(),
        );
        q.connect_output()
            .put(ts(0), Item::from_vec(vec![0]))
            .unwrap();
        let out = peer.open_queue(q.id()).unwrap().connect_output().unwrap();
        std::thread::scope(|s| {
            let batch =
                s.spawn(|| out.put_many(vec![(ts(1), Item::from_vec(vec![1]))], WaitSpec::Forever));
            assert!(
                wait_for(Duration::from_secs(5), || offloaded() >= before + 2),
                "{config}: batch put was not offloaded"
            );
            let local = q.connect_input();
            let (_, _, ticket) = local.get().unwrap();
            local.consume(ticket).unwrap();
            let results = batch.join().unwrap().unwrap();
            assert_eq!(results, vec![Ok(())], "{config}");
        });
        assert_eq!(q.queued_items(), 1, "{config}");
    });
}
