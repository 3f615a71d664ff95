//! Fault-injection ("chaos") drills for the failure-detection and
//! recovery subsystem.
//!
//! Every test drives a live cluster through a seeded
//! [`dstampede_clf::FaultPlan`] — crashes, partitions, duplicated
//! packets — and asserts the recovery invariants: survivors keep making
//! progress within the RPC deadline, orphaned connections release their
//! GC claims, in-flight queue tickets return to surviving getters, and
//! the death event is visible in telemetry. Plans are deterministic
//! (seeded LCG, packet-count triggers), so these drills are reproducible;
//! CI runs them single-threaded (`--test-threads=1`) to keep timing
//! windows stable.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dstampede_clf::FaultPlan;
use dstampede_client::{render_snapshot_table, EndDevice};
use dstampede_core::{
    AsId, ChannelAttrs, GetSpec, Interest, Item, QueueAttrs, StmError, Timestamp,
};
use dstampede_runtime::failure::{FailureConfig, RpcConfig};
use dstampede_runtime::proto;
use dstampede_runtime::{Cluster, ClusterBuilder};
use dstampede_wire::{Reply, Request, RequestFrame, WaitSpec};

/// Polls `cond` until it holds or `deadline` passes.
fn wait_for(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let until = Instant::now() + deadline;
    while Instant::now() < until {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

fn fast_failure() -> FailureConfig {
    FailureConfig {
        period: Duration::from_millis(20),
        missed: 3,
    }
}

fn fast_rpc() -> RpcConfig {
    RpcConfig {
        deadline: Duration::from_millis(800),
        attempt_timeout: Duration::from_millis(150),
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(40),
    }
}

/// The flagship drill: a three-space cluster streaming through channels
/// and a queue loses one space mid-stream. Survivors must keep completing
/// puts and gets within the RPC deadline, the dead space's channel claims
/// must release so GC reclaims the orphaned items, its in-flight queue
/// ticket must return to a surviving getter, and the death event must
/// show up in (cluster-wide) telemetry — the same view `dstampede-cli
/// stats` renders.
#[test]
fn crashed_space_mid_stream_recovers() {
    let plan = FaultPlan::new(42);
    let cluster = Cluster::builder()
        .address_spaces(3)
        .fault_plan(Arc::clone(&plan))
        .failure_detection(fast_failure())
        .rpc_config(fast_rpc())
        .build()
        .unwrap();
    let owner = cluster.space(0).unwrap();
    let survivor = cluster.space(1).unwrap();
    let victim = cluster.space(2).unwrap();

    let chan = owner.create_channel(Some("stream".into()), ChannelAttrs::default());
    let queue = owner.create_queue(Some("work".into()), QueueAttrs::default());

    // The survivor produces and consumes; the victim lags at timestamp 0
    // with claims that pin every item, and holds a queue ticket in flight.
    let out = survivor
        .open_channel(chan.id())
        .unwrap()
        .connect_output()
        .unwrap();
    let survivor_in = survivor
        .open_channel(chan.id())
        .unwrap()
        .connect_input(Interest::FromEarliest)
        .unwrap();
    let victim_in = victim
        .open_channel(chan.id())
        .unwrap()
        .connect_input(Interest::FromEarliest)
        .unwrap();

    for i in 0..5 {
        out.put(
            Timestamp::new(i),
            Item::from_vec(vec![i as u8]),
            WaitSpec::Forever,
        )
        .unwrap();
    }
    // The victim reads but never consumes: its claims pin items 0..5.
    let (_, item) = victim_in
        .get(GetSpec::Earliest, WaitSpec::NonBlocking)
        .unwrap();
    assert_eq!(item.payload(), &[0]);

    // The victim takes a queue ticket and "crashes" before settling it.
    let q_out = survivor
        .open_queue(queue.id())
        .unwrap()
        .connect_output()
        .unwrap();
    q_out
        .put(
            Timestamp::new(1),
            Item::from_vec(b"in-flight".to_vec()),
            WaitSpec::NonBlocking,
        )
        .unwrap();
    let victim_q = victim
        .open_queue(queue.id())
        .unwrap()
        .connect_input()
        .unwrap();
    let (_, q_item, _unsettled) = victim_q.get(WaitSpec::NonBlocking).unwrap();
    assert_eq!(q_item.payload(), b"in-flight");

    // The survivor consumes everything it has seen so far; the victim's
    // claims still pin every item.
    for i in 0..5 {
        let (ts, _) = survivor_in
            .get(GetSpec::Exact(Timestamp::new(i)), WaitSpec::Forever)
            .unwrap();
        survivor_in.consume_until(ts).unwrap();
    }
    assert!(chan.live_items() > 0, "victim claims should pin items");

    // Kill the victim mid-stream.
    plan.crash(AsId(2));

    // Survivors keep completing operations within the deadline while the
    // failure detector works in the background.
    let started = Instant::now();
    out.put(
        Timestamp::new(5),
        Item::from_vec(vec![5]),
        WaitSpec::Forever,
    )
    .unwrap();
    let (ts, item) = survivor_in
        .get(GetSpec::Exact(Timestamp::new(5)), WaitSpec::Forever)
        .unwrap();
    assert_eq!(item.payload(), &[5]);
    survivor_in.consume_until(ts).unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "survivor operations must not hang on the dead peer"
    );

    // The owner declares the victim dead...
    assert!(
        wait_for(Duration::from_secs(5), || owner.is_peer_dead(AsId(2))),
        "owner never declared the crashed space dead"
    );
    // ...which orphans the victim's channel claims: GC reclaims the
    // pinned items.
    assert!(
        wait_for(Duration::from_secs(5), || chan.live_items() == 0),
        "orphaned claims still pin {} items",
        chan.live_items()
    );
    assert!(chan.stats().reclaimed_items >= 1);

    // ...and requeues the victim's in-flight ticket for a survivor.
    let survivor_q = survivor
        .open_queue(queue.id())
        .unwrap()
        .connect_input()
        .unwrap();
    let recovered = wait_for(Duration::from_secs(5), || {
        matches!(
            survivor_q.get(WaitSpec::NonBlocking),
            Ok((_, ref item, _)) if item.payload() == b"in-flight"
        )
    });
    assert!(recovered, "in-flight ticket was not requeued to a survivor");

    // The death event is visible in the cluster-wide stats a client pulls
    // (what `dstampede-cli stats` renders).
    let device = EndDevice::attach_c(cluster.listener_addr(0).unwrap(), "drill").unwrap();
    let snap = device.stats(true).unwrap();
    assert!(
        snap.counter_value("failure", "peers_declared_dead")
            .unwrap_or(0)
            >= 1,
        "death event missing from cluster stats"
    );
    let table = render_snapshot_table(&snap);
    assert!(table.contains("peers_declared_dead"));
    device.detach().unwrap();

    cluster.shutdown();
}

/// Satellite: an orphaned input connection at a low virtual time must not
/// wedge the distributed GC epoch floor. The dead space's stale report is
/// retired from the aggregator when it is declared dead.
#[test]
fn orphaned_space_no_longer_wedges_gc_floor() {
    use dstampede_core::VirtualTime;
    use dstampede_runtime::{GcEpochConfig, GcEpochService};

    let plan = FaultPlan::new(7);
    let cluster = Cluster::builder()
        .address_spaces(2)
        .listeners(false)
        .fault_plan(Arc::clone(&plan))
        .failure_detection(fast_failure())
        .rpc_config(fast_rpc())
        .build()
        .unwrap();
    let aggregator = cluster.space(0).unwrap();
    let laggard = cluster.space(1).unwrap();

    let t0 = aggregator.threads().register("ahead");
    let t1 = laggard.threads().register("behind");
    t0.set_vt(VirtualTime::at(Timestamp::new(100)));
    t1.set_vt(VirtualTime::at(Timestamp::new(5)));

    let service = GcEpochService::start(
        cluster.spaces(),
        GcEpochConfig {
            period: Duration::from_millis(10),
        },
    );
    // The laggard's report wedges the floor at 5.
    assert!(wait_for(Duration::from_secs(5), || {
        aggregator.gc_global_floor() == VirtualTime::at(Timestamp::new(5))
    }));

    // Crash the laggard: once declared dead, its stale report is retired
    // and the floor advances to the survivor's virtual time.
    plan.crash(AsId(1));
    assert!(
        wait_for(Duration::from_secs(5), || {
            aggregator.gc_global_floor() == VirtualTime::at(Timestamp::new(100))
        }),
        "GC floor still wedged at {:?} by the dead space",
        aggregator.gc_global_floor()
    );

    service.shutdown();
    cluster.shutdown();
}

/// A full partition makes non-blocking RPCs fail with
/// [`StmError::Timeout`] once the retry deadline expires — instead of
/// hanging forever — and calls succeed again after the partition heals.
#[test]
fn partition_expires_rpc_deadline_then_heals() {
    let plan = FaultPlan::new(11);
    let cluster = Cluster::builder()
        .address_spaces(2)
        .listeners(false)
        .fault_plan(Arc::clone(&plan))
        .rpc_config(RpcConfig {
            deadline: Duration::from_millis(300),
            attempt_timeout: Duration::from_millis(60),
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(20),
        })
        .build()
        .unwrap();
    let a = cluster.space(0).unwrap();
    let b = cluster.space(1).unwrap();

    plan.partition(AsId(0), AsId(1));
    let started = Instant::now();
    assert_eq!(
        b.call(AsId(0), Request::Ping { nonce: 1 }).unwrap_err(),
        StmError::Timeout
    );
    let elapsed = started.elapsed();
    assert!(
        elapsed >= Duration::from_millis(250) && elapsed < Duration::from_secs(3),
        "deadline fired after {elapsed:?}, expected ≈300ms"
    );

    plan.heal(AsId(0), AsId(1));
    match b.call(AsId(0), Request::Ping { nonce: 2 }).unwrap() {
        Reply::Pong { nonce } => assert_eq!(nonce, 2),
        other => panic!("unexpected {other:?}"),
    }
    let _ = a;
    cluster.shutdown();
}

/// A replayed non-idempotent request (same `WithId` id, as a retry after
/// a lost reply would send) is answered from the executor's dedup cache
/// with the *original* outcome instead of being re-executed.
#[test]
fn replayed_with_id_request_executes_once() {
    use dstampede_clf::{ClfTransport, MemFabric};
    use dstampede_runtime::AddressSpace;

    let fabric = MemFabric::new();
    let space = AddressSpace::start(fabric.endpoint(AsId(0)), true);
    let chan = space.create_channel(Some("once".into()), ChannelAttrs::default());
    let probe = fabric.endpoint(AsId(5));

    let register = Request::WithId {
        req_id: 77,
        req: Box::new(Request::NsRegister {
            name: "unique-name".into(),
            resource: dstampede_core::ResourceId::Channel(chan.id()),
            meta: String::new(),
        }),
    };
    // The same tagged request arrives twice (e.g. the reply to the first
    // attempt was lost and the caller retried).
    for seq in [1u64, 2] {
        let msg = proto::encode_request(&RequestFrame::new(seq, register.clone())).unwrap();
        probe.send(AsId(0), msg.to_bytes()).unwrap();
        let (_, reply_bytes) = probe.recv().unwrap();
        match proto::decode(&reply_bytes).unwrap() {
            proto::AsMessage::Reply(frame) => {
                assert_eq!(frame.seq, seq);
                // Both attempts observe the original success — a naive
                // re-execution would answer the replay with NameExists.
                assert_eq!(frame.reply, Reply::Ok);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    // A genuinely new request id executes for real and collides.
    let fresh = Request::WithId {
        req_id: 78,
        req: Box::new(Request::NsRegister {
            name: "unique-name".into(),
            resource: dstampede_core::ResourceId::Channel(chan.id()),
            meta: String::new(),
        }),
    };
    let msg = proto::encode_request(&RequestFrame::new(3, fresh)).unwrap();
    probe.send(AsId(0), msg.to_bytes()).unwrap();
    let (_, reply_bytes) = probe.recv().unwrap();
    match proto::decode(&reply_bytes).unwrap() {
        proto::AsMessage::Reply(frame) => {
            assert_eq!(frame.reply, Reply::from_error(&StmError::NameExists));
        }
        other => panic!("unexpected {other:?}"),
    }
    space.shutdown();
}

/// Duplicated packets on the wire (ARQ retransmissions, chaos plans) do
/// not corrupt non-idempotent operations: the `WithId` dedup layer keeps
/// one registration per logical request even when every second packet is
/// delivered twice.
#[test]
fn duplicated_packets_do_not_double_execute() {
    let plan = FaultPlan::new(99);
    plan.duplicate_every_nth(2);
    let cluster = Cluster::builder()
        .address_spaces(2)
        .listeners(false)
        .fault_plan(Arc::clone(&plan))
        .rpc_config(fast_rpc())
        .build()
        .unwrap();
    let a = cluster.space(0).unwrap();
    let b = cluster.space(1).unwrap();

    let chan = a.create_channel(None, ChannelAttrs::default());
    for i in 0..8 {
        b.ns_register(
            &format!("name-{i}"),
            dstampede_core::ResourceId::Channel(chan.id()),
            "",
        )
        .unwrap();
    }
    // Exactly one registration per name survived the duplication storm.
    assert_eq!(b.ns_list().unwrap().len(), 8);
    assert!(
        plan.stats().duplicated > 0,
        "plan never duplicated a packet"
    );
    cluster.shutdown();
}

/// An end device that stops talking loses its session lease: the
/// surrogate tears down, the device's in-flight queue ticket requeues for
/// other devices, and the teardown is counted. A device running a
/// keepalive survives the same silence.
#[test]
fn session_lease_reaps_silent_device_and_keepalive_survives() {
    let cluster = ClusterBuilder::new()
        .address_spaces(1)
        .session_lease(Duration::from_millis(150))
        .build()
        .unwrap();
    let addr = cluster.listener_addr(0).unwrap();
    let listener = cluster.listener(0).unwrap();

    // A silent device holding a queue ticket.
    let silent = EndDevice::attach_c(addr, "silent").unwrap();
    let qid = silent
        .create_queue(Some("jobs"), QueueAttrs::default())
        .unwrap();
    let q_out = silent.connect_queue_out(qid).unwrap();
    q_out
        .put(
            Timestamp::new(1),
            Item::from_vec(b"job".to_vec()),
            WaitSpec::NonBlocking,
        )
        .unwrap();
    let q_in = silent.connect_queue_in(qid).unwrap();
    let (_, item, _ticket) = q_in.get(WaitSpec::NonBlocking).unwrap();
    assert_eq!(item.payload(), b"job");

    // A chatty-by-proxy device: silent too, but running a keepalive.
    let kept = EndDevice::attach_c(addr, "kept").unwrap();
    let keepalive = kept.start_keepalive(Duration::from_millis(50));

    // Wait past several leases: the silent session is torn down, the
    // keepalive session survives.
    assert!(
        wait_for(Duration::from_secs(5), || {
            listener.stats().lease_teardowns >= 1
        }),
        "silent session was never lease-reaped"
    );
    assert_eq!(kept.ping(9).unwrap(), 9);

    // The reaped session's in-flight ticket went back to the queue for
    // surviving devices.
    let q_in2 = kept.connect_queue_in(qid).unwrap();
    let recovered = wait_for(Duration::from_secs(5), || {
        matches!(
            q_in2.get(WaitSpec::NonBlocking),
            Ok((_, ref item, _)) if item.payload() == b"job"
        )
    });
    assert!(recovered, "ticket from the reaped session was not requeued");

    assert_eq!(listener.stats().lease_teardowns, 1);
    drop(keepalive);
    drop(q_in2);
    kept.detach().unwrap();
    // `silent`'s socket is already dead server-side; just drop it.
    drop((q_in, q_out, silent));
    cluster.shutdown();
}

/// Regression drill for the requeue/wakeup race: with several getters
/// parked on an empty queue, returning an in-flight ticket must wake a
/// parked getter immediately. The fix broadcasts the requeue
/// (`notify_all`); under the old `notify_one` the single wakeup could
/// land on a getter that was concurrently timing out, stranding the
/// requeued item while every other getter slept out its full timeout.
#[test]
fn requeued_ticket_wakes_parked_getter_immediately() {
    let cluster = Cluster::builder()
        .address_spaces(2)
        .listeners(false)
        .build()
        .unwrap();
    let owner = cluster.space(0).unwrap();
    let peer = cluster.space(1).unwrap();
    let q = owner.create_queue(Some("requeue-race".into()), QueueAttrs::default());

    let out = owner.open_queue(q.id()).unwrap().connect_output().unwrap();
    out.put(
        Timestamp::new(1),
        Item::from_vec(b"hot".to_vec()),
        WaitSpec::NonBlocking,
    )
    .unwrap();

    // The holder takes the only item in flight, so both parked getters
    // below see an empty queue.
    let holder = owner.open_queue(q.id()).unwrap().connect_input().unwrap();
    let (_, _, ticket) = holder.get(WaitSpec::NonBlocking).unwrap();

    // A decoy getter whose timeout expires right around the requeue (the
    // racy wakeup target) and a remote backstop with a generous timeout
    // that must not be left sleeping it out.
    let decoy = owner.open_queue(q.id()).unwrap().connect_input().unwrap();
    let backstop = peer.open_queue(q.id()).unwrap().connect_input().unwrap();
    let started = Instant::now();
    let (delivered, elapsed) = std::thread::scope(|s| {
        let a = s.spawn(move || decoy.get(WaitSpec::TimeoutMs(80)).is_ok());
        let b = s.spawn(move || backstop.get(WaitSpec::TimeoutMs(8_000)).is_ok());
        // Let both getters park, with the decoy close to expiry.
        std::thread::sleep(Duration::from_millis(60));
        holder.requeue(ticket).unwrap();
        let hits = [a.join().unwrap(), b.join().unwrap()];
        (hits.iter().filter(|&&hit| hit).count(), started.elapsed())
    });
    // The decoy may win the race and then re-deliver to the backstop when
    // its dropped connection orphan-requeues the unconsumed ticket; either
    // way somebody must be woken, and nobody may be left sleeping out the
    // 8 s timeout with a deliverable item sitting in the queue.
    assert!(delivered >= 1, "requeued item never delivered");
    assert!(
        elapsed < Duration::from_secs(3),
        "requeue left a parked getter sleeping out its timeout ({elapsed:?})"
    );
    cluster.shutdown();
}

/// Failover drill: a three-space cluster places a channel by rendezvous
/// hash and replicates every accepted put to its follower. Killing the
/// primary with the replication window drained must lose nothing — the
/// follower seals its replica, promotes it under a fresh identity, and
/// registers the failover pointer; a consumer on a third space
/// re-resolves through that pointer and drains the full sequence with
/// no gaps and no duplicates. Afterwards GC reclaims the consumed
/// items on the promoted channel, the promotion is counted, and the
/// re-replicated channel's `repl` health subject reads healthy.
#[test]
fn killed_primary_promotes_follower_and_drains_exactly_once() {
    use dstampede_core::ResourceId;
    use dstampede_obs::HealthState;
    use dstampede_runtime::RecorderConfig;

    let plan = FaultPlan::new(1302);
    let cluster = Cluster::builder()
        .address_spaces(3)
        .listeners(false)
        .fault_plan(Arc::clone(&plan))
        .failure_detection(fast_failure())
        .rpc_config(fast_rpc())
        .flight_recorder_off()
        .build()
        .unwrap();
    let creator = cluster.space(0).unwrap();

    // Rendezvous placement is deterministic per (name, creator, nonce):
    // walk names until one lands off the name-server space, so the kill
    // below cannot take the name server with it.
    let mut placed = None;
    for i in 0..16 {
        let id = creator
            .create_channel_placed(Some(format!("feed-{i}")), ChannelAttrs::default())
            .unwrap();
        if id.owner != AsId(0) {
            placed = Some(id);
            break;
        }
    }
    let chan = placed.expect("no name hashed off the name server in 16 tries");
    let primary = chan.owner;
    let primary_space = cluster.space(primary.0).unwrap();
    let follower = primary_space
        .replicator()
        .expect("primary must be replicating")
        .follower_of(ResourceId::Channel(chan))
        .expect("placed channel must have a follower");
    let follower_space = cluster.space(follower.0).unwrap();
    // The third space must find the promoted channel through the name
    // server — it holds no local promotion state.
    let outsider = Arc::clone(
        cluster
            .spaces()
            .iter()
            .find(|s| s.id() != primary && s.id() != follower)
            .unwrap(),
    );

    // Stream through the placed primary from the creator's side.
    let out = creator
        .open_channel(chan)
        .unwrap()
        .connect_output()
        .unwrap();
    for i in 0..40 {
        out.put(
            Timestamp::new(i),
            Item::from_vec(vec![i as u8]),
            WaitSpec::Forever,
        )
        .unwrap();
    }
    // Drain the replication window before the kill: the durability
    // guarantee is "at most the unacked window is lost", and with the
    // window drained that bound is zero items.
    let repl = primary_space.replicator().unwrap();
    assert!(
        wait_for(Duration::from_secs(5), || repl.lag() == 0),
        "replication window never drained ({} puts unacked)",
        repl.lag()
    );

    // kill -9 the primary mid-computation.
    plan.crash(primary);
    assert!(
        wait_for(Duration::from_secs(5), || follower_space
            .is_peer_dead(primary)),
        "follower never declared the primary dead"
    );
    // Death-recovery step 5: the follower seals and promotes the replica.
    let resource = ResourceId::Channel(chan);
    assert!(
        wait_for(Duration::from_secs(5), || follower_space
            .promotion_of(resource)
            .is_some()),
        "follower never promoted the sealed replica"
    );
    let promoted = match follower_space.promotion_of(resource) {
        Some(ResourceId::Channel(new)) => new,
        other => panic!("unexpected promotion target {other:?}"),
    };
    assert_eq!(promoted.owner, follower, "promotion must adopt locally");

    // A consumer on the third space re-resolves through the failover
    // pointer (proxy connects catch Disconnected and ask the name
    // server for `promoted:<resource>`) and drains the full sequence
    // exactly once.
    assert!(
        wait_for(Duration::from_secs(5), || outsider.is_peer_dead(primary)),
        "outsider never declared the primary dead"
    );
    let inp = outsider
        .open_channel(chan)
        .unwrap()
        .connect_input(Interest::FromEarliest)
        .unwrap();
    let mut seen = Vec::new();
    for i in 0..40 {
        let (ts, item) = inp
            .get(GetSpec::Exact(Timestamp::new(i)), WaitSpec::Forever)
            .unwrap();
        assert_eq!(item.payload(), &[i as u8], "payload mismatch at ts {i}");
        seen.push(ts.value());
        inp.consume_until(ts).unwrap();
    }
    assert_eq!(seen, (0..40).collect::<Vec<_>>(), "gap or duplicate");
    assert!(
        inp.get(GetSpec::Exact(Timestamp::new(40)), WaitSpec::NonBlocking)
            .is_err(),
        "an item past the replicated window was resurrected"
    );

    // The GC horizon advances on the promoted channel: with the only
    // consumer fully caught up, every replayed item is reclaimed.
    let promoted_chan = follower_space.registry().channel(promoted).unwrap();
    assert!(
        wait_for(Duration::from_secs(5), || promoted_chan.live_items() == 0),
        "GC never reclaimed the promoted channel ({} live items)",
        promoted_chan.live_items()
    );

    // The promotion is counted, and once the promoted channel's own
    // re-replication window drains the repl health subject is healthy.
    let snap = follower_space.metrics().snapshot();
    assert!(
        snap.counter_value("repl", "promotions").unwrap_or(0) >= 1,
        "promotion missing from telemetry"
    );
    let frepl = follower_space.replicator().expect("promoted re-replicates");
    assert!(
        wait_for(Duration::from_secs(5), || frepl.lag() == 0),
        "promoted channel's re-replication never drained"
    );
    follower_space.record_tick(&RecorderConfig::default());
    assert_eq!(
        follower_space.health_state_of("repl"),
        Some(HealthState::Healthy)
    );
    cluster.shutdown();
}

/// Queue failover drill: part of a placed, replicated queue is consumed
/// before its primary dies. The follower prunes its replica to the floor
/// the primary ships after the consumes, so the promoted queue yields
/// exactly the unconsumed items, in order — no consumed item comes back
/// (exactly-once across failover), and with the replication window
/// drained before the kill nothing unconsumed is lost.
#[test]
fn killed_primary_queue_promotes_only_unconsumed() {
    use dstampede_core::ResourceId;

    let plan = FaultPlan::new(1303);
    let cluster = Cluster::builder()
        .address_spaces(3)
        .listeners(false)
        .fault_plan(Arc::clone(&plan))
        .failure_detection(fast_failure())
        .rpc_config(fast_rpc())
        .flight_recorder_off()
        .build()
        .unwrap();
    let creator = cluster.space(0).unwrap();

    // Place the queue off the name-server space, as in the channel drill.
    let mut placed = None;
    for i in 0..16 {
        let id = creator
            .create_queue_placed(Some(format!("jobs-{i}")), QueueAttrs::default())
            .unwrap();
        if id.owner != AsId(0) {
            placed = Some(id);
            break;
        }
    }
    let queue = placed.expect("no name hashed off the name server in 16 tries");
    let resource = ResourceId::Queue(queue);
    let primary = queue.owner;
    let primary_space = cluster.space(primary.0).unwrap();
    let repl = primary_space.replicator().expect("primary must replicate");
    let follower = repl
        .follower_of(resource)
        .expect("placed queue must have a follower");
    let follower_space = cluster.space(follower.0).unwrap();
    let outsider = Arc::clone(
        cluster
            .spaces()
            .iter()
            .find(|s| s.id() != primary && s.id() != follower)
            .unwrap(),
    );

    // 40 jobs in; a worker on the creator takes and finishes 15.
    let out = creator.open_queue(queue).unwrap().connect_output().unwrap();
    for i in 0..40 {
        out.put(
            Timestamp::new(i),
            Item::from_vec(vec![i as u8]),
            WaitSpec::NonBlocking,
        )
        .unwrap();
    }
    let worker = creator.open_queue(queue).unwrap().connect_input().unwrap();
    for i in 0..15 {
        let (ts, _, ticket) = worker.get(WaitSpec::Forever).unwrap();
        assert_eq!(ts, Timestamp::new(i));
        worker.consume(ticket).unwrap();
    }
    // Drain the replication pipeline (puts and the consume floor): the
    // follower's replica now holds exactly the unconsumed jobs.
    assert!(
        wait_for(Duration::from_secs(5), || repl.quiesced()),
        "replication never quiesced"
    );
    let held = follower_space
        .replicas()
        .snapshot()
        .into_iter()
        .find(|(r, _, _)| *r == resource)
        .map(|(_, _, n)| n);
    assert_eq!(held, Some(25), "follower kept consumed items");

    // kill -9 the primary; the follower promotes its replica.
    plan.crash(primary);
    assert!(
        wait_for(Duration::from_secs(5), || follower_space
            .promotion_of(resource)
            .is_some()),
        "follower never promoted the sealed replica"
    );
    assert!(
        wait_for(Duration::from_secs(5), || outsider.is_peer_dead(primary)),
        "outsider never declared the primary dead"
    );

    // A worker on the third space re-resolves through the failover
    // pointer and drains exactly the 25 unconsumed jobs, in order.
    let survivor = outsider.open_queue(queue).unwrap().connect_input().unwrap();
    let mut seen = Vec::new();
    while let Ok((ts, item, ticket)) = survivor.get(WaitSpec::NonBlocking) {
        assert_eq!(item.payload(), &[ts.value() as u8]);
        seen.push(ts.value());
        survivor.consume(ticket).unwrap();
    }
    assert_eq!(
        seen,
        (15..40).collect::<Vec<_>>(),
        "promoted queue re-delivered consumed jobs or lost unconsumed ones"
    );
    cluster.shutdown();
}

/// Health drill: a crashed peer's derived state walks
/// `Healthy → Suspect → Dead` with hysteresis on the way up, a
/// partitioned peer that recovers for a single tick does not flap back
/// to healthy, and the cluster-wide `HealthPull` converges to the dead
/// verdict from any surviving node. Ticks are driven manually (recorder
/// threads off) so every hysteresis step is deterministic under the
/// seeded plan.
#[test]
fn health_drill_walks_healthy_suspect_dead_without_flapping() {
    use dstampede_obs::HealthState;
    use dstampede_runtime::RecorderConfig;

    let plan = FaultPlan::new(23);
    // Slow death declaration (500 ms lease) so the recorder's Suspect
    // window (200 ms lease) is observable before Dead latches.
    let failure = FailureConfig {
        period: Duration::from_millis(25),
        missed: 20,
    };
    let cluster = Cluster::builder()
        .address_spaces(3)
        .listeners(false)
        .fault_plan(Arc::clone(&plan))
        .failure_detection(failure)
        .rpc_config(fast_rpc())
        .flight_recorder_off()
        .build()
        .unwrap();
    let observer = cluster.space(0).unwrap();
    let witness = cluster.space(1).unwrap();
    let rec = RecorderConfig {
        lease: Duration::from_millis(200),
        ..RecorderConfig::default()
    };

    // Ping replies renew the peers' leases, so the first tick publishes
    // Healthy for both.
    observer.call(AsId(1), Request::Ping { nonce: 1 }).unwrap();
    observer.call(AsId(2), Request::Ping { nonce: 2 }).unwrap();
    observer.record_tick(&rec);
    assert_eq!(
        observer.health_state_of("peer:as-2"),
        Some(HealthState::Healthy)
    );

    // Crash as-2 and let its lease go stale past the Suspect threshold.
    plan.crash(AsId(2));
    std::thread::sleep(Duration::from_millis(250));
    observer.record_tick(&rec);
    // Worsening hysteresis: one Suspect tick is not enough...
    assert_eq!(
        observer.health_state_of("peer:as-2"),
        Some(HealthState::Healthy)
    );
    // ...two consecutive ones are.
    observer.record_tick(&rec);
    assert_eq!(
        observer.health_state_of("peer:as-2"),
        Some(HealthState::Suspect)
    );

    // The failure detector eventually declares death; the recorder
    // adopts Dead on first sight (already debounced through leases).
    assert!(
        wait_for(Duration::from_secs(5), || observer.is_peer_dead(AsId(2))),
        "observer never declared the crashed space dead"
    );
    observer.record_tick(&rec);
    assert_eq!(
        observer.health_state_of("peer:as-2"),
        Some(HealthState::Dead)
    );

    // Flapping drill against a live peer: partition long enough to go
    // Suspect...
    plan.partition(AsId(0), AsId(1));
    std::thread::sleep(Duration::from_millis(250));
    observer.record_tick(&rec);
    observer.record_tick(&rec);
    assert_eq!(
        observer.health_state_of("peer:as-1"),
        Some(HealthState::Suspect)
    );
    // ...then a one-tick recovery must NOT flap the published state...
    plan.heal(AsId(0), AsId(1));
    observer.call(AsId(1), Request::Ping { nonce: 3 }).unwrap();
    observer.record_tick(&rec);
    assert_eq!(
        observer.health_state_of("peer:as-1"),
        Some(HealthState::Suspect)
    );
    plan.partition(AsId(0), AsId(1));
    std::thread::sleep(Duration::from_millis(250));
    observer.record_tick(&rec);
    assert_eq!(
        observer.health_state_of("peer:as-1"),
        Some(HealthState::Suspect)
    );
    // ...while a full recovery streak does bring it back.
    plan.heal(AsId(0), AsId(1));
    observer.call(AsId(1), Request::Ping { nonce: 4 }).unwrap();
    for _ in 0..4 {
        observer.record_tick(&rec);
    }
    assert_eq!(
        observer.health_state_of("peer:as-1"),
        Some(HealthState::Healthy)
    );

    // Cluster-wide convergence: both survivors tick, and the merged
    // HealthPull view from either of them carries the dead verdict from
    // every surviving source.
    assert!(
        wait_for(Duration::from_secs(5), || witness.is_peer_dead(AsId(2))),
        "witness never declared the crashed space dead"
    );
    witness.record_tick(&rec);
    for space in [&observer, &witness] {
        let report = space.health_cluster_report();
        assert_eq!(report.worst(), HealthState::Dead);
        for src in ["as-0", "as-1"] {
            let entry = report
                .entry(src, "peer:as-2")
                .unwrap_or_else(|| panic!("no {src} verdict on peer:as-2"));
            assert_eq!(entry.state, HealthState::Dead, "{src}: {}", entry.reason);
        }
    }
    cluster.shutdown();
}
