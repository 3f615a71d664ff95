//! Asynchronous primary → follower replication of STM containers.
//!
//! Every channel or queue hosted through the placed-create path gets a
//! *follower*: a second live address space chosen by rendezvous hashing
//! (see [`crate::placement`]). The primary tails its own accepted puts
//! through a core put hook into a bounded in-flight window; a pump drains
//! the window into [`Request::ReplicatePut`] batches — the batch item
//! encoding of `PutBatch` — and counts acks. The pump sleeps while the
//! window is empty: the put that makes it non-empty wakes it, and it then
//! lingers briefly so the batch can fill. The follower keeps the items in
//! a passive [`ReplicaStore`], pruned to a floor the primary ships with
//! each batch — a channel's GC floor, or one below a queue's lowest
//! unconsumed timestamp (a consume alone also ships that floor) — until
//! the primary dies, at which point death recovery promotes the replica
//! into a real container (see `AddressSpace::declare_peer_dead`, step 5).
//!
//! The window is bounded: a primary that outruns its follower drops the
//! oldest unsent events rather than stalling the put path, so a crash
//! loses **at most the unacked replication window** — the guarantee the
//! durability table in the README documents.
//!
//! Old peers that predate these RPCs answer with a protocol error; the
//! replicator downgrades them (the established old-peer singleton
//! pattern) and stops replicating to them rather than failing puts.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;

use bytes::Bytes;
use dstampede_core::{AsId, ChannelAttrs, PutEvent, QueueAttrs, ResourceId, StmError, Timestamp};
use dstampede_wire::{BatchPutItem, Reply, Request};
use parking_lot::{Condvar, Mutex};

use crate::addrspace::AddressSpace;

/// Upper bound on buffered-but-unacked put events per address space.
/// Beyond it the oldest events are dropped (counted in
/// `repl/window_dropped`) so the put path never stalls on a slow
/// follower.
pub const REPLICATION_WINDOW: usize = 4096;

/// Upper bound on items retained per replica; beyond it the oldest are
/// discarded. A safety valve for primaries whose GC floor never advances.
pub const REPLICA_ITEM_CAP: usize = 65_536;

/// How many put events one `ReplicatePut` frame carries at most.
const REPLICATE_BATCH: usize = 256;

/// How long a woken pump lets a partial batch linger before shipping it.
/// Lingering instead of shipping on every put keeps the pump from
/// preempting the producer once per enqueue on core-starved machines,
/// and lets `ReplicatePut` frames fill toward [`REPLICATE_BATCH`]
/// instead of carrying singletons. The price is at most this much extra
/// staleness on top of the window bound — negligible against
/// failure-detection timescales.
const REPLICATE_LINGER: std::time::Duration = std::time::Duration::from_millis(1);

/// The creation attributes of a replicated container, replayed when the
/// follower promotes the replica into a real container.
#[derive(Debug, Clone)]
pub enum ReplicaAttrs {
    /// A channel replica.
    Channel(ChannelAttrs),
    /// A queue replica.
    Queue(QueueAttrs),
}

/// Follower-side state for one replicated resource.
#[derive(Debug, Clone)]
pub struct ReplicaState {
    /// The address space that owns the live container.
    pub primary: AsId,
    /// The container's registered name, if any.
    pub name: Option<String>,
    /// Creation attributes, replayed on promotion.
    pub attrs: ReplicaAttrs,
    /// Replicated items: `ts → (tag, payload)`. For queues the map holds
    /// every unreclaimed put (FIFO order restored by timestamp).
    pub items: BTreeMap<i64, (u32, Bytes)>,
}

/// The passive replica map one address space keeps on behalf of its
/// peers. All methods are cheap; `ReplicatePut` appends happen on the
/// executor path.
#[derive(Debug, Default)]
pub struct ReplicaStore {
    map: Mutex<HashMap<ResourceId, ReplicaState>>,
}

impl ReplicaStore {
    /// Opens (or reopens — idempotently) a replica for `resource`.
    pub fn open(&self, resource: ResourceId, name: Option<String>, attrs: ReplicaAttrs) {
        let mut map = self.map.lock();
        map.entry(resource).or_insert_with(|| ReplicaState {
            primary: resource.owner(),
            name,
            attrs,
            items: BTreeMap::new(),
        });
    }

    /// Appends replicated items and prunes everything at or below the
    /// primary's floor ([`Timestamp::MAX`] prunes everything: nothing
    /// replicated so far is still live on the primary).
    ///
    /// # Errors
    ///
    /// [`StmError::NoSuchResource`] when no replica is open for
    /// `resource` (e.g. this node restarted); the primary answers by
    /// re-opening and retrying.
    pub fn append(
        &self,
        resource: ResourceId,
        floor: Timestamp,
        items: &[BatchPutItem],
    ) -> Result<(), StmError> {
        let mut map = self.map.lock();
        let state = map.get_mut(&resource).ok_or(StmError::NoSuchResource)?;
        for item in items {
            state
                .items
                .insert(item.ts.value(), (item.tag, item.payload.clone()));
        }
        if floor == Timestamp::MAX {
            state.items.clear();
        } else if floor.value() > i64::MIN {
            state.items = state.items.split_off(&(floor.value() + 1));
        }
        while state.items.len() > REPLICA_ITEM_CAP {
            let oldest = *state.items.keys().next().expect("nonempty over cap");
            state.items.remove(&oldest);
        }
        Ok(())
    }

    /// Removes and returns every replica whose primary is `peer` —
    /// the seal step of failover promotion. Once taken the replicas
    /// stop accepting appends (`NoSuchResource`), so a zombie primary
    /// cannot mutate a promoted container's past.
    #[must_use]
    pub fn take_replicas_of(&self, peer: AsId) -> Vec<(ResourceId, ReplicaState)> {
        let mut map = self.map.lock();
        let doomed: Vec<ResourceId> = map
            .iter()
            .filter(|(_, s)| s.primary == peer)
            .map(|(r, _)| *r)
            .collect();
        let mut out: Vec<(ResourceId, ReplicaState)> = doomed
            .into_iter()
            .filter_map(|r| map.remove(&r).map(|s| (r, s)))
            .collect();
        out.sort_by_key(|(r, _)| *r);
        out
    }

    /// `(resource, primary, buffered items)` for every open replica —
    /// the follower half of the CLI placement map.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(ResourceId, AsId, usize)> {
        let map = self.map.lock();
        let mut out: Vec<_> = map
            .iter()
            .map(|(r, s)| (*r, s.primary, s.items.len()))
            .collect();
        out.sort_by_key(|(r, _, _)| *r);
        out
    }
}

/// One buffered put event awaiting replication.
struct Pending {
    resource: ResourceId,
    ts: Timestamp,
    tag: u32,
    payload: Bytes,
}

/// Where a resource's replica lives and how to (re)open it.
struct Route {
    follower: AsId,
    open: Request,
}

struct ReplicatorState {
    window: VecDeque<Pending>,
    routes: HashMap<ResourceId, Route>,
    /// `ReplicaOpen*` requests not yet delivered, performed by the pump:
    /// the executor path may run on the CLF receive thread, which must
    /// never block on its own peer RPC.
    opens: VecDeque<(AsId, Request)>,
    /// Replicated queues that consumed an item since their last ship:
    /// their follower is owed a higher floor even without new puts.
    floors: HashSet<ResourceId>,
    /// Followers that answered a replication RPC with "unhandled
    /// request": old peers. Routes to them are retired.
    incapable: HashSet<AsId>,
    /// True from the moment work arrives for an idle pump until a ship
    /// round has drained the window, opens and floors to empty — the
    /// window alone understates the backlog (`lag` drops before the
    /// follower acks), so quiescence checks read this instead.
    armed: bool,
    acked: u64,
}

/// The primary-side replication pump for one address space.
pub struct Replicator {
    space: Weak<AddressSpace>,
    state: Mutex<ReplicatorState>,
    wake: Condvar,
    down: AtomicBool,
    /// The pump thread, when not running on a reactor.
    worker: Mutex<Option<JoinHandle<()>>>,
    /// In reactor mode each ship round is a timer-wheel linger plus an
    /// offloaded drain, spawned when work arrives; nothing runs idle.
    reactor: Option<crate::reactor::Reactor>,
    /// Metric handles resolved once at start: [`Replicator::enqueue`] is
    /// on the accepted-put hot path and must not pay registry lookups.
    lag_gauge: Arc<dstampede_obs::Gauge>,
    node_lag_gauge: Arc<dstampede_obs::Gauge>,
    dropped_counter: Arc<dstampede_obs::Counter>,
    acked_counter: Arc<dstampede_obs::Counter>,
    lost_counter: Arc<dstampede_obs::Counter>,
}

impl std::fmt::Debug for Replicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("Replicator")
            .field("window", &st.window.len())
            .field("routes", &st.routes.len())
            .field("acked", &st.acked)
            .finish()
    }
}

impl Replicator {
    /// Creates the replicator for `space` and starts its pump thread.
    #[must_use]
    pub fn start(space: &Arc<AddressSpace>) -> Arc<Self> {
        let repl = Replicator::new(space, None);
        let r2 = Arc::clone(&repl);
        let handle = std::thread::Builder::new()
            .name(format!("as-{}-repl", space.id().0))
            .spawn(move || r2.pump())
            .expect("spawn replicator");
        *repl.worker.lock() = Some(handle);
        repl
    }

    /// Creates the replicator for `space` on a reactor: no pump thread.
    /// Work arriving at an idle replicator spawns one ship round — a
    /// linger on the timer wheel, then the blocking ship (peer RPC) on
    /// an offload thread, which drains the window to empty before
    /// retiring — so heavy backlogs still ship at full speed while an
    /// idle replicator holds no thread and no timer.
    #[must_use]
    pub fn start_reactor(
        space: &Arc<AddressSpace>,
        reactor: &crate::reactor::Reactor,
    ) -> Arc<Self> {
        Replicator::new(space, Some(reactor.clone()))
    }

    fn new(space: &Arc<AddressSpace>, reactor: Option<crate::reactor::Reactor>) -> Arc<Self> {
        let metrics = space.metrics();
        let node = format!("as-{}", space.id().0);
        Arc::new(Replicator {
            space: Arc::downgrade(space),
            state: Mutex::new(ReplicatorState {
                window: VecDeque::new(),
                routes: HashMap::new(),
                opens: VecDeque::new(),
                floors: HashSet::new(),
                incapable: HashSet::new(),
                armed: false,
                acked: 0,
            }),
            wake: Condvar::new(),
            down: AtomicBool::new(false),
            worker: Mutex::new(None),
            reactor,
            lag_gauge: metrics.gauge("repl", "lag"),
            node_lag_gauge: metrics.gauge_labeled("repl", "node_lag", &[("node", &node)]),
            dropped_counter: metrics.counter("repl", "window_dropped"),
            acked_counter: metrics.counter("repl", "acked"),
            lost_counter: metrics.counter("repl", "lost"),
        })
    }

    /// Registers `resource` as replicated to `follower` and schedules the
    /// `ReplicaOpen*` request (delivered by the pump — the caller may be
    /// the CLF receive thread, which must not block on its own peer RPC;
    /// `open` is also replayed if the follower later loses the replica).
    pub fn track(self: &Arc<Self>, resource: ResourceId, follower: AsId, open: Request) {
        let mut st = self.state.lock();
        if st.incapable.contains(&follower) {
            return;
        }
        st.opens.push_back((follower, open.clone()));
        st.routes.insert(resource, Route { follower, open });
        let kick = !std::mem::replace(&mut st.armed, true);
        drop(st);
        // Advertise the route for placement tooling (`dstampede-cli
        // placement` joins these against the name server's entries).
        if let Some(space) = self.space.upgrade() {
            space
                .metrics()
                .gauge_labeled("repl", "follower", &[("resource", &resource.to_string())])
                .set(i64::from(follower.0));
        }
        if kick {
            self.kick();
        } else {
            // A lingering pump ships opens without waiting out the linger.
            self.wake.notify_one();
        }
    }

    /// The follower for `resource`, if it is being replicated.
    #[must_use]
    pub fn follower_of(&self, resource: ResourceId) -> Option<AsId> {
        self.state.lock().routes.get(&resource).map(|r| r.follower)
    }

    /// `(resource, follower)` for every replicated resource — the
    /// primary half of the CLI placement map.
    #[must_use]
    pub fn routes(&self) -> Vec<(ResourceId, AsId)> {
        let st = self.state.lock();
        let mut out: Vec<_> = st
            .routes
            .iter()
            .map(|(r, route)| (*r, route.follower))
            .collect();
        out.sort_by_key(|(r, _)| *r);
        out
    }

    /// Unacked events currently buffered (the replication lag).
    #[must_use]
    pub fn lag(&self) -> usize {
        self.state.lock().window.len()
    }

    /// True when nothing is buffered and no ship round is pending or
    /// running — i.e. everything accepted so far has been shipped (or
    /// written off), floors included. `lag() == 0` alone only means the
    /// window was *drained*; the batch may still be in flight to the
    /// follower.
    #[must_use]
    pub fn quiesced(&self) -> bool {
        !self.state.lock().armed
    }

    /// The put-hook entry: buffers an accepted put for replication.
    /// A full window drops its oldest event (bounded loss, never
    /// backpressure on the put path).
    ///
    /// Hooks only exist on containers the placed-create path routed, so
    /// no route lookup happens here — [`Replicator::ship`] discards the
    /// rare event whose route was retired (downgrade) after buffering.
    pub fn enqueue(self: &Arc<Self>, ev: PutEvent) {
        let mut st = self.state.lock();
        st.window.push_back(Pending {
            resource: ev.resource,
            ts: ev.ts,
            tag: ev.tag,
            payload: ev.payload,
        });
        if st.window.len() > REPLICATION_WINDOW {
            st.window.pop_front();
            self.dropped_counter.inc();
        }
        let lag = st.window.len() as i64;
        let kick = !std::mem::replace(&mut st.armed, true);
        drop(st);
        // Only the put that finds the pump idle wakes it; puts during
        // its linger or ship round ride along. Gauge publication is
        // throttled to transitions — the pump republishes on every
        // ship, and the recorder samples coarser than that anyway.
        if kick {
            self.kick();
        }
        if lag == 1 {
            self.publish_lag(1);
        } else if lag & 0x3ff == 0 {
            self.publish_lag(lag);
        }
    }

    /// The garbage-hook entry of a replicated queue: an item was
    /// consumed, so the follower may prune further. Ships a floor-only
    /// `ReplicatePut` in the next round if no put carries it first.
    pub fn note_floor(self: &Arc<Self>, resource: ResourceId) {
        let mut st = self.state.lock();
        if !st.floors.insert(resource) {
            return;
        }
        let kick = !std::mem::replace(&mut st.armed, true);
        drop(st);
        if kick {
            self.kick();
        }
    }

    /// Starts a ship round for an idle replicator.
    fn kick(self: &Arc<Self>) {
        match &self.reactor {
            None => self.wake.notify_one(),
            Some(reactor) => {
                let r = reactor.clone();
                let repl = Arc::clone(self);
                reactor.spawn(async move {
                    r.sleep(REPLICATE_LINGER).await;
                    if !repl.down.load(Ordering::SeqCst) {
                        drop(r.run_blocking("repl-ship", move || repl.drain()));
                    }
                });
            }
        }
    }

    /// Stops the pump (idempotent). Buffered events are dropped.
    pub fn stop(&self) {
        self.down.store(true, Ordering::SeqCst);
        self.wake.notify_all();
        if let Some(handle) = self.worker.lock().take() {
            let _ = handle.join();
        }
    }

    /// The pump thread: sleeps until work arrives, lingers so a partial
    /// batch can fill (cut short by a full batch, opens, or stop), then
    /// ships until everything is drained.
    fn pump(self: &Arc<Self>) {
        loop {
            {
                let mut st = self.state.lock();
                while !st.armed && !self.down.load(Ordering::SeqCst) {
                    self.wake.wait(&mut st);
                }
                let until = std::time::Instant::now() + REPLICATE_LINGER;
                while st.window.len() < REPLICATE_BATCH
                    && st.opens.is_empty()
                    && !self.down.load(Ordering::SeqCst)
                {
                    if self.wake.wait_until(&mut st, until).timed_out() {
                        break;
                    }
                }
            }
            if self.down.load(Ordering::SeqCst) {
                return;
            }
            self.drain();
        }
    }

    /// One ship round: batches until the window, opens and floors are
    /// empty, then disarms — atomically with the emptiness check, so
    /// work arriving afterwards kicks a new round.
    fn drain(self: &Arc<Self>) {
        loop {
            let (opens, batch, floors) = {
                let mut st = self.state.lock();
                if self.down.load(Ordering::SeqCst)
                    || (st.window.is_empty() && st.opens.is_empty() && st.floors.is_empty())
                {
                    st.armed = false;
                    let lag = st.window.len() as i64;
                    drop(st);
                    self.publish_lag(lag);
                    return;
                }
                let n = st.window.len().min(REPLICATE_BATCH);
                (
                    st.opens.drain(..).collect::<Vec<_>>(),
                    st.window.drain(..n).collect::<Vec<_>>(),
                    st.floors.drain().collect::<Vec<_>>(),
                )
            };
            self.deliver_opens(opens);
            self.ship(batch, floors);
            self.publish_lag(self.lag() as i64);
        }
    }

    /// Publishes the replication lag both as the plain per-space gauge
    /// (fed into the flight recorder's `repl` health subject) and
    /// labeled by node, so a merged cluster snapshot keeps per-primary
    /// attribution.
    fn publish_lag(&self, lag: i64) {
        self.lag_gauge.set(lag);
        self.node_lag_gauge.set(lag);
    }

    /// Delivers scheduled `ReplicaOpen*` requests. An old peer answering
    /// "unhandled request" is downgraded (routes retired); any other
    /// failure is left to [`Replicator::ship`]'s reopen-and-retry path.
    fn deliver_opens(self: &Arc<Self>, opens: Vec<(AsId, Request)>) {
        let Some(space) = self.space.upgrade() else {
            return;
        };
        for (follower, open) in opens {
            if self.state.lock().incapable.contains(&follower) {
                continue;
            }
            match space.call(follower, open) {
                Ok(Reply::Ok) => {}
                Err(StmError::Protocol(msg)) if msg.contains("unhandled request") => {
                    dstampede_obs::warn(
                        "repl",
                        format!(
                            "as-{} lacks replication RPCs; disabling replication to it",
                            follower.0
                        ),
                    );
                    self.downgrade(&space, follower);
                }
                Ok(other) => dstampede_obs::warn(
                    "repl",
                    format!(
                        "unexpected reply opening replica on as-{}: {other:?}",
                        follower.0
                    ),
                ),
                Err(e) => dstampede_obs::warn(
                    "repl",
                    format!("failed to open replica on as-{}: {e}", follower.0),
                ),
            }
        }
    }

    /// Marks `follower` as an old peer without the replication RPCs and
    /// retires every route through it, clearing the advertised placement
    /// gauges so tooling stops showing a follower that isn't one.
    fn downgrade(&self, space: &Arc<AddressSpace>, follower: AsId) {
        let mut st = self.state.lock();
        st.incapable.insert(follower);
        let retired: Vec<ResourceId> = st
            .routes
            .iter()
            .filter(|(_, r)| r.follower == follower)
            .map(|(res, _)| *res)
            .collect();
        st.routes.retain(|_, r| r.follower != follower);
        drop(st);
        for resource in retired {
            space
                .metrics()
                .gauge_labeled("repl", "follower", &[("resource", &resource.to_string())])
                .set(-1);
        }
    }

    /// Groups a drained batch by resource and ships each group to its
    /// follower, preserving per-resource order; `floors` adds a
    /// floor-only frame for each resource the batch does not cover.
    fn ship(self: &Arc<Self>, batch: Vec<Pending>, floors: Vec<ResourceId>) {
        let Some(space) = self.space.upgrade() else {
            return;
        };
        let mut groups: Vec<(ResourceId, Vec<BatchPutItem>)> = Vec::new();
        for p in batch {
            let item = BatchPutItem {
                ts: p.ts,
                tag: p.tag,
                payload: p.payload,
                trace: None,
            };
            match groups.iter_mut().find(|(r, _)| *r == p.resource) {
                Some((_, items)) => items.push(item),
                None => groups.push((p.resource, vec![item])),
            }
        }
        for resource in floors {
            if !groups.iter().any(|(r, _)| *r == resource) {
                groups.push((resource, Vec::new()));
            }
        }
        for (resource, items) in groups {
            let n = items.len() as u64;
            let Some((follower, open)) = ({
                let st = self.state.lock();
                st.routes
                    .get(&resource)
                    .map(|r| (r.follower, r.open.clone()))
            }) else {
                continue; // route retired mid-flight
            };
            // Computed now, after the batch was drained: every item in it
            // is either still live (so above the floor) or consumed.
            let floor = match resource {
                ResourceId::Channel(chan) => space
                    .registry()
                    .channel(chan)
                    .map(|c| c.gc_floor())
                    .unwrap_or(Timestamp::MIN),
                // One below the lowest unconsumed item: several items
                // may share a timestamp, and that one must stay.
                ResourceId::Queue(q) => match space.registry().queue(q) {
                    Ok(queue) => queue.lowest_unconsumed_ts().map_or(Timestamp::MAX, |ts| {
                        Timestamp::new(ts.value().saturating_sub(1))
                    }),
                    Err(_) => Timestamp::MIN,
                },
            };
            let req = Request::ReplicatePut {
                resource,
                floor,
                items,
            };
            match space.call(follower, req.clone()) {
                Ok(Reply::Ok) => {
                    self.state.lock().acked += n;
                    self.acked_counter.add(n);
                }
                Ok(Reply::Error { code, .. }) if code == StmError::NoSuchResource.code() => {
                    // Follower lost the replica (restart): reopen, retry once.
                    let reopened = matches!(space.call(follower, open), Ok(Reply::Ok));
                    if reopened && matches!(space.call(follower, req), Ok(Reply::Ok)) {
                        self.state.lock().acked += n;
                        self.acked_counter.add(n);
                    } else {
                        self.lost_counter.add(n);
                    }
                }
                Err(StmError::Protocol(msg)) if msg.contains("unhandled request") => {
                    // Old peer without replication support: retire every
                    // route through it (singleton downgrade).
                    dstampede_obs::warn(
                        "repl",
                        format!(
                            "as-{} lacks replication RPCs; disabling replication to it",
                            follower.0
                        ),
                    );
                    self.downgrade(&space, follower);
                    self.lost_counter.add(n);
                }
                Ok(_) | Err(_) => {
                    // Dead or unreachable follower: these events are the
                    // "unacked window" the durability table writes off.
                    self.lost_counter.add(n);
                }
            }
        }
    }
}

impl Drop for Replicator {
    fn drop(&mut self) {
        self.down.store(true, Ordering::SeqCst);
        self.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstampede_core::ChanId;

    fn chan(owner: u16, index: u32) -> ResourceId {
        ResourceId::Channel(ChanId {
            owner: AsId(owner),
            index,
        })
    }

    fn item(ts: i64, tag: u32, payload: &'static [u8]) -> BatchPutItem {
        BatchPutItem {
            ts: Timestamp::new(ts),
            tag,
            payload: Bytes::from_static(payload),
            trace: None,
        }
    }

    #[test]
    fn append_requires_open() {
        let store = ReplicaStore::default();
        assert_eq!(
            store.append(chan(1, 0), Timestamp::MIN, &[item(1, 0, b"x")]),
            Err(StmError::NoSuchResource)
        );
        store.open(
            chan(1, 0),
            None,
            ReplicaAttrs::Channel(ChannelAttrs::default()),
        );
        store
            .append(chan(1, 0), Timestamp::MIN, &[item(1, 0, b"x")])
            .unwrap();
        assert_eq!(store.snapshot(), vec![(chan(1, 0), AsId(1), 1)]);
    }

    #[test]
    fn reopen_is_idempotent() {
        let store = ReplicaStore::default();
        store.open(
            chan(1, 0),
            Some("a".into()),
            ReplicaAttrs::Channel(ChannelAttrs::default()),
        );
        store
            .append(chan(1, 0), Timestamp::MIN, &[item(5, 1, b"keep")])
            .unwrap();
        store.open(
            chan(1, 0),
            Some("a".into()),
            ReplicaAttrs::Channel(ChannelAttrs::default()),
        );
        assert_eq!(store.snapshot(), vec![(chan(1, 0), AsId(1), 1)]);
    }

    #[test]
    fn floor_prunes_reclaimed_items() {
        let store = ReplicaStore::default();
        store.open(
            chan(2, 3),
            None,
            ReplicaAttrs::Channel(ChannelAttrs::default()),
        );
        store
            .append(
                chan(2, 3),
                Timestamp::MIN,
                &[item(1, 0, b"a"), item(2, 0, b"b"), item(3, 0, b"c")],
            )
            .unwrap();
        store.append(chan(2, 3), Timestamp::new(2), &[]).unwrap();
        assert_eq!(store.snapshot(), vec![(chan(2, 3), AsId(2), 1)]);
        let taken = store.take_replicas_of(AsId(2));
        assert_eq!(taken.len(), 1);
        assert_eq!(
            taken[0].1.items.keys().copied().collect::<Vec<_>>(),
            vec![3]
        );
    }

    #[test]
    fn queue_floor_prunes_consumed_items_only() {
        let q = ResourceId::Queue(dstampede_core::QueueId {
            owner: AsId(3),
            index: 0,
        });
        let store = ReplicaStore::default();
        store.open(q, None, ReplicaAttrs::Queue(QueueAttrs::default()));
        store
            .append(
                q,
                Timestamp::MIN,
                &[
                    item(1, 0, b"a"),
                    item(2, 0, b"b"),
                    item(3, 0, b"c"),
                    item(4, 0, b"d"),
                ],
            )
            .unwrap();
        // 1 and 2 consumed, 3 the lowest still unconsumed: the primary
        // ships one below it, so 3 survives even if a consumed item
        // shared its timestamp.
        store.append(q, Timestamp::new(2), &[]).unwrap();
        assert_eq!(store.snapshot(), vec![(q, AsId(3), 2)]);
        // A later batch with a floor below items already held keeps them.
        store
            .append(q, Timestamp::new(2), &[item(5, 0, b"e")])
            .unwrap();
        assert_eq!(store.snapshot(), vec![(q, AsId(3), 3)]);
        // Nothing unconsumed on the primary: the replica empties.
        store.append(q, Timestamp::MAX, &[]).unwrap();
        assert_eq!(store.snapshot(), vec![(q, AsId(3), 0)]);
    }

    #[test]
    fn take_seals_the_replica() {
        let store = ReplicaStore::default();
        store.open(
            chan(4, 0),
            None,
            ReplicaAttrs::Channel(ChannelAttrs::default()),
        );
        store.open(
            chan(5, 0),
            None,
            ReplicaAttrs::Channel(ChannelAttrs::default()),
        );
        let taken = store.take_replicas_of(AsId(4));
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].0, chan(4, 0));
        // Sealed: a straggling append from the dead primary is rejected.
        assert_eq!(
            store.append(chan(4, 0), Timestamp::MIN, &[item(9, 0, b"z")]),
            Err(StmError::NoSuchResource)
        );
        // The other primary's replica is untouched.
        assert_eq!(store.snapshot(), vec![(chan(5, 0), AsId(5), 0)]);
    }

    #[test]
    fn replayed_append_overwrites_idempotently() {
        let store = ReplicaStore::default();
        store.open(chan(1, 1), None, ReplicaAttrs::Queue(QueueAttrs::default()));
        let batch = [item(7, 2, b"dup")];
        store.append(chan(1, 1), Timestamp::MIN, &batch).unwrap();
        store.append(chan(1, 1), Timestamp::MIN, &batch).unwrap();
        assert_eq!(store.snapshot(), vec![(chan(1, 1), AsId(1), 1)]);
    }
}
