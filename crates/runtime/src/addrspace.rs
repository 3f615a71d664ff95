//! Address spaces: the unit of distribution.
//!
//! A D-Stampede computation is a set of *address spaces* ("the server
//! program creates multiple address spaces N₁ … N_k in the cluster", paper
//! §4), each owning a registry of channels and queues and connected to its
//! peers by CLF. Operations arriving from other address spaces run on the
//! CLF endpoint's receive thread, which must never block: a wait whose
//! wakeup is local (a `get` waiting for an item on a container hosted
//! here) parks on the container's waker set and is answered by whichever
//! thread wakes it (see `parked.rs`); only waits with no local
//! wakeup source — blocking batch puts, cluster-wide pulls — get a
//! short-lived worker thread. The original system gave every blocking
//! operation a thread instead.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{bounded, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use dstampede_clf::{ClfError, ClfHandler, ClfTransport, TransportStats};
use dstampede_core::gc::{GcSummary, MinFloorAggregator};
use dstampede_core::thread::ThreadRegistry;
use dstampede_core::VirtualTime;
use dstampede_core::{
    AsId, ChanId, Channel, ChannelAttrs, Item, Queue, QueueAttrs, QueueId, ResourceId, StmError,
    StmRegistry, StmResult, Timestamp,
};
use dstampede_obs::{
    trace, HealthEngine, HealthPolicy, HealthReport, HealthState, HistoryDump, HistoryRecorder,
    MetricsRegistry, Snapshot, SpanKind, TraceContext, TraceDump,
};
use dstampede_wire::{NsEntry, Reply, ReplyFrame, Request, RequestFrame, WaitSpec};

use crate::exec::{execute, is_blocking, shim_plan, wait_of, ConnTable, ShimPlan};
use crate::failure::RpcConfig;
use crate::nameserver::NameServer;
use crate::parked::{ParkedRequest, RequestTimers};
use crate::placement::{self, Placement};
use crate::proto::{self, AsMessage, NO_REPLY};
use crate::proxy::{wait_to_timeout, ChannelRef, QueueRef};
use crate::recorder::RecorderConfig;
use crate::replicate::{ReplicaAttrs, ReplicaStore, Replicator};

/// A call awaiting its reply: the reply channel plus the destination, so
/// a peer-death declaration can fail exactly the calls bound for that
/// peer.
struct PendingCall {
    tx: Sender<ReplyFrame>,
    dst: AsId,
}

/// One address space of a D-Stampede computation.
pub struct AddressSpace {
    id: AsId,
    registry: Arc<StmRegistry>,
    threads: Arc<ThreadRegistry>,
    transport: Arc<dyn ClfTransport>,
    nameserver: Option<Arc<NameServer>>,
    pending: Mutex<HashMap<u64, PendingCall>>,
    next_seq: AtomicU64,
    next_req_id: AtomicU64,
    conns: Arc<ConnTable>,
    /// Blocking requests from peers parked on local wakeup sources.
    parked: Mutex<HashMap<u64, Arc<ParkedRequest>>>,
    next_park: AtomicU64,
    /// `TimeoutMs` deadlines of parked requests, advanced by the CLF
    /// receive loop.
    timers: Arc<RequestTimers>,
    parked_gauge: Arc<dstampede_obs::Gauge>,
    offloaded_counter: Arc<dstampede_obs::Counter>,
    down: AtomicBool,
    gc_agg: Mutex<MinFloorAggregator>,
    gc_epochs: AtomicU64,
    metrics: Arc<MetricsRegistry>,
    peers: Mutex<Vec<AsId>>,
    last_heard: Mutex<HashMap<AsId, Instant>>,
    dead_peers: Mutex<HashSet<AsId>>,
    rpc: Mutex<RpcConfig>,
    /// Peers known NOT to understand the batched put/get frames; the proxy
    /// layer downgrades batches to singleton frames for them.
    batch_incapable: Mutex<HashSet<AsId>>,
    /// Peers known NOT to understand the flight-recorder pulls
    /// ([`Request::HistoryPull`]/[`Request::HealthPull`]); the cluster
    /// fan-outs skip them instead of erroring.
    recorder_incapable: Mutex<HashSet<AsId>>,
    /// The flight recorder's per-series sample rings.
    history: HistoryRecorder,
    /// Derived per-peer/per-resource health, behind a mutex so
    /// [`AddressSpace::set_health_policy`] can swap hysteresis before
    /// the first tick.
    health: Mutex<Arc<HealthEngine>>,
    /// Ticks recorded so far (the health engine's clock).
    recorder_ticks: AtomicU64,
    /// Transport counters at the previous tick, for per-tick deltas.
    prev_transport: Mutex<TransportStats>,
    /// Abnormal session-teardown count (dirty + lease-expired) at the
    /// previous tick, for the `sessions` churn subject's delta.
    prev_session_teardowns: Mutex<u64>,
    /// Where placed creates (end-device `ChannelCreate`/`QueueCreate`)
    /// land: hashed over live members, or the paper's creator-local.
    placement: Mutex<Placement>,
    /// Whether hosted containers are replicated to a follower.
    replication: AtomicBool,
    /// Replicas this space keeps on behalf of its peers.
    replicas: Arc<ReplicaStore>,
    /// The primary-side replication pump, started on demand.
    replicator: Mutex<Option<Arc<Replicator>>>,
    /// Failover adoptions performed here: dead primary's resource → the
    /// promoted local resource.
    promotions: Mutex<HashMap<ResourceId, ResourceId>>,
    /// Per-creation nonce feeding anonymous-resource placement keys.
    create_nonce: AtomicU64,
    /// Event-driven runtime handle, when the cluster runs in reactor
    /// mode. Lazily-started services (the replication pump) clock
    /// themselves on its timer wheel instead of spawning threads.
    reactor: Mutex<Option<crate::reactor::Reactor>>,
}

impl AddressSpace {
    /// Starts an address space on a transport. The address space's id is
    /// the transport's local id; pass `host_nameserver = true` for exactly
    /// one address space per computation (conventionally
    /// [`AsId::NAMESERVER`]).
    #[must_use]
    pub fn start(transport: Arc<dyn ClfTransport>, host_nameserver: bool) -> Arc<Self> {
        let id = transport.local();
        let metrics = Arc::new(MetricsRegistry::new(&format!("as-{}", id.0)));
        transport.bind_metrics(&metrics);
        let space = Arc::new(AddressSpace {
            id,
            registry: StmRegistry::with_metrics(id, Arc::clone(&metrics)),
            threads: ThreadRegistry::new(),
            transport,
            nameserver: host_nameserver.then(|| Arc::new(NameServer::new())),
            pending: Mutex::new(HashMap::new()),
            next_seq: AtomicU64::new(1),
            next_req_id: AtomicU64::new(1),
            conns: Arc::new(ConnTable::new()),
            parked: Mutex::new(HashMap::new()),
            next_park: AtomicU64::new(1),
            timers: Arc::new(RequestTimers::new()),
            parked_gauge: metrics.gauge("rpc", "remote_parked"),
            offloaded_counter: metrics.counter("rpc", "remote_offloaded"),
            down: AtomicBool::new(false),
            gc_agg: Mutex::new(MinFloorAggregator::new()),
            gc_epochs: AtomicU64::new(0),
            metrics,
            peers: Mutex::new(Vec::new()),
            last_heard: Mutex::new(HashMap::new()),
            dead_peers: Mutex::new(HashSet::new()),
            rpc: Mutex::new(RpcConfig::default()),
            batch_incapable: Mutex::new(HashSet::new()),
            recorder_incapable: Mutex::new(HashSet::new()),
            history: HistoryRecorder::new(dstampede_obs::DEFAULT_HISTORY_CAPACITY),
            health: Mutex::new(Arc::new(HealthEngine::new(HealthPolicy::default()))),
            recorder_ticks: AtomicU64::new(0),
            prev_transport: Mutex::new(TransportStats::default()),
            prev_session_teardowns: Mutex::new(0),
            placement: Mutex::new(Placement::default()),
            replication: AtomicBool::new(false),
            replicas: Arc::new(ReplicaStore::default()),
            replicator: Mutex::new(None),
            promotions: Mutex::new(HashMap::new()),
            create_nonce: AtomicU64::new(1),
            reactor: Mutex::new(None),
        });
        space.transport.set_handler(Arc::new(Inbound {
            space: Arc::downgrade(&space),
            timers: Arc::clone(&space.timers),
        }));
        space
    }

    /// This address space's id.
    #[must_use]
    pub fn id(&self) -> AsId {
        self.id
    }

    /// The container registry this address space owns.
    #[must_use]
    pub fn registry(&self) -> &Arc<StmRegistry> {
        &self.registry
    }

    /// The thread registry of this address space.
    #[must_use]
    pub fn threads(&self) -> &Arc<ThreadRegistry> {
        &self.threads
    }

    /// The CLF transport connecting this address space to its peers.
    #[must_use]
    pub fn transport(&self) -> &Arc<dyn ClfTransport> {
        &self.transport
    }

    /// The name server, when hosted here.
    #[must_use]
    pub fn nameserver(&self) -> Option<&Arc<NameServer>> {
        self.nameserver.as_ref()
    }

    /// Creates a channel owned by this address space.
    pub fn create_channel(&self, name: Option<String>, attrs: ChannelAttrs) -> Arc<Channel> {
        self.registry.create_channel(name, attrs)
    }

    /// Creates a queue owned by this address space.
    pub fn create_queue(&self, name: Option<String>, attrs: QueueAttrs) -> Arc<Queue> {
        self.registry.create_queue(name, attrs)
    }

    /// Sets the placement policy for placed creates (the cluster builder
    /// applies this to every member).
    pub fn set_placement(&self, placement: Placement) {
        *self.placement.lock() = placement;
    }

    /// The current placement policy.
    #[must_use]
    pub fn placement(&self) -> Placement {
        *self.placement.lock()
    }

    /// Hands this space a reactor: subsequently-started background
    /// services (the replication pump) run as timer-wheel tasks on it.
    pub fn set_reactor(&self, reactor: crate::reactor::Reactor) {
        *self.reactor.lock() = Some(reactor);
    }

    /// The reactor this space runs on, in reactor mode.
    #[must_use]
    pub fn reactor(&self) -> Option<crate::reactor::Reactor> {
        self.reactor.lock().clone()
    }

    /// Enables or disables replication of containers hosted here.
    pub fn set_replication(&self, on: bool) {
        self.replication.store(on, Ordering::SeqCst);
    }

    /// Whether hosted containers are replicated to a follower.
    #[must_use]
    pub fn replication_enabled(&self) -> bool {
        self.replication.load(Ordering::SeqCst)
    }

    /// The replicas this space keeps on behalf of its peers.
    #[must_use]
    pub fn replicas(&self) -> &Arc<ReplicaStore> {
        &self.replicas
    }

    /// The replication pump, if any puts have been replicated from here.
    #[must_use]
    pub fn replicator(&self) -> Option<Arc<Replicator>> {
        self.replicator.lock().clone()
    }

    /// The promoted local resource adopted for `resource` after its
    /// primary died, if this space performed that promotion.
    #[must_use]
    pub fn promotion_of(&self, resource: ResourceId) -> Option<ResourceId> {
        self.promotions.lock().get(&resource).copied()
    }

    /// Follows the failover pointer for a resource whose owner died:
    /// first this space's own promotions, then the name server's
    /// synthetic `promoted:<resource>` registration. `None` when no
    /// promotion happened (the resource was unreplicated, or its items
    /// died with the primary).
    #[must_use]
    pub fn resolve_failover(self: &Arc<Self>, resource: ResourceId) -> Option<ResourceId> {
        if let Some(new) = self.promotion_of(resource) {
            return Some(new);
        }
        match self.ns_lookup(&format!("promoted:{resource}")) {
            Ok((new, _)) => Some(new),
            Err(_) => None,
        }
    }

    /// Members not declared dead, in id order (placement's domain).
    #[must_use]
    pub fn live_members(&self) -> Vec<AsId> {
        let dead = self.dead_peers.lock();
        let mut live: Vec<AsId> = self
            .peers
            .lock()
            .iter()
            .copied()
            .filter(|p| !dead.contains(p))
            .collect();
        if live.is_empty() {
            live.push(self.id); // a solo space always hosts itself
        }
        live.sort_unstable_by_key(|m| m.0);
        live
    }

    /// Creates a channel wherever placement policy dictates: locally
    /// under [`Placement::CreatorLocal`], else on the live member that
    /// wins the rendezvous hash (which may still be this space).
    ///
    /// # Errors
    ///
    /// The remote creation's RPC error when the winner is another
    /// member and the call fails.
    pub fn create_channel_placed(
        self: &Arc<Self>,
        name: Option<String>,
        attrs: ChannelAttrs,
    ) -> StmResult<ChanId> {
        match self.placed_target(name.as_deref()) {
            Some(target) if target != self.id => {
                match self.call(target, Request::ChannelCreate { name, attrs })? {
                    Reply::Created {
                        resource: ResourceId::Channel(id),
                    } => Ok(id),
                    other => Err(StmError::Protocol(format!("unexpected reply {other:?}"))),
                }
            }
            _ => Ok(self.host_channel(name, attrs).id()),
        }
    }

    /// Queue counterpart of [`AddressSpace::create_channel_placed`].
    ///
    /// # Errors
    ///
    /// As [`AddressSpace::create_channel_placed`].
    pub fn create_queue_placed(
        self: &Arc<Self>,
        name: Option<String>,
        attrs: QueueAttrs,
    ) -> StmResult<QueueId> {
        match self.placed_target(name.as_deref()) {
            Some(target) if target != self.id => {
                match self.call(target, Request::QueueCreate { name, attrs })? {
                    Reply::Created {
                        resource: ResourceId::Queue(id),
                    } => Ok(id),
                    other => Err(StmError::Protocol(format!("unexpected reply {other:?}"))),
                }
            }
            _ => Ok(self.host_queue(name, attrs).id()),
        }
    }

    /// The member a new resource should land on, or `None` to create
    /// locally (creator-local policy, or nothing else alive).
    fn placed_target(&self, name: Option<&str>) -> Option<AsId> {
        if self.placement() == Placement::CreatorLocal {
            return None;
        }
        let nonce = self.create_nonce.fetch_add(1, Ordering::Relaxed);
        let key = placement::creation_key(name, self.id, nonce);
        placement::place(key, &self.live_members())
    }

    /// Creates a channel here as the terminal host: the container is
    /// local, and when replication is on it gains a follower replica and
    /// a put hook feeding the replication window.
    pub fn host_channel(
        self: &Arc<Self>,
        name: Option<String>,
        attrs: ChannelAttrs,
    ) -> Arc<Channel> {
        let chan = self.registry.create_channel(name.clone(), attrs);
        let resource = ResourceId::Channel(chan.id());
        if let Some(follower) = self.pick_follower(resource) {
            let open = Request::ReplicaOpenChannel {
                chan: chan.id(),
                name,
                attrs,
            };
            if self.open_replica(resource, follower, open) {
                let repl = self.replicator_handle();
                chan.add_put_hook(move |ev| repl.enqueue(ev));
            }
        }
        chan
    }

    /// Queue counterpart of [`AddressSpace::host_channel`].
    pub fn host_queue(self: &Arc<Self>, name: Option<String>, attrs: QueueAttrs) -> Arc<Queue> {
        let queue = self.registry.create_queue(name.clone(), attrs);
        let resource = ResourceId::Queue(queue.id());
        if let Some(follower) = self.pick_follower(resource) {
            let open = Request::ReplicaOpenQueue {
                queue: queue.id(),
                name,
                attrs,
            };
            if self.open_replica(resource, follower, open) {
                let repl = self.replicator_handle();
                let floors = Arc::clone(&repl);
                queue.add_put_hook(move |ev| repl.enqueue(ev));
                // A consumed item raises the floor the follower prunes
                // its replica to, so promotion never re-delivers it.
                queue.add_garbage_hook(move |_| floors.note_floor(resource));
            }
        }
        queue
    }

    /// The follower for a resource hosted here: the rendezvous winner
    /// among the *other* live members, or `None` when replication is off
    /// or this space is alone.
    fn pick_follower(&self, resource: ResourceId) -> Option<AsId> {
        if !self.replication_enabled() {
            return None;
        }
        let others: Vec<AsId> = self
            .live_members()
            .into_iter()
            .filter(|m| *m != self.id)
            .collect();
        placement::place(placement::resource_key(resource), &others)
    }

    /// Records the replication route and schedules the follower's
    /// `ReplicaOpen*` — delivered asynchronously by the replicator's pump,
    /// because this may run on the CLF receive thread (a forwarded
    /// create), which must never block on its own peer RPC. `false` only
    /// when the follower is already known incapable (an old peer).
    fn open_replica(self: &Arc<Self>, resource: ResourceId, follower: AsId, open: Request) -> bool {
        let repl = self.replicator_handle();
        repl.track(resource, follower, open);
        repl.follower_of(resource).is_some()
    }

    /// The replication pump, started on first use.
    fn replicator_handle(self: &Arc<Self>) -> Arc<Replicator> {
        let mut slot = self.replicator.lock();
        if let Some(repl) = slot.as_ref() {
            return Arc::clone(repl);
        }
        let repl = match self.reactor() {
            Some(reactor) => Replicator::start_reactor(self, &reactor),
            None => Replicator::start(self),
        };
        *slot = Some(Arc::clone(&repl));
        repl
    }

    /// Resolves a channel id into a location-transparent reference.
    ///
    /// # Errors
    ///
    /// [`StmError::NoSuchResource`] when the id is local but unknown.
    /// Remote ids resolve lazily: a dangling remote id fails at connect
    /// time instead.
    pub fn open_channel(self: &Arc<Self>, id: ChanId) -> StmResult<ChannelRef> {
        if id.owner == self.id {
            Ok(ChannelRef::local(self.registry.channel(id)?))
        } else {
            Ok(ChannelRef::remote(id, Arc::clone(self)))
        }
    }

    /// Resolves a queue id into a location-transparent reference.
    ///
    /// # Errors
    ///
    /// As [`AddressSpace::open_channel`].
    pub fn open_queue(self: &Arc<Self>, id: QueueId) -> StmResult<QueueRef> {
        if id.owner == self.id {
            Ok(QueueRef::local(self.registry.queue(id)?))
        } else {
            Ok(QueueRef::remote(id, Arc::clone(self)))
        }
    }

    /// Resolves either kind of resource id into a channel or queue
    /// reference pair (exactly one is `Some`).
    ///
    /// # Errors
    ///
    /// As [`AddressSpace::open_channel`].
    pub fn open_resource(
        self: &Arc<Self>,
        id: ResourceId,
    ) -> StmResult<(Option<ChannelRef>, Option<QueueRef>)> {
        match id {
            ResourceId::Channel(c) => Ok((Some(self.open_channel(c)?), None)),
            ResourceId::Queue(q) => Ok((None, Some(self.open_queue(q)?))),
        }
    }

    /// Spawns an OS thread registered with this address space's thread
    /// registry (the paper's dynamic thread creation). The thread's
    /// advisory virtual time feeds the distributed GC epoch reports; it is
    /// unregistered when the closure returns.
    pub fn spawn_thread<F, T>(self: &Arc<Self>, name: &str, f: F) -> std::thread::JoinHandle<T>
    where
        F: FnOnce(Arc<AddressSpace>, Arc<dstampede_core::thread::StThread>) -> T + Send + 'static,
        T: Send + 'static,
    {
        let space = Arc::clone(self);
        self.threads.spawn(name, move |thread| f(space, thread))
    }

    // ---- name-server access (local when hosted here, RPC otherwise) ----

    /// Registers a name with the computation's name server.
    ///
    /// # Errors
    ///
    /// [`StmError::NameExists`] on collision, [`StmError::Disconnected`]
    /// if the name-server address space is unreachable.
    pub fn ns_register(
        self: &Arc<Self>,
        name: &str,
        resource: ResourceId,
        meta: &str,
    ) -> StmResult<()> {
        if let Some(ns) = &self.nameserver {
            return ns.register(name, resource, meta);
        }
        match self.call(
            AsId::NAMESERVER,
            Request::NsRegister {
                name: name.to_owned(),
                resource,
                meta: meta.to_owned(),
            },
        )? {
            Reply::Ok => Ok(()),
            other => Err(StmError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Non-blocking name lookup.
    ///
    /// # Errors
    ///
    /// [`StmError::NameAbsent`] when unregistered.
    pub fn ns_lookup(self: &Arc<Self>, name: &str) -> StmResult<(ResourceId, String)> {
        if let Some(ns) = &self.nameserver {
            return ns.lookup(name);
        }
        match self.call(
            AsId::NAMESERVER,
            Request::NsLookup {
                name: name.to_owned(),
                wait: WaitSpec::NonBlocking,
            },
        )? {
            Reply::NsFound { resource, meta } => Ok((resource, meta)),
            other => Err(StmError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Blocking name lookup, waiting until registered (or up to `timeout`).
    ///
    /// # Errors
    ///
    /// [`StmError::Timeout`] on expiry.
    pub fn ns_lookup_wait(
        self: &Arc<Self>,
        name: &str,
        timeout: Option<Duration>,
    ) -> StmResult<(ResourceId, String)> {
        if let Some(ns) = &self.nameserver {
            return ns.lookup_wait(name, timeout);
        }
        let wait = match timeout {
            None => WaitSpec::Forever,
            Some(d) => WaitSpec::TimeoutMs(u32::try_from(d.as_millis()).unwrap_or(u32::MAX)),
        };
        match self.call(
            AsId::NAMESERVER,
            Request::NsLookup {
                name: name.to_owned(),
                wait,
            },
        )? {
            Reply::NsFound { resource, meta } => Ok((resource, meta)),
            other => Err(StmError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Removes a name registration.
    ///
    /// # Errors
    ///
    /// [`StmError::NameAbsent`] when unregistered.
    pub fn ns_unregister(self: &Arc<Self>, name: &str) -> StmResult<()> {
        if let Some(ns) = &self.nameserver {
            return ns.unregister(name);
        }
        match self.call(
            AsId::NAMESERVER,
            Request::NsUnregister {
                name: name.to_owned(),
            },
        )? {
            Reply::Ok => Ok(()),
            other => Err(StmError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Lists every name registration.
    ///
    /// # Errors
    ///
    /// [`StmError::Disconnected`] if the name-server address space is
    /// unreachable.
    pub fn ns_list(self: &Arc<Self>) -> StmResult<Vec<NsEntry>> {
        if let Some(ns) = &self.nameserver {
            return Ok(ns.list());
        }
        match self.call(AsId::NAMESERVER, Request::NsList)? {
            Reply::NsEntries { entries } => Ok(entries),
            other => Err(StmError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    // ---- telemetry ----

    /// The telemetry registry every subsystem of this address space
    /// (STM containers, GC, the CLF transport, surrogates) records into.
    #[must_use]
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Declares the full membership of the computation so a cluster-wide
    /// stats pull knows whom to ask. Usually called by the cluster
    /// builder; this address space's own id may be included (it is
    /// skipped during fan-out).
    pub fn set_peers(&self, peers: Vec<AsId>) {
        *self.peers.lock() = peers;
    }

    /// The declared computation membership.
    #[must_use]
    pub fn peers(&self) -> Vec<AsId> {
        self.peers.lock().clone()
    }

    /// A snapshot of this address space's own metrics. The wire buffer
    /// pool's process-wide counters are refreshed into the `wire`
    /// subsystem gauges just before the snapshot is cut, so `stats`
    /// consumers see the current data-plane reuse figures.
    #[must_use]
    pub fn stats_snapshot(&self) -> Snapshot {
        let pool = dstampede_wire::pool::stats();
        let g = |name: &str, v: u64| {
            self.metrics
                .gauge("wire", name)
                .set(i64::try_from(v).unwrap_or(i64::MAX));
        };
        g("pool_hits", pool.hits);
        g("pool_misses", pool.misses);
        g("pool_recycled", pool.recycled);
        g("copies_avoided", pool.copies_avoided);
        g("bytes_copied_avoided", pool.bytes_copied_avoided);
        let d = |name: &str, v: u64| {
            self.metrics
                .gauge("obs", name)
                .set(i64::try_from(v).unwrap_or(i64::MAX));
        };
        d("span_drops", self.metrics.tracer().store().dropped());
        let events = self.metrics.events();
        d(
            "event_drops",
            events.emitted().saturating_sub(events.len() as u64),
        );
        d("history_drops", self.history.total_dropped());
        self.metrics.snapshot()
    }

    /// A cluster-wide snapshot: this address space's metrics merged with
    /// one [`Request::StatsPull`] round to every declared peer.
    /// Unreachable peers are skipped — the merged snapshot's `sources`
    /// list shows who answered.
    #[must_use]
    pub fn stats_cluster_snapshot(self: &Arc<Self>) -> Snapshot {
        let mut merged = self.stats_snapshot();
        for peer in self.peers() {
            if peer == self.id {
                continue;
            }
            let Ok(reply) = self.call(peer, Request::StatsPull { cluster: false }) else {
                continue;
            };
            if let Reply::StatsReport { snapshot } = reply {
                if let Ok(snap) = Snapshot::decode(&snapshot) {
                    merged.merge(&snap);
                }
            }
        }
        merged
    }

    /// A dump of this address space's own retained spans.
    #[must_use]
    pub fn trace_dump(&self) -> TraceDump {
        self.metrics.tracer().dump()
    }

    /// A cluster-wide trace: this address space's spans merged with one
    /// [`Request::TracePull`] round to every declared peer. Unreachable
    /// peers are skipped; duplicate spans merge away, so pulling from any
    /// address space yields the same connected traces.
    #[must_use]
    pub fn trace_cluster_dump(self: &Arc<Self>) -> TraceDump {
        let mut merged = self.trace_dump();
        for peer in self.peers() {
            if peer == self.id {
                continue;
            }
            let Ok(reply) = self.call(peer, Request::TracePull { cluster: false }) else {
                continue;
            };
            if let Reply::TraceReport { dump } = reply {
                if let Ok(dump) = TraceDump::decode(&dump) {
                    merged.merge(&dump);
                }
            }
        }
        merged
    }

    // ---- distributed GC epoch support ----

    /// Records another address space's epoch report (aggregator side).
    pub fn gc_record_report(&self, from: AsId, min_vt: VirtualTime) {
        self.gc_agg.lock().report(from, min_vt);
        self.gc_epochs.fetch_add(1, Ordering::Relaxed);
    }

    /// The cluster-wide virtual-time floor as currently aggregated.
    #[must_use]
    pub fn gc_global_floor(&self) -> VirtualTime {
        self.gc_agg.lock().global_floor()
    }

    /// This address space's local GC accounting, summed over its
    /// containers.
    #[must_use]
    pub fn gc_local_summary(&self) -> GcSummary {
        let mut summary = GcSummary {
            epochs: self.gc_epochs.load(Ordering::Relaxed),
            ..GcSummary::default()
        };
        for res in self.registry.resources() {
            match res {
                ResourceId::Channel(id) => {
                    if let Ok(c) = self.registry.channel(id) {
                        let s = c.stats();
                        summary.items += s.reclaimed_items;
                        summary.bytes += s.reclaimed_bytes;
                    }
                }
                ResourceId::Queue(id) => {
                    if let Ok(q) = self.registry.queue(id) {
                        let s = q.stats();
                        summary.items += s.reclaimed_items;
                        summary.bytes += s.reclaimed_bytes;
                    }
                }
            }
        }
        summary
    }

    /// Sets the shard count this address space's registry applies to
    /// containers created without an explicit `shards` attribute (`0`
    /// restores the built-in default). Shard counts never travel on the
    /// wire, so this also governs remote-requested creations.
    pub fn set_default_stm_shards(&self, n: u32) {
        self.registry.set_default_shards(n);
    }

    /// Marks whether `peer` understands the batched put/get frames
    /// ([`Request::PutBatch`]/[`Request::GetBatch`]). Defaults to `true`;
    /// set `false` for old peers so batch operations downgrade to
    /// singleton frames.
    pub fn set_peer_batch(&self, peer: AsId, supported: bool) {
        let mut incapable = self.batch_incapable.lock();
        if supported {
            incapable.remove(&peer);
        } else {
            incapable.insert(peer);
        }
    }

    /// Whether `peer` is believed to understand the batched frames.
    #[must_use]
    pub fn peer_supports_batch(&self, peer: AsId) -> bool {
        !self.batch_incapable.lock().contains(&peer)
    }

    /// Marks whether `peer` understands the CLF SACK fast path
    /// (selective-acknowledgment frames on the UDP transport). Defaults
    /// to `true`; set `false` for old peers so the transport downgrades
    /// to the legacy per-datagram cumulative-ACK exchange. Delegates to
    /// the transport; a no-op on transports without a SACK path (e.g.
    /// the in-memory fabric).
    pub fn set_peer_clf_sack(&self, peer: AsId, supported: bool) {
        self.transport.set_peer_sack(peer, supported);
    }

    // ---- flight recorder: history & health ----

    /// Marks whether `peer` understands the flight-recorder pulls
    /// ([`Request::HistoryPull`]/[`Request::HealthPull`]). Defaults to
    /// `true`; the cluster fan-outs skip peers marked `false` and mark
    /// a peer themselves when it rejects a pull as unhandled.
    pub fn set_peer_recorder(&self, peer: AsId, supported: bool) {
        let mut incapable = self.recorder_incapable.lock();
        if supported {
            incapable.remove(&peer);
        } else {
            incapable.insert(peer);
        }
    }

    /// Whether `peer` is believed to understand the recorder pulls.
    #[must_use]
    pub fn peer_supports_recorder(&self, peer: AsId) -> bool {
        !self.recorder_incapable.lock().contains(&peer)
    }

    /// Replaces the health engine's hysteresis policy. Called by
    /// [`crate::recorder::FlightRecorder::start`] before the first
    /// tick; calling it later discards accumulated health state.
    pub fn set_health_policy(&self, policy: HealthPolicy) {
        *self.health.lock() = Arc::new(HealthEngine::new(policy));
    }

    /// Records one flight-recorder tick: samples every registry series
    /// into the history rings and re-derives every health subject from
    /// the runtime's live signals (peer leases and death declarations,
    /// CLF retransmit/backpressure deltas, STM occupancy). Normally
    /// driven by [`crate::recorder::FlightRecorder`]; tests may call it
    /// directly for deterministic ticks.
    pub fn record_tick(&self, config: &RecorderConfig) {
        let tick = self.recorder_ticks.fetch_add(1, Ordering::Relaxed) + 1;
        let now_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| i64::try_from(d.as_millis()).unwrap_or(i64::MAX))
            .unwrap_or(0);
        self.history.sample(&self.metrics, now_ms);

        let health = Arc::clone(&self.health.lock());
        let now = Instant::now();
        for peer in self.peers() {
            if peer == self.id {
                continue;
            }
            let subject = format!("peer:as-{}", peer.0);
            let (raw, reason) = if self.is_peer_dead(peer) {
                (HealthState::Dead, "declared dead".to_owned())
            } else {
                // Like check_leases, the lease clock of a peer never
                // heard from starts at the first look.
                let since = now.duration_since(*self.last_heard.lock().entry(peer).or_insert(now));
                if since > config.lease {
                    (
                        HealthState::Suspect,
                        format!("silent {}ms", since.as_millis()),
                    )
                } else if since > config.lease / 2 {
                    (
                        HealthState::Degraded,
                        format!("silent {}ms", since.as_millis()),
                    )
                } else {
                    (HealthState::Healthy, "lease current".to_owned())
                }
            };
            health.observe(tick, &subject, raw, &reason);
        }

        let stats = self.transport.stats();
        let prev = std::mem::replace(&mut *self.prev_transport.lock(), stats);
        let retransmits = stats.retransmits.saturating_sub(prev.retransmits);
        let backpressure = stats.backpressure.saturating_sub(prev.backpressure);
        let (raw, reason) = if backpressure > 0 {
            (
                HealthState::Degraded,
                format!("{backpressure} backpressure rejections"),
            )
        } else if retransmits >= config.retransmit_threshold {
            (
                HealthState::Degraded,
                format!("{retransmits} retransmits/tick"),
            )
        } else {
            (HealthState::Healthy, "transport nominal".to_owned())
        };
        health.observe(tick, "clf", raw, &reason);

        let occupancy = self.metrics.gauge("stm", "channel_items").get()
            + self.metrics.gauge("stm", "queue_items").get();
        let (raw, reason) = if occupancy > config.occupancy_watermark {
            (
                HealthState::Degraded,
                format!("occupancy {occupancy} over watermark"),
            )
        } else {
            (HealthState::Healthy, format!("occupancy {occupancy}"))
        };
        health.observe(tick, "stm", raw, &reason);

        if let Some(repl) = self.replicator() {
            let lag = repl.lag() as i64;
            let (raw, reason) = if lag > config.replication_lag_watermark {
                (
                    HealthState::Degraded,
                    format!("replication lag {lag} over watermark"),
                )
            } else {
                (HealthState::Healthy, format!("replication lag {lag}"))
            };
            health.observe(tick, "repl", raw, &reason);
        }

        // Session churn: a burst of abnormal teardowns (client crashes,
        // lease expiries) this tick degrades the `sessions` subject.
        // Only observed once a listener has accepted a session, so
        // listener-less spaces don't report a meaningless subject.
        if self.metrics.counter("session", "started").get() > 0 {
            let teardowns = self.metrics.counter("session", "dirty_teardowns").get()
                + self.metrics.counter("session", "lease_teardowns").get();
            let prev = std::mem::replace(&mut *self.prev_session_teardowns.lock(), teardowns);
            let churn = teardowns.saturating_sub(prev);
            let active = self.metrics.gauge("session", "active").get();
            let (raw, reason) = if churn >= config.session_churn_threshold {
                (
                    HealthState::Degraded,
                    format!("{churn} abnormal teardowns/tick, {active} active"),
                )
            } else {
                (
                    HealthState::Healthy,
                    format!("{churn} abnormal teardowns/tick, {active} active"),
                )
            };
            health.observe(tick, "sessions", raw, &reason);
        }
    }

    /// Ticks recorded so far.
    #[must_use]
    pub fn recorder_ticks(&self) -> u64 {
        self.recorder_ticks.load(Ordering::Relaxed)
    }

    /// This address space's own recorded metric history.
    #[must_use]
    pub fn history_dump(&self) -> HistoryDump {
        self.history.dump(&format!("as-{}", self.id.0))
    }

    /// This address space's own derived health report.
    #[must_use]
    pub fn health_report(&self) -> HealthReport {
        self.health.lock().report(&format!("as-{}", self.id.0))
    }

    /// The published health state of one local subject, if observed.
    #[must_use]
    pub fn health_state_of(&self, subject: &str) -> Option<HealthState> {
        self.health.lock().state_of(subject)
    }

    /// A cluster-wide history: this address space's rings merged with
    /// one [`Request::HistoryPull`] round to every declared peer.
    /// Unreachable peers are skipped; a peer that rejects the pull as
    /// unhandled (an old binary) is remembered via
    /// [`AddressSpace::set_peer_recorder`] and skipped from then on.
    #[must_use]
    pub fn history_cluster_dump(self: &Arc<Self>) -> HistoryDump {
        let mut merged = self.history_dump();
        for peer in self.recorder_fanout_peers() {
            match self.call(peer, Request::HistoryPull { cluster: false }) {
                Ok(Reply::HistoryReport { dump }) => {
                    if let Ok(dump) = HistoryDump::decode(&dump) {
                        merged.merge(&dump);
                    }
                }
                Ok(_) => {}
                Err(e) => self.note_recorder_pull_error(peer, &e),
            }
        }
        merged
    }

    /// A cluster-wide health report: this address space's subjects
    /// merged with one [`Request::HealthPull`] round to every declared
    /// peer, with the same old-peer downgrade as
    /// [`AddressSpace::history_cluster_dump`]. For a subject reported
    /// by several address spaces the fresher (then worse) entry wins,
    /// so pulling from any surviving address space converges.
    #[must_use]
    pub fn health_cluster_report(self: &Arc<Self>) -> HealthReport {
        let mut merged = self.health_report();
        for peer in self.recorder_fanout_peers() {
            match self.call(peer, Request::HealthPull { cluster: false }) {
                Ok(Reply::HealthReport { report }) => {
                    if let Ok(report) = HealthReport::decode(&report) {
                        merged.merge(&report);
                    }
                }
                Ok(_) => {}
                Err(e) => self.note_recorder_pull_error(peer, &e),
            }
        }
        merged
    }

    /// The peers a recorder fan-out should ask: everyone but us and
    /// the peers marked recorder-incapable.
    fn recorder_fanout_peers(&self) -> Vec<AsId> {
        let incapable = self.recorder_incapable.lock();
        self.peers()
            .into_iter()
            .filter(|p| *p != self.id && !incapable.contains(p))
            .collect()
    }

    /// Downgrades a peer that rejected a recorder pull as unhandled
    /// (it predates the flight recorder); transport-level failures are
    /// left alone so the peer is retried next pull.
    fn note_recorder_pull_error(&self, peer: AsId, e: &StmError) {
        if let StmError::Protocol(msg) = e {
            if msg.contains("unhandled request") {
                self.set_peer_recorder(peer, false);
            }
        }
    }

    // ---- failure detection & recovery ----

    /// Overrides the RPC deadline/retry policy (defaults to
    /// [`RpcConfig::default`]).
    pub fn set_rpc_config(&self, config: RpcConfig) {
        *self.rpc.lock() = config;
    }

    /// Renews a peer's lease; called for every message received from it.
    pub(crate) fn note_peer(&self, from: AsId) {
        self.last_heard.lock().insert(from, Instant::now());
    }

    /// Declares dead every live peer whose lease has expired. The lease
    /// clock of a peer never heard from starts at the first check.
    pub fn check_leases(self: &Arc<Self>, lease: Duration) {
        let now = Instant::now();
        let mut expired = Vec::new();
        {
            let mut heard = self.last_heard.lock();
            let dead = self.dead_peers.lock();
            for peer in self.peers.lock().iter().copied() {
                if peer == self.id || dead.contains(&peer) {
                    continue;
                }
                let since = now.duration_since(*heard.entry(peer).or_insert(now));
                if since > lease {
                    expired.push(peer);
                }
            }
        }
        for peer in expired {
            self.declare_peer_dead(peer);
        }
    }

    /// Whether `peer` has been declared dead.
    #[must_use]
    pub fn is_peer_dead(&self, peer: AsId) -> bool {
        self.dead_peers.lock().contains(&peer)
    }

    /// Every peer declared dead so far.
    #[must_use]
    pub fn dead_peers(&self) -> Vec<AsId> {
        self.dead_peers.lock().iter().copied().collect()
    }

    /// Declares a peer dead and runs the recovery path:
    ///
    /// 1. outstanding calls to the peer fail with
    ///    [`StmError::Disconnected`], and its parked blocking requests
    ///    are dropped unanswered;
    /// 2. connections the peer opened here are orphaned — their virtual
    ///    time advances to infinity and their consume claims drop, so
    ///    per-container GC progresses, and in-flight queue tickets return
    ///    to the head of their queues for surviving getters;
    /// 3. the peer's stale report leaves the GC epoch aggregator, so the
    ///    global floor no longer waits on it;
    /// 4. the transport's per-peer ARQ state is purged, freeing buffered
    ///    unacknowledged packets;
    /// 5. replicas held here for the dead peer's containers are sealed
    ///    and promoted into live local containers, adopting the dead
    ///    primary's name-server registrations (see
    ///    [`AddressSpace::promote_replicas_of`]).
    ///
    /// Idempotent; a self- or repeat declaration is a no-op.
    pub fn declare_peer_dead(self: &Arc<Self>, peer: AsId) {
        if peer == self.id || !self.dead_peers.lock().insert(peer) {
            return;
        }
        dstampede_obs::error(
            "failure",
            format!("as-{} declared as-{} dead", self.id.0, peer.0),
        );
        self.metrics.counter("failure", "peers_declared_dead").inc();
        self.metrics
            .counter_labeled(
                "failure",
                "peer_dead",
                &[("peer", &format!("as-{}", peer.0))],
            )
            .inc();

        // 1. Fail calls waiting on the dead peer (dropping the sender
        //    wakes the caller with Disconnected).
        self.pending.lock().retain(|_, pc| pc.dst != peer);
        self.cancel_parked(|p| p.origin() == peer);

        // 2. Orphan the dead peer's connections.
        let orphans = self.conns.remove_owned_by(peer);
        self.metrics
            .counter("failure", "orphaned_connections")
            .add(orphans.len() as u64);
        for entry in orphans {
            entry.orphan();
        }

        // 3. Drop its report from the GC epoch aggregator.
        self.gc_agg.lock().retire(peer);

        // 4. Free the transport's buffered state for it.
        self.transport.purge_peer(peer);

        // 5. Promote any replicas we held for the dead primary.
        self.promote_replicas_of(peer);
    }

    /// Failover promotion (death-recovery step 5): seals every replica
    /// whose primary is `peer`, rebuilds each as a live local container
    /// seeded with the replicated items, and adopts the primary's
    /// name-server registration so proxies re-resolve to the promoted
    /// copy. Every promotion is also registered under the synthetic name
    /// `promoted:<old-resource>` so clients holding only the dead
    /// resource id can find the successor.
    ///
    /// Replays are idempotent: channel re-puts hit `TsExists` and queue
    /// items keyed by their original timestamps dedup through the same
    /// path, so a retried death declaration cannot duplicate state.
    pub fn promote_replicas_of(self: &Arc<Self>, peer: AsId) {
        let taken = self.replicas.take_replicas_of(peer);
        for (old, replica) in taken {
            let n_items = replica.items.len();
            let new = match &replica.attrs {
                ReplicaAttrs::Channel(attrs) => {
                    let chan = self.host_channel(replica.name.clone(), *attrs);
                    let out = chan.connect_output();
                    for (ts, (tag, payload)) in &replica.items {
                        match out.try_put(
                            Timestamp::new(*ts),
                            Item::new(payload.clone()).with_tag(*tag),
                        ) {
                            Ok(()) | Err(StmError::TsExists) => {}
                            Err(e) => dstampede_obs::warn(
                                "repl",
                                format!(
                                    "as-{} dropped replicated item ts={ts} promoting {old}: {e}",
                                    self.id.0
                                ),
                            ),
                        }
                    }
                    out.disconnect();
                    ResourceId::Channel(chan.id())
                }
                ReplicaAttrs::Queue(attrs) => {
                    let queue = self.host_queue(replica.name.clone(), *attrs);
                    let out = queue.connect_output();
                    // BTreeMap iteration restores FIFO (timestamp) order.
                    for (ts, (tag, payload)) in &replica.items {
                        match out.try_put(
                            Timestamp::new(*ts),
                            Item::new(payload.clone()).with_tag(*tag),
                        ) {
                            Ok(()) | Err(StmError::TsExists) => {}
                            Err(e) => dstampede_obs::warn(
                                "repl",
                                format!(
                                    "as-{} dropped replicated item ts={ts} promoting {old}: {e}",
                                    self.id.0
                                ),
                            ),
                        }
                    }
                    out.disconnect();
                    ResourceId::Queue(queue.id())
                }
            };

            // Adopt the dead primary's name: drop its stale registration
            // (absent is fine) and re-register pointing at the promotion.
            if let Some(name) = &replica.name {
                let _ = self.ns_unregister(name);
                if let Err(e) = self.ns_register(
                    name,
                    new,
                    &format!("promoted from as-{} after failover", peer.0),
                ) {
                    dstampede_obs::warn(
                        "repl",
                        format!(
                            "as-{} could not adopt name {name:?} for promoted {old}: {e}",
                            self.id.0
                        ),
                    );
                }
            }
            // Successor pointer for clients holding only the old id.
            let _ = self.ns_register(
                &format!("promoted:{old}"),
                new,
                &format!("replica of {old} promoted from as-{}", peer.0),
            );

            self.promotions.lock().insert(old, new);
            self.metrics.counter("repl", "promotions").inc();
            dstampede_obs::warn(
                "repl",
                format!(
                    "as-{} promoted replica of {old} (primary as-{} dead) to {new} \
                     with {n_items} replicated items",
                    self.id.0, peer.0
                ),
            );
        }
    }

    // ---- RPC plumbing ----

    /// Performs a request against another address space (or inline against
    /// this one) and waits for the reply.
    ///
    /// Blocking operations (a `get`/`put`/`NsLookup` allowed to wait) keep
    /// a single attempt with an indefinite wait — waiting is their
    /// semantics. Non-blocking operations run under the [`RpcConfig`]
    /// deadline with jittered exponential backoff across transient
    /// transport failures; non-idempotent ones are wrapped in
    /// [`Request::WithId`] so a replayed attempt is answered from the
    /// executor's dedup cache instead of re-executing.
    ///
    /// # Errors
    ///
    /// The remote operation's error; [`StmError::Disconnected`] if the
    /// peer is (declared) dead or the transport closes;
    /// [`StmError::Timeout`] when the retry deadline expires.
    pub fn call(self: &Arc<Self>, dst: AsId, req: Request) -> StmResult<Reply> {
        if dst == self.id {
            return execute(self, &Arc::clone(&self.conns), None, None, req).into_result();
        }
        if self.down.load(Ordering::Acquire) {
            return Err(StmError::Disconnected);
        }
        if self.is_peer_dead(dst) {
            return Err(StmError::Disconnected);
        }
        if is_blocking(&req) {
            return match self.call_attempt(dst, req, None) {
                Attempt::Reply(frame) => {
                    propagate_reply_trace(&frame);
                    frame.reply.into_result()
                }
                Attempt::Fatal(e) => Err(e),
                // Unreachable without a timeout, but map it anyway.
                Attempt::Transient => Err(StmError::Disconnected),
            };
        }

        let config = *self.rpc.lock();
        let req = if is_idempotent(&req) {
            req
        } else {
            Request::WithId {
                req_id: self.next_req_id.fetch_add(1, Ordering::Relaxed),
                req: Box::new(req),
            }
        };
        let deadline = Instant::now() + config.deadline;
        let mut backoff = config.base_backoff;
        loop {
            match self.call_attempt(dst, req.clone(), Some(config.attempt_timeout)) {
                Attempt::Reply(frame) => {
                    propagate_reply_trace(&frame);
                    return frame.reply.into_result();
                }
                Attempt::Fatal(e) => return Err(e),
                Attempt::Transient => {}
            }
            if self.is_peer_dead(dst) || self.down.load(Ordering::Acquire) {
                return Err(StmError::Disconnected);
            }
            if Instant::now() >= deadline {
                self.metrics.counter("rpc", "deadline_exceeded").inc();
                return Err(StmError::Timeout);
            }
            self.metrics.counter("rpc", "retries").inc();
            std::thread::sleep(jittered(backoff, self.next_seq.load(Ordering::Relaxed)));
            backoff = (backoff * 2).min(config.max_backoff);
        }
    }

    /// One send/receive round. `timeout` of `None` waits indefinitely.
    /// The ambient trace context rides on the request frame, and a
    /// completed round is recorded as an [`SpanKind::Rpc`] span.
    fn call_attempt(&self, dst: AsId, req: Request, timeout: Option<Duration>) -> Attempt {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let ctx = trace::current();
        let name = req_name(&req);
        let started = Instant::now();
        let (tx, rx) = bounded(1);
        self.pending.lock().insert(seq, PendingCall { tx, dst });
        let msg = match proto::encode_request(&RequestFrame {
            seq,
            req,
            trace: ctx,
        }) {
            Ok(m) => m,
            Err(e) => {
                self.pending.lock().remove(&seq);
                return Attempt::Fatal(e);
            }
        };
        if let Err(e) = self.transport.send_segments(dst, msg.segments()) {
            self.pending.lock().remove(&seq);
            return match e {
                ClfError::UnknownPeer | ClfError::Closed => Attempt::Fatal(clf_to_stm(&e)),
                // Timeout, I/O trouble, a full send buffer: retryable.
                _ => Attempt::Transient,
            };
        }
        match timeout {
            None => match rx.recv() {
                Ok(frame) => {
                    self.record_rpc_span(ctx, dst, name, started);
                    Attempt::Reply(frame)
                }
                Err(_) => Attempt::Fatal(StmError::Disconnected),
            },
            Some(d) => match rx.recv_timeout(d) {
                Ok(frame) => {
                    self.record_rpc_span(ctx, dst, name, started);
                    Attempt::Reply(frame)
                }
                Err(RecvTimeoutError::Timeout) => {
                    self.pending.lock().remove(&seq);
                    Attempt::Transient
                }
                // Pending entry dropped: the peer was declared dead or we
                // shut down mid-call.
                Err(RecvTimeoutError::Disconnected) => Attempt::Fatal(StmError::Disconnected),
            },
        }
    }

    fn record_rpc_span(&self, ctx: Option<TraceContext>, dst: AsId, name: &str, started: Instant) {
        let Some(ctx) = ctx else { return };
        let tracer = self.metrics.tracer();
        let start = tracer
            .now_us()
            .saturating_sub(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
        tracer.finish(
            ctx,
            SpanKind::Rpc,
            &format!("rpc:{}->{}", self.id.0, dst.0),
            0,
            start,
            name,
        );
    }

    /// Sends a request without expecting a reply (used by drop paths).
    pub fn cast(&self, dst: AsId, req: Request) {
        if dst == self.id || self.down.load(Ordering::Acquire) || self.is_peer_dead(dst) {
            return;
        }
        let frame = RequestFrame {
            seq: NO_REPLY,
            req,
            trace: trace::current(),
        };
        if let Ok(msg) = proto::encode_request(&frame) {
            let _ = self.transport.send_segments(dst, msg.segments());
        }
    }

    /// Shuts the address space down: drops parked peer requests, closes
    /// every container, stops the transport's receive thread, and fails
    /// outstanding calls with [`StmError::Disconnected`]. Idempotent.
    pub fn shutdown(&self) {
        if self.down.swap(true, Ordering::AcqRel) {
            return;
        }
        if let Some(repl) = self.replicator.lock().take() {
            repl.stop();
        }
        self.cancel_parked(|_| true);
        self.registry.close_all();
        self.transport.shutdown();
        self.pending.lock().clear(); // wakes callers with Disconnected
        self.conns.clear();
    }

    // ---- parked peer requests ----

    pub(crate) fn conns(&self) -> &Arc<ConnTable> {
        &self.conns
    }

    pub(crate) fn request_timers(&self) -> &RequestTimers {
        &self.timers
    }

    pub(crate) fn next_park_key(&self) -> u64 {
        self.next_park.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn track_parked(&self, key: u64, parked: Arc<ParkedRequest>) {
        let mut table = self.parked.lock();
        table.insert(key, parked);
        self.parked_gauge
            .set(i64::try_from(table.len()).unwrap_or(i64::MAX));
    }

    pub(crate) fn untrack_parked(&self, key: u64) {
        let mut table = self.parked.lock();
        table.remove(&key);
        self.parked_gauge
            .set(i64::try_from(table.len()).unwrap_or(i64::MAX));
    }

    /// Cancels (without a reply) every parked request `doomed` selects.
    fn cancel_parked(&self, doomed: impl Fn(&ParkedRequest) -> bool) {
        let cancelled: Vec<Arc<ParkedRequest>> = {
            let mut table = self.parked.lock();
            let keys: Vec<u64> = table
                .iter()
                .filter(|(_, p)| doomed(p))
                .map(|(k, _)| *k)
                .collect();
            let out = keys.iter().filter_map(|k| table.remove(k)).collect();
            self.parked_gauge
                .set(i64::try_from(table.len()).unwrap_or(i64::MAX));
            out
        };
        for p in cancelled {
            p.cancel(self);
        }
    }

    /// Whether [`AddressSpace::shutdown`] has run.
    #[must_use]
    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::Acquire)
    }
}

impl fmt::Debug for AddressSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AddressSpace")
            .field("id", &self.id)
            .field("nameserver", &self.nameserver.is_some())
            .field("down", &self.down.load(Ordering::Relaxed))
            .finish()
    }
}

/// Outcome of one RPC attempt.
enum Attempt {
    /// The peer answered.
    Reply(ReplyFrame),
    /// A failure retrying cannot fix (unknown peer, peer declared dead).
    Fatal(StmError),
    /// A transient transport failure; the caller may retry.
    Transient,
}

/// Whether re-executing this request observes the same state transition as
/// executing it once — in which case a retried attempt needs no
/// [`Request::WithId`] dedup tag.
fn is_idempotent(req: &Request) -> bool {
    matches!(
        req,
        Request::Ping { .. }
            | Request::ChannelGet { .. }
            | Request::ChannelConsume { .. }
            | Request::ChannelSetVt { .. }
            | Request::NsLookup { .. }
            | Request::NsList
            | Request::StatsPull { .. }
            | Request::TracePull { .. }
            | Request::HistoryPull { .. }
            | Request::HealthPull { .. }
            | Request::GcReport { .. }
            | Request::Heartbeat { .. }
            | Request::Disconnect { .. }
    )
}

/// Makes the context carried on a reply frame ambient on the calling
/// thread: a get's reply carries the gotten item's context, which the
/// proxy layer re-attaches to the reconstructed [`dstampede_core::Item`].
/// Callers that care scope the ambient cell around the call.
fn propagate_reply_trace(frame: &ReplyFrame) {
    if frame.trace.is_some() {
        let _ = trace::set_current(frame.trace);
    }
}

/// A stable short name for a request variant, used as Rpc span detail.
fn req_name(req: &Request) -> &'static str {
    match req {
        Request::Attach { .. } => "attach",
        Request::Detach => "detach",
        Request::Ping { .. } => "ping",
        Request::ChannelCreate { .. } => "channel_create",
        Request::QueueCreate { .. } => "queue_create",
        Request::ConnectChannelIn { .. } => "connect_channel_in",
        Request::ConnectChannelOut { .. } => "connect_channel_out",
        Request::ConnectQueueIn { .. } => "connect_queue_in",
        Request::ConnectQueueOut { .. } => "connect_queue_out",
        Request::Disconnect { .. } => "disconnect",
        Request::ChannelPut { .. } => "channel_put",
        Request::ChannelGet { .. } => "channel_get",
        Request::ChannelConsume { .. } => "channel_consume",
        Request::ChannelSetVt { .. } => "channel_set_vt",
        Request::QueuePut { .. } => "queue_put",
        Request::QueueGet { .. } => "queue_get",
        Request::QueueConsume { .. } => "queue_consume",
        Request::QueueRequeue { .. } => "queue_requeue",
        Request::NsRegister { .. } => "ns_register",
        Request::NsLookup { .. } => "ns_lookup",
        Request::NsUnregister { .. } => "ns_unregister",
        Request::NsList => "ns_list",
        Request::InstallGarbageHook { .. } => "install_garbage_hook",
        Request::GcReport { .. } => "gc_report",
        Request::StatsPull { .. } => "stats_pull",
        Request::TracePull { .. } => "trace_pull",
        Request::HistoryPull { .. } => "history_pull",
        Request::HealthPull { .. } => "health_pull",
        Request::Heartbeat { .. } => "heartbeat",
        Request::PutBatch { .. } => "put_batch",
        Request::GetBatch { .. } => "get_batch",
        Request::ReplicaOpenChannel { .. } => "replica_open_channel",
        Request::ReplicaOpenQueue { .. } => "replica_open_queue",
        Request::ReplicatePut { .. } => "replicate_put",
        Request::WithId { req, .. } => req_name(req),
        _ => "unknown",
    }
}

/// Deterministic jitter: up to half the backoff again, keyed off the call
/// sequence counter so concurrent retriers desynchronise.
fn jittered(backoff: Duration, salt: u64) -> Duration {
    let hash = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48;
    let extra = backoff.as_micros() as u64 / 2;
    backoff + Duration::from_micros(if extra == 0 { 0 } else { hash % extra })
}

fn clf_to_stm(e: &ClfError) -> StmError {
    match e {
        ClfError::Closed => StmError::Disconnected,
        ClfError::UnknownPeer => StmError::NoSuchResource,
        other => StmError::Protocol(other.to_string()),
    }
}

/// The address space's CLF handler: inter-AS messages are served on the
/// endpoint's receive thread, and the receive loop's pass doubles as the
/// clock for parked requests' deadlines.
struct Inbound {
    space: std::sync::Weak<AddressSpace>,
    timers: Arc<RequestTimers>,
}

impl ClfHandler for Inbound {
    fn on_message(&self, from: AsId, msg: Bytes) {
        if let Some(space) = self.space.upgrade() {
            handle_message(&space, from, &msg);
        }
    }

    fn on_tick(&self) -> Option<Duration> {
        self.timers.advance()
    }
}

/// Serves one inter-AS message on the receive thread. Requests that
/// cannot block run inline; waits with a local wakeup source park
/// ([`ParkedRequest`]); the rest get a worker thread, since the receive
/// thread must never wait on a peer.
fn handle_message(space: &Arc<AddressSpace>, from: AsId, msg: &Bytes) {
    // Any traffic from a peer renews its lease.
    space.note_peer(from);
    match proto::decode(msg) {
        Ok(AsMessage::Request(frame)) => match shim_plan(space, &space.conns, &frame.req) {
            ShimPlan::Inline => {
                let guard = trace::scope(frame.trace);
                let reply = execute(space, &space.conns, None, Some(from), frame.req);
                let reply_trace = trace::current();
                drop(guard);
                send_reply(space, from, frame.seq, reply, reply_trace);
            }
            ShimPlan::Park => {
                let timeout = wait_of(&frame.req).and_then(wait_to_timeout).flatten();
                ParkedRequest::start(space, from, frame.seq, frame.req, frame.trace, timeout);
            }
            ShimPlan::Offload => {
                space.offloaded_counter.inc();
                let worker_space = Arc::clone(space);
                let builder =
                    std::thread::Builder::new().name(format!("as-{}-worker", space.id().0));
                let spawned = builder.spawn(move || {
                    let conns = Arc::clone(&worker_space.conns);
                    // The request's trace context becomes ambient for the
                    // duration of execution; whatever context execution
                    // leaves (e.g. the gotten item's) rides back on the
                    // reply frame.
                    let guard = trace::scope(frame.trace);
                    let reply = execute(&worker_space, &conns, None, Some(from), frame.req);
                    let reply_trace = trace::current();
                    drop(guard);
                    send_reply(&worker_space, from, frame.seq, reply, reply_trace);
                });
                if spawned.is_err() {
                    send_reply(
                        space,
                        from,
                        frame.seq,
                        Reply::from_error(&StmError::Protocol("worker spawn failed".into())),
                        None,
                    );
                }
            }
        },
        Ok(AsMessage::Reply(frame)) => {
            if let Some(pc) = space.pending.lock().remove(&frame.seq) {
                let _ = pc.tx.send(frame);
            }
        }
        Err(_) => { /* malformed inter-AS message: drop */ }
    }
}

pub(crate) fn send_reply(
    space: &Arc<AddressSpace>,
    to: AsId,
    seq: u64,
    reply: Reply,
    trace: Option<TraceContext>,
) {
    if seq == NO_REPLY {
        return;
    }
    if let Ok(msg) = proto::encode_reply(&ReplyFrame {
        seq,
        gc_notes: Vec::new(),
        reply,
        trace,
    }) {
        let _ = space.transport.send_segments(to, msg.segments());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use dstampede_clf::MemFabric;
    use dstampede_core::{GetSpec, Interest, Item, Timestamp};

    fn two_spaces() -> (Arc<AddressSpace>, Arc<AddressSpace>) {
        let fabric = MemFabric::new();
        let a = AddressSpace::start(fabric.endpoint(AsId(0)), true);
        let b = AddressSpace::start(fabric.endpoint(AsId(1)), false);
        (a, b)
    }

    #[test]
    fn ping_between_spaces() {
        let (a, b) = two_spaces();
        match b.call(AsId(0), Request::Ping { nonce: 42 }).unwrap() {
            Reply::Pong { nonce } => assert_eq!(nonce, 42),
            other => panic!("unexpected {other:?}"),
        }
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn remote_channel_put_get_consume() {
        let (a, b) = two_spaces();
        let chan = a.create_channel(Some("video".into()), ChannelAttrs::default());

        // b connects remotely and exchanges items.
        let cref = b.open_channel(chan.id()).unwrap();
        assert!(!cref.is_local());
        let out = cref.connect_output().unwrap();
        let inp = cref.connect_input(Interest::FromEarliest).unwrap();
        out.put(
            Timestamp::new(1),
            Item::from_vec(vec![1, 2, 3]).with_tag(7),
            WaitSpec::Forever,
        )
        .unwrap();
        let (ts, item) = inp.get_blocking(GetSpec::Exact(Timestamp::new(1))).unwrap();
        assert_eq!(ts, Timestamp::new(1));
        assert_eq!(item.payload(), &[1, 2, 3]);
        assert_eq!(item.tag(), 7);
        inp.consume_until(ts).unwrap();
        // The owner reclaims once the only input connection consumed.
        for _ in 0..100 {
            if chan.live_items() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(chan.live_items(), 0);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn remote_blocking_get_waits_for_put() {
        let (a, b) = two_spaces();
        let chan = a.create_channel(None, ChannelAttrs::default());
        let cref = b.open_channel(chan.id()).unwrap();
        let inp = cref.connect_input(Interest::FromEarliest).unwrap();

        let chan2 = Arc::clone(&chan);
        // Through the named registry, not a raw spawn: leaked helpers show
        // up in teardown accounting.
        let h = a.threads().spawn("test-late-putter", move |_t| {
            std::thread::sleep(Duration::from_millis(40));
            let out = chan2.connect_output();
            out.put(Timestamp::new(5), Item::from_vec(vec![9])).unwrap();
        });
        let (ts, item) = inp.get_blocking(GetSpec::Exact(Timestamp::new(5))).unwrap();
        assert_eq!(ts, Timestamp::new(5));
        assert_eq!(item.payload(), &[9]);
        h.join().unwrap();
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn remote_queue_round_trip_with_tickets() {
        let (a, b) = two_spaces();
        let q = a.create_queue(None, QueueAttrs::default());
        let qref = b.open_queue(q.id()).unwrap();
        let out = qref.connect_output().unwrap();
        let inp = qref.connect_input().unwrap();
        out.put(
            Timestamp::new(3),
            Item::from_vec(vec![5]).with_tag(1),
            WaitSpec::NonBlocking,
        )
        .unwrap();
        let (ts, item, ticket) = inp.get(WaitSpec::Forever).unwrap();
        assert_eq!(ts, Timestamp::new(3));
        assert_eq!(item.payload(), &[5]);
        inp.consume(ticket).unwrap();
        assert_eq!(q.stats().consumes, 1);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn nameserver_reachable_from_remote_space() {
        let (a, b) = two_spaces();
        let chan = a.create_channel(None, ChannelAttrs::default());
        let res = ResourceId::Channel(chan.id());
        b.ns_register("mixer", res, "composite").unwrap();
        assert_eq!(a.ns_lookup("mixer").unwrap(), (res, "composite".into()));
        assert_eq!(b.ns_lookup("mixer").unwrap(), (res, "composite".into()));
        assert_eq!(
            b.ns_register("mixer", res, "again").unwrap_err(),
            StmError::NameExists
        );
        assert_eq!(b.ns_list().unwrap().len(), 1);
        b.ns_unregister("mixer").unwrap();
        assert_eq!(b.ns_lookup("mixer").unwrap_err(), StmError::NameAbsent);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn blocking_ns_lookup_across_spaces() {
        let (a, b) = two_spaces();
        let chan = a.create_channel(None, ChannelAttrs::default());
        let res = ResourceId::Channel(chan.id());
        let b2 = Arc::clone(&b);
        let h = b.threads().spawn("test-ns-waiter", move |_t| {
            b2.ns_lookup_wait("late-name", None)
        });
        std::thread::sleep(Duration::from_millis(30));
        a.ns_register("late-name", res, "").unwrap();
        assert_eq!(h.join().unwrap().unwrap().0, res);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn remote_errors_propagate() {
        let (a, b) = two_spaces();
        // Connecting to a channel the owner does not have.
        let bogus = ChanId {
            owner: AsId(0),
            index: 999,
        };
        let cref = b.open_channel(bogus).unwrap();
        assert_eq!(
            cref.connect_input(Interest::FromEarliest).unwrap_err(),
            StmError::NoSuchResource
        );
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn call_to_unknown_space_fails() {
        let (a, b) = two_spaces();
        assert_eq!(
            b.call(AsId(9), Request::Ping { nonce: 1 }).unwrap_err(),
            StmError::NoSuchResource
        );
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_closes_containers() {
        let (a, b) = two_spaces();
        let chan = a.create_channel(None, ChannelAttrs::default());
        a.shutdown();
        a.shutdown();
        assert!(a.is_down());
        assert!(chan.is_closed());
        b.shutdown();
    }

    #[test]
    fn malformed_message_does_not_kill_the_receive_thread() {
        let fabric = MemFabric::new();
        let a = AddressSpace::start(fabric.endpoint(AsId(0)), true);
        let raw = fabric.endpoint(AsId(5));
        raw.send(AsId(0), Bytes::from_static(b"garbage")).unwrap();
        // The receive thread must survive and keep answering.
        let b = AddressSpace::start(fabric.endpoint(AsId(1)), false);
        match b.call(AsId(0), Request::Ping { nonce: 7 }).unwrap() {
            Reply::Pong { nonce } => assert_eq!(nonce, 7),
            other => panic!("unexpected {other:?}"),
        }
        a.shutdown();
        b.shutdown();
    }
}
