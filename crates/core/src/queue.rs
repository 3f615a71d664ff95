//! FIFO queues: the work-sharing space-time memory container.
//!
//! Unlike a [`crate::Channel`], a queue hands each item to **exactly one**
//! getter, in FIFO order. The paper (§3.1, Figure 3) uses queues to exploit
//! data parallelism: a splitter thread partitions a frame into fragments
//! (all bearing the *same* timestamp, distinguished by tag), worker threads
//! each pull a fragment, and a joiner stitches results back together.
//! Duplicate timestamps are therefore explicitly allowed here.
//!
//! # Tickets
//!
//! `get` returns the item together with a [`QTicket`]. The getter calls
//! `consume(ticket)` once it is done (firing the queue's garbage hook) or
//! `requeue(ticket)` to put the item back at the head. If an input
//! connection disconnects with tickets outstanding — e.g. a worker crashes —
//! its in-flight items are automatically requeued, an extension supporting
//! the failure handling the paper lists as future work (§3.3).
//!
//! # Sharded in-flight tracking
//!
//! FIFO hand-off is inherently serial — every `get` must agree on the head —
//! but settling tickets is not. The in-flight table is partitioned into N
//! ticket-indexed shards (`ticket % N`), each behind its own lock, so a pool
//! of workers `consume`-ing finished fragments never serializes against the
//! spine lock that orders `put`/`get`. Lock order is spine → shard; the
//! consume path takes only its shard. Shard count comes from
//! [`QueueAttrs::shards`], defaulting to
//! [`crate::channel::DEFAULT_STM_SHARDS`].
//!
//! # Batching
//!
//! `put_many` enqueues a batch under one spine lock (unbounded queues) and
//! `dequeue_many` drains up to `max` items with one lock acquisition,
//! returning a ticket per item. Batches are per-item independent: there is
//! no transactional atomicity, but FIFO order is preserved — a batch
//! enqueues contiguously and dequeues in queue order.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dstampede_obs::{trace, MetricsRegistry, SpanKind};
use parking_lot::{Condvar, Mutex};

use crate::attr::{OverflowPolicy, QueueAttrs};
use crate::channel::{Deadline, DEFAULT_STM_SHARDS};
use crate::error::{StmError, StmResult};
use crate::handler::{GarbageEvent, HookSlot, PutEvent};
use crate::ids::{ConnId, QueueId, ResourceId};
use crate::item::{Item, StreamItem};
use crate::metrics::StmMetrics;
use crate::time::Timestamp;
use crate::waiter::WakerSet;

/// Receipt for an in-flight queue item; settle with `consume` or `requeue`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QTicket(pub u64);

impl fmt::Display for QTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ticket:{}", self.0)
    }
}

/// Monotonic counters describing a queue's activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Successful puts.
    pub puts: u64,
    /// Successful gets.
    pub gets: u64,
    /// Tickets consumed.
    pub consumes: u64,
    /// Tickets requeued (explicitly or by disconnect recovery).
    pub requeues: u64,
    /// Items reclaimed (consumed or evicted).
    pub reclaimed_items: u64,
    /// Payload bytes reclaimed.
    pub reclaimed_bytes: u64,
}

#[derive(Default)]
struct AtomicStats {
    puts: AtomicU64,
    gets: AtomicU64,
    consumes: AtomicU64,
    requeues: AtomicU64,
    reclaimed_items: AtomicU64,
    reclaimed_bytes: AtomicU64,
}

impl AtomicStats {
    fn snapshot(&self) -> QueueStats {
        QueueStats {
            puts: self.puts.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            consumes: self.consumes.load(Ordering::Relaxed),
            requeues: self.requeues.load(Ordering::Relaxed),
            reclaimed_items: self.reclaimed_items.load(Ordering::Relaxed),
            reclaimed_bytes: self.reclaimed_bytes.load(Ordering::Relaxed),
        }
    }
}

struct QEntry {
    ts: Timestamp,
    item: Item,
}

struct Inflight {
    ts: Timestamp,
    item: Item,
    conn: ConnId,
}

/// The serial heart of the queue: FIFO ordering and connection membership.
/// In-flight tickets live outside, in the sharded tables, so settling them
/// does not contend here.
struct QSpine {
    items: VecDeque<QEntry>,
    in_conns: HashSet<ConnId>,
    out_conns: HashSet<ConnId>,
    next_conn: u64,
    closed: bool,
}

/// A FIFO work-sharing queue.
///
/// # Examples
///
/// ```
/// use dstampede_core::{Queue, QueueAttrs, Item, Timestamp};
///
/// # fn main() -> Result<(), dstampede_core::StmError> {
/// let q = Queue::standalone(QueueAttrs::default());
/// let out = q.connect_output();
/// let inp = q.connect_input();
///
/// out.put(Timestamp::new(0), Item::from_vec(vec![1]).with_tag(0))?;
/// out.put(Timestamp::new(0), Item::from_vec(vec![2]).with_tag(1))?;
///
/// let (ts, frag, ticket) = inp.get()?;
/// assert_eq!(ts, Timestamp::new(0));
/// inp.consume(ticket)?;
/// # Ok(())
/// # }
/// ```
pub struct Queue {
    id: QueueId,
    name: Option<String>,
    attrs: QueueAttrs,
    spine: Mutex<QSpine>,
    /// Ticket-partitioned in-flight tables; shard = `ticket.0 % len`.
    /// Lock order: spine → shard. The consume fast path takes only the
    /// shard, so worker pools settling tickets never touch the spine.
    inflight: Box<[Mutex<HashMap<QTicket, Inflight>>]>,
    next_ticket: AtomicU64,
    items_cv: Condvar,
    space_cv: Condvar,
    /// Reactor-task counterparts of the condvars: parked wakers, woken at
    /// exactly the same sites the condvars notify.
    items_wakers: WakerSet,
    space_wakers: WakerSet,
    hooks: HookSlot,
    /// Fast-path flag: put paths clone the payload handle for put hooks
    /// only when one is installed, so unhooked queues pay nothing.
    put_hooked: AtomicBool,
    stats: AtomicStats,
    obs: StmMetrics,
    /// Precomputed `queue:OWNER/INDEX` span label — span recording on
    /// sampled items must not pay a format per edge.
    span_resource: String,
}

impl Queue {
    /// Creates a queue with an explicit system-wide id, reporting
    /// telemetry to the process-global metrics registry (registries call
    /// this; use [`Queue::standalone`] for local experimentation).
    #[must_use]
    pub fn new(id: QueueId, name: Option<String>, attrs: QueueAttrs) -> Arc<Self> {
        Queue::new_in(id, name, attrs, dstampede_obs::global())
    }

    /// Creates a queue reporting telemetry to `metrics` (used by
    /// address-space registries so each space's activity is attributed
    /// separately in cluster-wide snapshots).
    #[must_use]
    pub fn new_in(
        id: QueueId,
        name: Option<String>,
        attrs: QueueAttrs,
        metrics: &MetricsRegistry,
    ) -> Arc<Self> {
        let nshards = attrs.shards().unwrap_or(DEFAULT_STM_SHARDS).max(1) as usize;
        Arc::new(Queue {
            id,
            name,
            attrs,
            spine: Mutex::new(QSpine {
                items: VecDeque::new(),
                in_conns: HashSet::new(),
                out_conns: HashSet::new(),
                next_conn: 1,
                closed: false,
            }),
            inflight: (0..nshards)
                .map(|_| Mutex::new(HashMap::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            next_ticket: AtomicU64::new(1),
            items_cv: Condvar::new(),
            space_cv: Condvar::new(),
            items_wakers: WakerSet::new(),
            space_wakers: WakerSet::new(),
            hooks: HookSlot::new(),
            put_hooked: AtomicBool::new(false),
            stats: AtomicStats::default(),
            obs: StmMetrics::queue(metrics),
            span_resource: format!("queue:{}/{}", id.owner.0, id.index),
        })
    }

    /// Creates an unregistered queue for single-address-space use.
    #[must_use]
    pub fn standalone(attrs: QueueAttrs) -> Arc<Self> {
        Queue::new(
            QueueId {
                owner: crate::ids::AsId(0),
                index: 0,
            },
            None,
            attrs,
        )
    }

    /// The queue's system-wide id.
    #[must_use]
    pub fn id(&self) -> QueueId {
        self.id
    }

    /// The queue's registered name, if any.
    #[must_use]
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// The creation-time attributes.
    #[must_use]
    pub fn attrs(&self) -> &QueueAttrs {
        &self.attrs
    }

    /// Number of in-flight ticket shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.inflight.len()
    }

    /// A snapshot of activity counters.
    #[must_use]
    pub fn stats(&self) -> QueueStats {
        self.stats.snapshot()
    }

    /// Number of queued (not in-flight) items.
    #[must_use]
    pub fn queued_items(&self) -> usize {
        self.spine.lock().items.len()
    }

    /// The lowest timestamp still queued or checked out and not yet
    /// consumed, or `None` when every item put so far was consumed (or
    /// evicted). A follower replica may drop everything below it.
    #[must_use]
    pub fn lowest_unconsumed_ts(&self) -> Option<Timestamp> {
        // Spine → shard order, as in checkout: an item moves from the
        // spine to its in-flight shard under the spine lock, so holding
        // the spine across the scan sees it in exactly one place.
        let st = self.spine.lock();
        let mut low = st.items.iter().map(|e| e.ts).min();
        for shard in self.inflight.iter() {
            if let Some(ts) = shard.lock().values().map(|inf| inf.ts).min() {
                low = Some(low.map_or(ts, |l| l.min(ts)));
            }
        }
        low
    }

    /// Number of items handed out but not yet settled.
    #[must_use]
    pub fn inflight_items(&self) -> usize {
        self.inflight.iter().map(|s| s.lock().len()).sum()
    }

    /// Installs a garbage hook fired when items are consumed or evicted.
    pub fn set_garbage_hook<F>(&self, hook: F)
    where
        F: Fn(&GarbageEvent) + Send + Sync + 'static,
    {
        self.hooks.update(|h| h.set_garbage(hook));
    }

    /// Installs an additional garbage hook alongside any existing ones.
    pub fn add_garbage_hook<F>(&self, hook: F)
    where
        F: Fn(&GarbageEvent) + Send + Sync + 'static,
    {
        self.hooks.update(|h| h.add_garbage(hook));
    }

    /// Installs a put hook fired for every accepted item, outside the
    /// spine lock (the runtime's replicator tails accepted puts this
    /// way). Same discipline as garbage hooks: fast, no re-entrant calls.
    pub fn add_put_hook<F>(&self, hook: F)
    where
        F: Fn(PutEvent) + Send + Sync + 'static,
    {
        self.hooks.update(|h| h.add_put(hook));
        self.put_hooked.store(true, Ordering::SeqCst);
    }

    /// Parks a reactor task until the next item arrival (or close).
    /// Register first, then retry a non-blocking get; spurious wakes are
    /// expected and benign.
    pub fn register_items_waker(&self, waker: &std::task::Waker) {
        self.items_wakers.register(waker);
    }

    /// Parks a reactor task until queue space frees up (or close).
    /// Register first, then retry a non-blocking put.
    pub fn register_space_waker(&self, waker: &std::task::Waker) {
        self.space_wakers.register(waker);
    }

    /// Opens an input (getter) connection; disconnecting requeues any
    /// outstanding tickets.
    #[must_use]
    pub fn connect_input(self: &Arc<Self>) -> QueueInputConn {
        let mut st = self.spine.lock();
        let id = ConnId(st.next_conn);
        st.next_conn += 1;
        st.in_conns.insert(id);
        drop(st);
        QueueInputConn {
            queue: Arc::clone(self),
            id,
        }
    }

    /// Opens an output (putter) connection.
    #[must_use]
    pub fn connect_output(self: &Arc<Self>) -> QueueOutputConn {
        let mut st = self.spine.lock();
        let id = ConnId(st.next_conn);
        st.next_conn += 1;
        st.out_conns.insert(id);
        drop(st);
        QueueOutputConn {
            queue: Arc::clone(self),
            id,
        }
    }

    /// Closes the queue: blocked operations wake with [`StmError::Closed`],
    /// puts fail, gets keep draining queued items.
    pub fn close(&self) {
        let mut st = self.spine.lock();
        st.closed = true;
        drop(st);
        self.items_cv.notify_all();
        self.items_wakers.wake_all();
        self.space_cv.notify_all();
        self.space_wakers.wake_all();
    }

    /// Whether [`Queue::close`] has been called.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.spine.lock().closed
    }

    fn shard_of(&self, ticket: QTicket) -> usize {
        (ticket.0 % self.inflight.len() as u64) as usize
    }

    // ---- internal operations ----

    pub(crate) fn do_put(
        &self,
        conn: ConnId,
        ts: Timestamp,
        item: Item,
        deadline: Deadline,
    ) -> StmResult<()> {
        let started = Instant::now();
        // As for channels: a sampled item without a context starts its
        // trace here; an ambient context (a surrogate running a remote
        // put) takes precedence.
        let mut item = item;
        if item.trace_context().is_none() {
            item.set_trace_context(
                trace::current().or_else(|| self.obs.tracer.begin_trace(ts.value())),
            );
        }
        let ctx = item.trace_context();
        let len = item.len();
        let hook_put = self
            .put_hooked
            .load(Ordering::Relaxed)
            .then(|| (item.tag(), item.payload_bytes()));
        let mut evicted: Option<QEntry> = None;
        {
            let mut st = self.spine.lock();
            if !st.out_conns.contains(&conn) {
                return Err(StmError::NoSuchConnection);
            }
            loop {
                if st.closed {
                    return Err(StmError::Closed);
                }
                let cap = self.attrs.capacity().map(|c| c as usize);
                let full = cap.is_some_and(|c| st.items.len() >= c);
                if !full {
                    break;
                }
                match self.attrs.overflow() {
                    OverflowPolicy::Reject => return Err(StmError::Full),
                    OverflowPolicy::DropOldest => {
                        evicted = st.items.pop_front();
                        break;
                    }
                    OverflowPolicy::Block => match deadline {
                        Deadline::Now => return Err(StmError::Full),
                        Deadline::Never => {
                            self.space_cv.wait(&mut st);
                        }
                        Deadline::At(instant) => {
                            if self.space_cv.wait_until(&mut st, instant).timed_out() {
                                return Err(StmError::Timeout);
                            }
                        }
                    },
                }
            }
            st.items.push_back(QEntry { ts, item });
            self.stats.puts.fetch_add(1, Ordering::Relaxed);
            self.obs.occupancy.inc();
            self.obs.record_put(started);
        }
        self.items_cv.notify_one();
        self.items_wakers.wake_all();
        if let Some((tag, payload)) = hook_put {
            let hooks = self.hooks.get();
            hooks.fire_put(PutEvent {
                resource: ResourceId::Queue(self.id),
                ts,
                tag,
                payload,
            });
        }
        if let Some(ctx) = ctx {
            self.obs.tracer.finish(
                ctx,
                SpanKind::Put,
                &self.span_resource,
                ts.value(),
                self.obs.tracer.now_us().saturating_sub(
                    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
                ),
                &format!("bytes={len}"),
            );
        }
        if let Some(e) = evicted {
            self.obs.occupancy.dec();
            self.reclaim_one(e.ts, &e.item);
        }
        Ok(())
    }

    /// Enqueues a batch, reporting a result per entry (order preserved).
    ///
    /// Bounded queues fall back to per-item puts so each entry sees the
    /// overflow policy individually; the unbounded fast path takes the
    /// spine lock once for the whole batch.
    pub(crate) fn do_put_many(
        &self,
        conn: ConnId,
        entries: Vec<(Timestamp, Item)>,
        deadline: Deadline,
    ) -> Vec<StmResult<()>> {
        if self.attrs.capacity().is_some() {
            return entries
                .into_iter()
                .map(|(ts, item)| self.do_put(conn, ts, item, deadline))
                .collect();
        }
        let started = Instant::now();
        let mut entries = entries;
        for (ts, item) in &mut entries {
            if item.trace_context().is_none() {
                item.set_trace_context(
                    trace::current().or_else(|| self.obs.tracer.begin_trace(ts.value())),
                );
            }
        }
        let spans: Vec<_> = entries
            .iter()
            .map(|(ts, item)| (*ts, item.trace_context(), item.len()))
            .collect();
        let hook_puts = self.put_hooked.load(Ordering::Relaxed).then(|| {
            entries
                .iter()
                .map(|(ts, item)| (*ts, item.tag(), item.payload_bytes()))
                .collect::<Vec<_>>()
        });
        let n = entries.len();
        {
            let mut st = self.spine.lock();
            if !st.out_conns.contains(&conn) {
                return vec![Err(StmError::NoSuchConnection); n];
            }
            if st.closed {
                return vec![Err(StmError::Closed); n];
            }
            for (ts, item) in entries {
                st.items.push_back(QEntry { ts, item });
            }
            self.stats.puts.fetch_add(n as u64, Ordering::Relaxed);
            self.obs.occupancy.add(i64::try_from(n).unwrap_or(i64::MAX));
        }
        if n > 0 {
            self.obs.record_put(started);
            // A batch can satisfy several blocked getters at once.
            self.items_cv.notify_all();
            self.items_wakers.wake_all();
            if let Some(hook_puts) = hook_puts {
                let hooks = self.hooks.get();
                for (ts, tag, payload) in hook_puts {
                    hooks.fire_put(PutEvent {
                        resource: ResourceId::Queue(self.id),
                        ts,
                        tag,
                        payload,
                    });
                }
            }
        }
        for (ts, ctx, len) in spans {
            if let Some(ctx) = ctx {
                self.obs.tracer.finish(
                    ctx,
                    SpanKind::Put,
                    &self.span_resource,
                    ts.value(),
                    self.obs.tracer.now_us().saturating_sub(
                        u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
                    ),
                    &format!("bytes={len}"),
                );
            }
        }
        vec![Ok(()); n]
    }

    /// Pops one entry and checks it out to `conn`, inserting the in-flight
    /// record while the spine is still held so a concurrent disconnect's
    /// orphan scan cannot miss it.
    fn checkout(&self, st: &mut QSpine, conn: ConnId) -> Option<(Timestamp, Item, QTicket)> {
        let entry = st.items.pop_front()?;
        let ticket = QTicket(self.next_ticket.fetch_add(1, Ordering::Relaxed));
        self.inflight[self.shard_of(ticket)].lock().insert(
            ticket,
            Inflight {
                ts: entry.ts,
                item: entry.item.clone(),
                conn,
            },
        );
        Some((entry.ts, entry.item, ticket))
    }

    pub(crate) fn do_get(
        &self,
        conn: ConnId,
        deadline: Deadline,
    ) -> StmResult<(Timestamp, Item, QTicket)> {
        let started = Instant::now();
        let mut st = self.spine.lock();
        loop {
            if !st.in_conns.contains(&conn) {
                return Err(StmError::NoSuchConnection);
            }
            if let Some((ts, item, ticket)) = self.checkout(&mut st, conn) {
                self.stats.gets.fetch_add(1, Ordering::Relaxed);
                self.obs.occupancy.dec();
                self.obs.record_get(started);
                drop(st);
                self.space_cv.notify_one();
                self.space_wakers.wake_all();
                if let Some(ctx) = item.trace_context() {
                    self.obs.tracer.instant(
                        ctx,
                        SpanKind::Get,
                        &self.span_resource,
                        ts.value(),
                        "",
                    );
                }
                return Ok((ts, item, ticket));
            }
            if st.closed {
                return Err(StmError::Closed);
            }
            match deadline {
                Deadline::Now => return Err(StmError::Absent),
                Deadline::Never => {
                    self.items_cv.wait(&mut st);
                }
                Deadline::At(instant) => {
                    if self.items_cv.wait_until(&mut st, instant).timed_out() {
                        return Err(StmError::Timeout);
                    }
                }
            }
        }
    }

    /// Drains up to `max` items with one spine acquisition, blocking per
    /// `deadline` until at least one item is available.
    pub(crate) fn do_dequeue_many(
        &self,
        conn: ConnId,
        max: usize,
        deadline: Deadline,
    ) -> StmResult<Vec<(Timestamp, Item, QTicket)>> {
        if max == 0 {
            return Ok(Vec::new());
        }
        let started = Instant::now();
        let mut st = self.spine.lock();
        loop {
            if !st.in_conns.contains(&conn) {
                return Err(StmError::NoSuchConnection);
            }
            if !st.items.is_empty() {
                let mut got = Vec::with_capacity(max.min(st.items.len()));
                while got.len() < max {
                    match self.checkout(&mut st, conn) {
                        Some(entry) => got.push(entry),
                        None => break,
                    }
                }
                let k = got.len();
                self.stats.gets.fetch_add(k as u64, Ordering::Relaxed);
                self.obs
                    .occupancy
                    .add(-i64::try_from(k).unwrap_or(i64::MAX));
                self.obs.record_get(started);
                drop(st);
                // k slots freed: wake every blocked producer that can fit.
                self.space_cv.notify_all();
                self.space_wakers.wake_all();
                for (ts, item, _) in &got {
                    if let Some(ctx) = item.trace_context() {
                        self.obs.tracer.instant(
                            ctx,
                            SpanKind::Get,
                            &self.span_resource,
                            ts.value(),
                            "",
                        );
                    }
                }
                return Ok(got);
            }
            if st.closed {
                return Err(StmError::Closed);
            }
            match deadline {
                Deadline::Now => return Err(StmError::Absent),
                Deadline::Never => {
                    self.items_cv.wait(&mut st);
                }
                Deadline::At(instant) => {
                    if self.items_cv.wait_until(&mut st, instant).timed_out() {
                        return Err(StmError::Timeout);
                    }
                }
            }
        }
    }

    pub(crate) fn do_consume(&self, conn: ConnId, ticket: QTicket) -> StmResult<()> {
        let started = Instant::now();
        let entry;
        {
            // Shard only: consuming never contends with put/get on the
            // spine, which is what lets a worker pool settle fragments in
            // parallel with the splitter enqueueing the next frame.
            let mut shard = self.inflight[self.shard_of(ticket)].lock();
            match shard.get(&ticket) {
                Some(inf) if inf.conn == conn => {}
                Some(_) => return Err(StmError::BadMode),
                None => return Err(StmError::Absent),
            }
            entry = shard.remove(&ticket).expect("checked above");
            self.stats.consumes.fetch_add(1, Ordering::Relaxed);
            self.obs.record_consume(started);
        }
        if let Some(ctx) = entry.item.trace_context() {
            self.obs.tracer.instant(
                ctx,
                SpanKind::Consume,
                &self.span_resource,
                entry.ts.value(),
                "",
            );
        }
        self.reclaim_one(entry.ts, &entry.item);
        Ok(())
    }

    pub(crate) fn do_requeue(&self, conn: ConnId, ticket: QTicket) -> StmResult<()> {
        {
            // Spine → shard: the item goes back to the head, so the spine
            // must be held; the ownership check lives in the shard.
            let mut st = self.spine.lock();
            let mut shard = self.inflight[self.shard_of(ticket)].lock();
            match shard.get(&ticket) {
                Some(inf) if inf.conn == conn => {}
                Some(_) => return Err(StmError::BadMode),
                None => return Err(StmError::Absent),
            }
            let inf = shard.remove(&ticket).expect("checked above");
            st.items.push_front(QEntry {
                ts: inf.ts,
                item: inf.item,
            });
            self.stats.requeues.fetch_add(1, Ordering::Relaxed);
            self.obs.occupancy.inc();
        }
        // notify_all, not notify_one: with several getters parked, the
        // single notified waiter may be on a since-disconnected connection
        // that exits with NoSuchConnection without re-signalling, leaving
        // the requeued item stranded until the next enqueue.
        self.items_cv.notify_all();
        self.items_wakers.wake_all();
        Ok(())
    }

    pub(crate) fn do_disconnect_input(&self, conn: ConnId) {
        let mut recovered = 0u64;
        {
            let mut st = self.spine.lock();
            if !st.in_conns.remove(&conn) {
                return;
            }
            // Spine → shard order; holding the spine across the scan makes
            // it atomic with respect to checkout, so a ticket is either
            // seen here or already requeued/settled, never lost.
            for shard in &self.inflight {
                let mut shard = shard.lock();
                let orphaned: Vec<QTicket> = shard
                    .iter()
                    .filter(|(_, inf)| inf.conn == conn)
                    .map(|(&t, _)| t)
                    .collect();
                for t in orphaned {
                    let inf = shard.remove(&t).expect("just listed");
                    st.items.push_front(QEntry {
                        ts: inf.ts,
                        item: inf.item,
                    });
                    recovered += 1;
                }
            }
            self.stats.requeues.fetch_add(recovered, Ordering::Relaxed);
            self.obs
                .occupancy
                .add(i64::try_from(recovered).unwrap_or(i64::MAX));
        }
        // Always wake blocked getters: those waiting on the departed
        // connection must observe NoSuchConnection, and if tickets were
        // requeued other getters can now claim them.
        self.items_cv.notify_all();
        self.items_wakers.wake_all();
    }

    pub(crate) fn do_disconnect_output(&self, conn: ConnId) {
        let mut st = self.spine.lock();
        st.out_conns.remove(&conn);
    }

    fn reclaim_one(&self, ts: Timestamp, item: &Item) {
        self.stats.reclaimed_items.fetch_add(1, Ordering::Relaxed);
        self.stats
            .reclaimed_bytes
            .fetch_add(item.len() as u64, Ordering::Relaxed);
        self.obs.record_reclaim(1, item.len() as u64);
        self.space_cv.notify_one();
        self.space_wakers.wake_all();
        let hooks = self.hooks.get();
        hooks.fire_garbage(&GarbageEvent {
            resource: ResourceId::Queue(self.id),
            ts,
            tag: item.tag(),
            len: item.len() as u32,
        });
    }
}

impl fmt::Debug for Queue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (queued, closed) = {
            let st = self.spine.lock();
            (st.items.len(), st.closed)
        };
        f.debug_struct("Queue")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("queued", &queued)
            .field("inflight", &self.inflight_items())
            .field("shards", &self.inflight.len())
            .field("closed", &closed)
            .finish()
    }
}

/// An input (getter) connection to a [`Queue`]; disconnects on drop,
/// requeueing any unsettled tickets.
pub struct QueueInputConn {
    queue: Arc<Queue>,
    id: ConnId,
}

impl QueueInputConn {
    /// This connection's id.
    #[must_use]
    pub fn id(&self) -> ConnId {
        self.id
    }

    /// The queue this connection is attached to.
    #[must_use]
    pub fn queue(&self) -> &Arc<Queue> {
        &self.queue
    }

    /// Blocking get of the next item.
    ///
    /// # Errors
    ///
    /// [`StmError::Closed`] once the queue is closed and drained.
    pub fn get(&self) -> StmResult<(Timestamp, Item, QTicket)> {
        self.queue.do_get(self.id, Deadline::Never)
    }

    /// Non-blocking get.
    ///
    /// # Errors
    ///
    /// [`StmError::Absent`] when the queue is empty.
    pub fn try_get(&self) -> StmResult<(Timestamp, Item, QTicket)> {
        self.queue.do_get(self.id, Deadline::Now)
    }

    /// Parks a reactor task until the next item arrival on this queue.
    /// Register first, then retry [`QueueInputConn::try_get`].
    pub fn register_waker(&self, waker: &std::task::Waker) {
        self.queue.register_items_waker(waker);
    }

    /// Get with a timeout.
    ///
    /// # Errors
    ///
    /// [`StmError::Timeout`] if nothing arrives in time.
    pub fn get_timeout(&self, timeout: Duration) -> StmResult<(Timestamp, Item, QTicket)> {
        self.queue.do_get(self.id, Deadline::after(timeout))
    }

    /// Blocking batch get: waits for at least one item, then drains up to
    /// `max` in FIFO order, each with its own ticket.
    ///
    /// # Errors
    ///
    /// As [`QueueInputConn::get`].
    pub fn dequeue_many(&self, max: usize) -> StmResult<Vec<(Timestamp, Item, QTicket)>> {
        self.queue.do_dequeue_many(self.id, max, Deadline::Never)
    }

    /// Non-blocking batch get.
    ///
    /// # Errors
    ///
    /// [`StmError::Absent`] when the queue is empty.
    pub fn try_dequeue_many(&self, max: usize) -> StmResult<Vec<(Timestamp, Item, QTicket)>> {
        self.queue.do_dequeue_many(self.id, max, Deadline::Now)
    }

    /// Typed blocking get via [`StreamItem`].
    ///
    /// # Errors
    ///
    /// As [`QueueInputConn::get`], plus decoding errors from `T`.
    pub fn get_typed<T: StreamItem>(&self) -> StmResult<(Timestamp, T, QTicket)> {
        let (ts, item, ticket) = self.get()?;
        Ok((ts, item.decode::<T>()?, ticket))
    }

    /// Settles a ticket: the item is done and becomes garbage.
    ///
    /// # Errors
    ///
    /// [`StmError::Absent`] for unknown/settled tickets,
    /// [`StmError::BadMode`] for a ticket belonging to another connection.
    pub fn consume(&self, ticket: QTicket) -> StmResult<()> {
        self.queue.do_consume(self.id, ticket)
    }

    /// Puts an unfinished item back at the head of the queue.
    ///
    /// # Errors
    ///
    /// As [`QueueInputConn::consume`].
    pub fn requeue(&self, ticket: QTicket) -> StmResult<()> {
        self.queue.do_requeue(self.id, ticket)
    }

    /// Tears the connection down now rather than waiting for drop: its
    /// in-flight tickets are pushed back to the head of the queue and
    /// any getter blocked on it wakes with
    /// [`StmError::NoSuchConnection`]. Idempotent; the eventual drop
    /// becomes a no-op. Used by failure recovery to orphan connections
    /// still referenced by blocked workers.
    pub fn disconnect(&self) {
        self.queue.do_disconnect_input(self.id);
    }
}

impl fmt::Debug for QueueInputConn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueueInputConn")
            .field("queue", &self.queue.id())
            .field("id", &self.id)
            .finish()
    }
}

impl Drop for QueueInputConn {
    fn drop(&mut self) {
        self.queue.do_disconnect_input(self.id);
    }
}

/// An output (putter) connection to a [`Queue`]; disconnects on drop.
pub struct QueueOutputConn {
    queue: Arc<Queue>,
    id: ConnId,
}

impl QueueOutputConn {
    /// This connection's id.
    #[must_use]
    pub fn id(&self) -> ConnId {
        self.id
    }

    /// The queue this connection is attached to.
    #[must_use]
    pub fn queue(&self) -> &Arc<Queue> {
        &self.queue
    }

    /// Blocking put (blocks only when bounded with
    /// [`OverflowPolicy::Block`] and full).
    ///
    /// # Errors
    ///
    /// [`StmError::Full`] under [`OverflowPolicy::Reject`],
    /// [`StmError::Closed`] after close.
    pub fn put(&self, ts: Timestamp, item: Item) -> StmResult<()> {
        self.queue.do_put(self.id, ts, item, Deadline::Never)
    }

    /// Non-blocking put.
    ///
    /// # Errors
    ///
    /// As [`QueueOutputConn::put`], with [`StmError::Full`] instead of
    /// blocking.
    pub fn try_put(&self, ts: Timestamp, item: Item) -> StmResult<()> {
        self.queue.do_put(self.id, ts, item, Deadline::Now)
    }

    /// Parks a reactor task until queue space frees up (bounded queues
    /// under [`OverflowPolicy::Block`]). Register first, then retry
    /// [`QueueOutputConn::try_put`].
    pub fn register_waker(&self, waker: &std::task::Waker) {
        self.queue.register_space_waker(waker);
    }

    /// Put with a timeout on the capacity wait.
    ///
    /// # Errors
    ///
    /// As [`QueueOutputConn::put`], plus [`StmError::Timeout`].
    pub fn put_timeout(&self, ts: Timestamp, item: Item, timeout: Duration) -> StmResult<()> {
        self.queue
            .do_put(self.id, ts, item, Deadline::after(timeout))
    }

    /// Enqueues a batch, returning one result per entry in order.
    ///
    /// The batch is not atomic: each entry succeeds or fails on its own,
    /// but successful entries land contiguously in FIFO order.
    #[must_use = "each entry reports its own success or failure"]
    pub fn put_many(&self, entries: Vec<(Timestamp, Item)>) -> Vec<StmResult<()>> {
        self.queue.do_put_many(self.id, entries, Deadline::Never)
    }

    /// Non-blocking batch put: entries that would block fail with
    /// [`StmError::Full`].
    #[must_use = "each entry reports its own success or failure"]
    pub fn try_put_many(&self, entries: Vec<(Timestamp, Item)>) -> Vec<StmResult<()>> {
        self.queue.do_put_many(self.id, entries, Deadline::Now)
    }

    /// Typed put via [`StreamItem`].
    ///
    /// # Errors
    ///
    /// As [`QueueOutputConn::put`].
    pub fn put_typed<T: StreamItem>(&self, ts: Timestamp, value: &T) -> StmResult<()> {
        self.put(ts, value.to_item())
    }

    /// Tears the connection down now rather than waiting for drop.
    /// Idempotent; used by failure recovery.
    pub fn disconnect(&self) {
        self.queue.do_disconnect_output(self.id);
    }
}

impl fmt::Debug for QueueOutputConn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueueOutputConn")
            .field("queue", &self.queue.id())
            .field("id", &self.id)
            .finish()
    }
}

impl Drop for QueueOutputConn {
    fn drop(&mut self) {
        self.queue.do_disconnect_output(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    fn ts(v: i64) -> Timestamp {
        Timestamp::new(v)
    }

    fn item(bytes: &[u8]) -> Item {
        Item::copy_from_slice(bytes)
    }

    #[test]
    fn fifo_order() {
        let q = Queue::standalone(QueueAttrs::default());
        let out = q.connect_output();
        let inp = q.connect_input();
        for v in 1..=3 {
            out.put(ts(v), item(&[v as u8])).unwrap();
        }
        for v in 1..=3u8 {
            let (_, it, t) = inp.get().unwrap();
            assert_eq!(it.payload(), &[v]);
            inp.consume(t).unwrap();
        }
    }

    #[test]
    fn lowest_unconsumed_covers_queued_and_in_flight_items() {
        let q = Queue::standalone(QueueAttrs::default());
        let out = q.connect_output();
        let inp = q.connect_input();
        assert_eq!(q.lowest_unconsumed_ts(), None);
        for v in [5, 5, 7] {
            out.put(ts(v), item(b"x")).unwrap();
        }
        // One of the two ts=5 items is consumed; its twin keeps 5 live.
        let (_, _, first) = inp.get().unwrap();
        inp.consume(first).unwrap();
        assert_eq!(q.lowest_unconsumed_ts(), Some(ts(5)));
        // Checked out but not consumed still counts.
        let (_, _, second) = inp.get().unwrap();
        assert_eq!(q.lowest_unconsumed_ts(), Some(ts(5)));
        inp.consume(second).unwrap();
        assert_eq!(q.lowest_unconsumed_ts(), Some(ts(7)));
        let (_, _, last) = inp.get().unwrap();
        inp.consume(last).unwrap();
        assert_eq!(q.lowest_unconsumed_ts(), None);
    }

    #[test]
    fn duplicate_timestamps_allowed() {
        let q = Queue::standalone(QueueAttrs::default());
        let out = q.connect_output();
        let inp = q.connect_input();
        out.put(ts(7), item(b"frag0").with_tag(0)).unwrap();
        out.put(ts(7), item(b"frag1").with_tag(1)).unwrap();
        let (t0, i0, k0) = inp.get().unwrap();
        let (t1, i1, k1) = inp.get().unwrap();
        assert_eq!((t0, t1), (ts(7), ts(7)));
        assert_eq!(i0.tag(), 0);
        assert_eq!(i1.tag(), 1);
        inp.consume(k0).unwrap();
        inp.consume(k1).unwrap();
    }

    #[test]
    fn each_item_delivered_exactly_once() {
        let q = Queue::standalone(QueueAttrs::default());
        let out = q.connect_output();
        for v in 0..100 {
            out.put(ts(v), item(&(v as u32).to_be_bytes())).unwrap();
        }
        q.close();
        let mut handles = Vec::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        for _ in 0..4 {
            let q = Arc::clone(&q);
            let seen = Arc::clone(&seen);
            handles.push(thread::spawn(move || {
                let inp = q.connect_input();
                loop {
                    match inp.get() {
                        Ok((_, it, ticket)) => {
                            let v = u32::from_be_bytes(it.payload().try_into().unwrap());
                            seen.lock().push(v);
                            inp.consume(ticket).unwrap();
                        }
                        Err(StmError::Closed) => break,
                        Err(e) => panic!("unexpected: {e}"),
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut got = seen.lock().clone();
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn requeue_puts_item_back_at_head() {
        let q = Queue::standalone(QueueAttrs::default());
        let out = q.connect_output();
        let inp = q.connect_input();
        out.put(ts(1), item(b"a")).unwrap();
        out.put(ts(2), item(b"b")).unwrap();
        let (_, it, ticket) = inp.get().unwrap();
        assert_eq!(it.payload(), b"a");
        inp.requeue(ticket).unwrap();
        let (_, it2, t2) = inp.get().unwrap();
        assert_eq!(it2.payload(), b"a"); // back at the head
        inp.consume(t2).unwrap();
    }

    #[test]
    fn ticket_misuse_errors() {
        let q = Queue::standalone(QueueAttrs::default());
        let out = q.connect_output();
        let a = q.connect_input();
        let b = q.connect_input();
        out.put(ts(1), item(b"x")).unwrap();
        let (_, _, ticket) = a.get().unwrap();
        // Another connection cannot settle a's ticket.
        assert_eq!(b.consume(ticket), Err(StmError::BadMode));
        assert_eq!(b.requeue(ticket), Err(StmError::BadMode));
        a.consume(ticket).unwrap();
        // Double settle.
        assert_eq!(a.consume(ticket), Err(StmError::Absent));
        assert_eq!(a.requeue(ticket), Err(StmError::Absent));
    }

    #[test]
    fn disconnect_requeues_inflight_items() {
        let q = Queue::standalone(QueueAttrs::default());
        let out = q.connect_output();
        out.put(ts(1), item(b"work")).unwrap();
        let worker = q.connect_input();
        let (_, _, _ticket) = worker.get().unwrap();
        assert_eq!(q.inflight_items(), 1);
        drop(worker); // crash: ticket never settled
        assert_eq!(q.inflight_items(), 0);
        assert_eq!(q.queued_items(), 1);
        let rescuer = q.connect_input();
        let (_, it, t) = rescuer.try_get().unwrap();
        assert_eq!(it.payload(), b"work");
        rescuer.consume(t).unwrap();
        assert_eq!(q.stats().requeues, 1);
    }

    #[test]
    fn blocking_get_wakes_on_put() {
        let q = Queue::standalone(QueueAttrs::default());
        let inp = q.connect_input();
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || {
            thread::sleep(Duration::from_millis(30));
            let out = q2.connect_output();
            out.put(ts(9), item(b"late")).unwrap();
        });
        let (t, it, k) = inp.get().unwrap();
        assert_eq!(t, ts(9));
        assert_eq!(it.payload(), b"late");
        inp.consume(k).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn get_timeout_expires() {
        let q = Queue::standalone(QueueAttrs::default());
        let inp = q.connect_input();
        assert_eq!(
            inp.get_timeout(Duration::from_millis(20)).unwrap_err(),
            StmError::Timeout
        );
    }

    #[test]
    fn bounded_block_paces_producer() {
        let q = Queue::standalone(QueueAttrs::builder().capacity(1).build());
        let out = q.connect_output();
        let inp = q.connect_input();
        out.put(ts(1), item(b"a")).unwrap();
        assert_eq!(out.try_put(ts(2), item(b"b")), Err(StmError::Full));
        let h = thread::spawn(move || {
            thread::sleep(Duration::from_millis(30));
            let (_, _, k) = inp.get().unwrap();
            inp.consume(k).unwrap();
            inp
        });
        out.put(ts(2), item(b"b")).unwrap(); // unblocks when getter drains
        drop(h.join().unwrap());
    }

    #[test]
    fn bounded_reject() {
        let q = Queue::standalone(
            QueueAttrs::builder()
                .capacity(1)
                .overflow(OverflowPolicy::Reject)
                .build(),
        );
        let out = q.connect_output();
        out.put(ts(1), item(b"a")).unwrap();
        assert_eq!(out.put(ts(2), item(b"b")), Err(StmError::Full));
    }

    #[test]
    fn bounded_drop_oldest_fires_hook() {
        let dropped = Arc::new(AtomicUsize::new(0));
        let d2 = Arc::clone(&dropped);
        let q = Queue::standalone(
            QueueAttrs::builder()
                .capacity(1)
                .overflow(OverflowPolicy::DropOldest)
                .build(),
        );
        q.set_garbage_hook(move |e| {
            assert_eq!(e.ts, ts(1));
            d2.fetch_add(1, Ordering::SeqCst);
        });
        let out = q.connect_output();
        out.put(ts(1), item(b"a")).unwrap();
        out.put(ts(2), item(b"b")).unwrap(); // evicts ts 1
        assert_eq!(dropped.load(Ordering::SeqCst), 1);
        assert_eq!(q.queued_items(), 1);
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let q = Queue::standalone(QueueAttrs::default());
        let out = q.connect_output();
        let inp = q.connect_input();
        out.put(ts(1), item(b"x")).unwrap();
        q.close();
        assert!(q.is_closed());
        assert_eq!(out.put(ts(2), item(b"y")), Err(StmError::Closed));
        let (_, _, k) = inp.get().unwrap(); // drains the remaining item
        inp.consume(k).unwrap();
        assert_eq!(inp.get().unwrap_err(), StmError::Closed);
    }

    #[test]
    fn garbage_hook_fires_on_consume() {
        let events = Arc::new(Mutex::new(Vec::new()));
        let e2 = Arc::clone(&events);
        let q = Queue::standalone(QueueAttrs::default());
        q.set_garbage_hook(move |e| e2.lock().push((e.ts, e.tag, e.len)));
        let out = q.connect_output();
        let inp = q.connect_input();
        out.put(ts(4), item(b"abc").with_tag(9)).unwrap();
        let (_, _, k) = inp.get().unwrap();
        inp.consume(k).unwrap();
        assert_eq!(events.lock().as_slice(), &[(ts(4), 9, 3)]);
    }

    #[test]
    fn typed_round_trip() {
        let q = Queue::standalone(QueueAttrs::default());
        let out = q.connect_output();
        let inp = q.connect_input();
        out.put_typed(ts(1), &"payload".to_owned()).unwrap();
        let (_, s, k) = inp.get_typed::<String>().unwrap();
        assert_eq!(s, "payload");
        inp.consume(k).unwrap();
    }

    #[test]
    fn stats_track_everything() {
        let q = Queue::standalone(QueueAttrs::default());
        let out = q.connect_output();
        let inp = q.connect_input();
        out.put(ts(1), item(b"ab")).unwrap();
        let (_, _, k) = inp.get().unwrap();
        inp.requeue(k).unwrap();
        let (_, _, k) = inp.get().unwrap();
        inp.consume(k).unwrap();
        let s = q.stats();
        assert_eq!(s.puts, 1);
        assert_eq!(s.gets, 2);
        assert_eq!(s.requeues, 1);
        assert_eq!(s.consumes, 1);
        assert_eq!(s.reclaimed_items, 1);
        assert_eq!(s.reclaimed_bytes, 2);
    }

    #[test]
    fn debug_impl_is_informative() {
        let q = Queue::standalone(QueueAttrs::default());
        let s = format!("{q:?}");
        assert!(s.contains("Queue"));
        assert!(s.contains("queued"));
    }

    #[test]
    fn explicit_disconnect_wakes_blocked_getter_and_requeues() {
        let q = Queue::standalone(QueueAttrs::default());
        let out = q.connect_output();
        let crashed = Arc::new(q.connect_input());
        out.put(ts(1), item(b"work")).unwrap();
        let (_, _, _ticket) = crashed.get().unwrap();
        // A second getter on the same (crashed) connection blocks on the
        // now-empty queue.
        let waiter = Arc::clone(&crashed);
        let h = thread::spawn(move || waiter.get());
        thread::sleep(Duration::from_millis(50));
        crashed.disconnect();
        assert_eq!(h.join().unwrap().unwrap_err(), StmError::NoSuchConnection);
        // The checked-out ticket went back to the head for survivors.
        let survivor = q.connect_input();
        let (_, recovered, k) = survivor.get().unwrap();
        assert_eq!(recovered.payload(), b"work");
        survivor.consume(k).unwrap();
    }

    // ---- sharding & batching ------------------------------------------

    #[test]
    fn shard_count_follows_attrs() {
        let q = Queue::standalone(QueueAttrs::default());
        assert_eq!(q.shard_count(), DEFAULT_STM_SHARDS as usize);
        let q = Queue::standalone(QueueAttrs::builder().shards(3).build());
        assert_eq!(q.shard_count(), 3);
        let q = Queue::standalone(QueueAttrs::builder().shards(0).build());
        assert_eq!(q.shard_count(), 1);
    }

    #[test]
    fn single_shard_queue_behaves_identically() {
        let q = Queue::standalone(QueueAttrs::builder().shards(1).build());
        let out = q.connect_output();
        let inp = q.connect_input();
        for v in 1..=3 {
            out.put(ts(v), item(&[v as u8])).unwrap();
        }
        let (_, _, k) = inp.get().unwrap();
        inp.requeue(k).unwrap();
        for v in 1..=3u8 {
            let (_, it, k) = inp.get().unwrap();
            assert_eq!(it.payload(), &[v]);
            inp.consume(k).unwrap();
        }
        assert_eq!(q.stats().reclaimed_items, 3);
    }

    #[test]
    fn put_many_dequeue_many_round_trip() {
        let q = Queue::standalone(QueueAttrs::default());
        let out = q.connect_output();
        let inp = q.connect_input();
        let results = out.put_many((1..=32).map(|v| (ts(v), item(&[v as u8]))).collect());
        assert_eq!(results.len(), 32);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(q.queued_items(), 32);
        assert_eq!(q.stats().puts, 32);
        // Drain in two batches; FIFO order must hold across them.
        let first = inp.dequeue_many(20).unwrap();
        let second = inp.dequeue_many(20).unwrap();
        assert_eq!(first.len(), 20);
        assert_eq!(second.len(), 12);
        for (expected, (_, it, k)) in (1u8..).zip(first.into_iter().chain(second)) {
            assert_eq!(it.payload(), &[expected]);
            inp.consume(k).unwrap();
        }
        assert_eq!(q.stats().gets, 32);
        assert_eq!(q.stats().reclaimed_items, 32);
    }

    #[test]
    fn try_dequeue_many_on_empty_is_absent() {
        let q = Queue::standalone(QueueAttrs::default());
        let inp = q.connect_input();
        assert_eq!(inp.try_dequeue_many(4).unwrap_err(), StmError::Absent);
        assert!(inp.dequeue_many(0).unwrap().is_empty());
    }

    #[test]
    fn put_many_on_bounded_queue_applies_overflow_per_item() {
        let q = Queue::standalone(
            QueueAttrs::builder()
                .capacity(2)
                .overflow(OverflowPolicy::Reject)
                .build(),
        );
        let out = q.connect_output();
        let results = out.put_many(vec![
            (ts(1), item(b"a")),
            (ts(2), item(b"b")),
            (ts(3), item(b"c")),
        ]);
        assert_eq!(results[0], Ok(()));
        assert_eq!(results[1], Ok(()));
        assert_eq!(results[2], Err(StmError::Full));
        assert_eq!(q.queued_items(), 2);
    }

    #[test]
    fn put_many_wakes_all_blocked_getters() {
        let q = Queue::standalone(QueueAttrs::default());
        let mut handles = Vec::new();
        for _ in 0..3 {
            let q = Arc::clone(&q);
            handles.push(thread::spawn(move || {
                let inp = q.connect_input();
                let (_, _, k) = inp.get().unwrap();
                inp.consume(k).unwrap();
            }));
        }
        thread::sleep(Duration::from_millis(30));
        let out = q.connect_output();
        let rs = out.put_many((1..=3).map(|v| (ts(v), item(&[v as u8]))).collect());
        assert!(rs.iter().all(Result::is_ok));
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(q.stats().consumes, 3);
    }

    #[test]
    fn dequeued_batch_tickets_settle_independently() {
        let q = Queue::standalone(QueueAttrs::builder().shards(2).build());
        let out = q.connect_output();
        let inp = q.connect_input();
        let rs = out.put_many((1..=4).map(|v| (ts(v), item(&[v as u8]))).collect());
        assert!(rs.iter().all(Result::is_ok));
        let got = inp.dequeue_many(4).unwrap();
        assert_eq!(q.inflight_items(), 4);
        // Requeue the middle two, consume the rest.
        inp.requeue(got[1].2).unwrap();
        inp.requeue(got[2].2).unwrap();
        inp.consume(got[0].2).unwrap();
        inp.consume(got[3].2).unwrap();
        assert_eq!(q.inflight_items(), 0);
        assert_eq!(q.queued_items(), 2);
        assert_eq!(q.stats().requeues, 2);
    }

    #[test]
    fn requeue_wakes_every_parked_getter() {
        // Regression: requeue used notify_one, and a notification can land
        // on a timed waiter whose deadline just expired — the token is
        // consumed but the waiter reports Timeout without claiming, so the
        // requeued item sat parked until the next enqueue. With notify_all
        // some live waiter always claims it.
        for i in 0..25u64 {
            let q = Queue::standalone(QueueAttrs::default());
            let out = q.connect_output();
            let holder = q.connect_input();
            out.put(ts(1), item(b"work")).unwrap();
            let (_, _, ticket) = holder.get().unwrap();

            let short = q.connect_input();
            let long = q.connect_input();
            let racer = thread::spawn(move || short.get_timeout(Duration::from_millis(20)));
            let backstop = thread::spawn(move || long.get_timeout(Duration::from_secs(5)));
            // Sweep the requeue across the short waiter's deadline so some
            // iterations land the notification in its expiry window.
            thread::sleep(Duration::from_millis(16 + i % 8));
            holder.requeue(ticket).unwrap();
            let a = racer.join().unwrap();
            let b = backstop.join().unwrap();
            assert!(
                a.is_ok() || b.is_ok(),
                "requeued item stranded: both parked getters timed out (iter {i})"
            );
        }
    }

    #[test]
    fn concurrent_consumes_across_shards() {
        let q = Queue::standalone(QueueAttrs::default());
        let out = q.connect_output();
        for v in 0..200 {
            out.put(ts(v), item(&(v as u32).to_be_bytes())).unwrap();
        }
        let inp = Arc::new(q.connect_input());
        let tickets: Vec<QTicket> = inp
            .dequeue_many(200)
            .unwrap()
            .into_iter()
            .map(|(_, _, k)| k)
            .collect();
        let mut handles = Vec::new();
        for chunk in tickets.chunks(50) {
            let inp = Arc::clone(&inp);
            let chunk = chunk.to_vec();
            handles.push(thread::spawn(move || {
                for k in chunk {
                    inp.consume(k).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(q.inflight_items(), 0);
        assert_eq!(q.stats().consumes, 200);
        assert_eq!(q.stats().reclaimed_items, 200);
    }
}
