//! Shared execution of RPC operations against an address space.
//!
//! Both entry points into an address space — inter-AS messages handled
//! on the CLF receive thread, and the per-client surrogates — funnel
//! requests through
//! [`execute`], which resolves session-local connection handles through a
//! [`ConnTable`] and performs the operation via the proxy layer. Surrogates
//! additionally pass a [`GcNoteQueue`]; garbage hooks installed on behalf
//! of the end device push into it, and the notes ride back piggy-backed on
//! the next reply (paper §3.2.4).

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use dstampede_core::{AsId, ResourceId, StmError, StmResult};
use dstampede_obs::trace;
use dstampede_wire::{BatchGot, GcNote, Reply, Request, WaitSpec};

use crate::addrspace::AddressSpace;
use crate::proxy::{wait_to_timeout, ChanInput, ChanOutput, QueueInput, QueueOutput};
use crate::replicate::ReplicaAttrs;

/// One session-local connection.
pub enum ConnEntry {
    /// Channel input connection.
    ChanIn(Arc<ChanInput>),
    /// Channel output connection.
    ChanOut(Arc<ChanOutput>),
    /// Queue input connection.
    QueueIn(Arc<QueueInput>),
    /// Queue output connection.
    QueueOut(Arc<QueueOutput>),
}

impl ConnEntry {
    /// Disconnects the underlying connection *explicitly*, on behalf of a
    /// dead owner. Blocked workers may still hold `Arc` clones of the
    /// connection — so merely dropping the table entry would not release
    /// the owner's GC claims; the explicit disconnect advances the
    /// connection's virtual time to infinity, drops its consume marks,
    /// and requeues any in-flight queue tickets.
    pub fn orphan(&self) {
        match self {
            ConnEntry::ChanIn(c) => c.disconnect(),
            ConnEntry::ChanOut(c) => c.disconnect(),
            ConnEntry::QueueIn(q) => q.disconnect(),
            ConnEntry::QueueOut(q) => q.disconnect(),
        }
    }
}

impl fmt::Debug for ConnEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConnEntry::ChanIn(c) => write!(f, "ChanIn({})", c.channel_id()),
            ConnEntry::ChanOut(c) => write!(f, "ChanOut({})", c.channel_id()),
            ConnEntry::QueueIn(q) => write!(f, "QueueIn({})", q.queue_id()),
            ConnEntry::QueueOut(q) => write!(f, "QueueOut({})", q.queue_id()),
        }
    }
}

/// Replayed non-idempotent requests answered from cache, at most this
/// many remembered per table (FIFO eviction).
const REPLAY_CACHE_CAP: usize = 512;

/// Maps session-local `u64` handles to live connections.
///
/// Entries are `Arc`-shared so blocking operations can proceed on a clone
/// while the table lock is free; a disconnect removes the entry and the
/// connection closes when the last in-flight operation finishes. Entries
/// are never dropped under the table lock: closing a connection wakes
/// parked requests, which look their handles up again. Each
/// entry is tagged with the peer address space that opened it (when opened
/// over inter-AS RPC), so [`ConnTable::remove_owned_by`] can reap a dead
/// peer's connections. The table also holds the dedup cache answering
/// replayed [`Request::WithId`] requests.
#[derive(Debug, Default)]
pub struct ConnTable {
    map: Mutex<HashMap<u64, (Option<AsId>, ConnEntry)>>,
    next: AtomicU64,
    replays: Mutex<ReplayCache>,
}

#[derive(Debug, Default)]
struct ReplayCache {
    replies: HashMap<(AsId, u64), Reply>,
    order: VecDeque<(AsId, u64)>,
}

impl ConnTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        ConnTable::default()
    }

    /// Stores a connection opened by `origin` (`None` for connections
    /// opened locally or by an end-device session), returning its handle.
    pub fn insert(&self, origin: Option<AsId>, entry: ConnEntry) -> u64 {
        let handle = self.next.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
        self.map.lock().insert(handle, (origin, entry));
        handle
    }

    fn chan_in(&self, handle: u64) -> StmResult<Arc<ChanInput>> {
        match self.map.lock().get(&handle) {
            Some((_, ConnEntry::ChanIn(c))) => Ok(Arc::clone(c)),
            Some(_) => Err(StmError::BadMode),
            None => Err(StmError::NoSuchConnection),
        }
    }

    fn chan_out(&self, handle: u64) -> StmResult<Arc<ChanOutput>> {
        match self.map.lock().get(&handle) {
            Some((_, ConnEntry::ChanOut(c))) => Ok(Arc::clone(c)),
            Some(_) => Err(StmError::BadMode),
            None => Err(StmError::NoSuchConnection),
        }
    }

    fn queue_in(&self, handle: u64) -> StmResult<Arc<QueueInput>> {
        match self.map.lock().get(&handle) {
            Some((_, ConnEntry::QueueIn(q))) => Ok(Arc::clone(q)),
            Some(_) => Err(StmError::BadMode),
            None => Err(StmError::NoSuchConnection),
        }
    }

    fn queue_out(&self, handle: u64) -> StmResult<Arc<QueueOutput>> {
        match self.map.lock().get(&handle) {
            Some((_, ConnEntry::QueueOut(q))) => Ok(Arc::clone(q)),
            Some(_) => Err(StmError::BadMode),
            None => Err(StmError::NoSuchConnection),
        }
    }

    /// Removes a connection (it closes once in-flight operations drain).
    ///
    /// # Errors
    ///
    /// [`StmError::NoSuchConnection`] for unknown handles.
    pub fn remove(&self, handle: u64) -> StmResult<()> {
        let entry = self.map.lock().remove(&handle);
        entry.map(|_| ()).ok_or(StmError::NoSuchConnection)
    }

    /// Removes and returns every connection `peer` opened (for orphaning
    /// after `peer` is declared dead).
    #[must_use]
    pub fn remove_owned_by(&self, peer: AsId) -> Vec<ConnEntry> {
        let mut map = self.map.lock();
        let handles: Vec<u64> = map
            .iter()
            .filter(|(_, (origin, _))| *origin == Some(peer))
            .map(|(h, _)| *h)
            .collect();
        handles
            .into_iter()
            .filter_map(|h| map.remove(&h).map(|(_, entry)| entry))
            .collect()
    }

    /// The cached reply for a replayed `(origin, req_id)`, if any.
    #[must_use]
    pub fn replay_hit(&self, origin: AsId, req_id: u64) -> Option<Reply> {
        self.replays.lock().replies.get(&(origin, req_id)).cloned()
    }

    /// Remembers the reply for `(origin, req_id)` so a retried request is
    /// answered without re-executing.
    pub fn record_replay(&self, origin: AsId, req_id: u64, reply: Reply) {
        let mut cache = self.replays.lock();
        let key = (origin, req_id);
        if cache.replies.insert(key, reply).is_none() {
            cache.order.push_back(key);
            if cache.order.len() > REPLAY_CACHE_CAP {
                if let Some(old) = cache.order.pop_front() {
                    cache.replies.remove(&old);
                }
            }
        }
    }

    /// Number of live connections.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// Whether no connections are open.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.lock().is_empty()
    }

    /// Drops every connection (session teardown).
    pub fn clear(&self) {
        let entries = std::mem::take(&mut *self.map.lock());
        drop(entries);
    }
}

/// Bounded queue of garbage notifications awaiting delivery to an end
/// device. Oldest notes are dropped beyond the cap — the client's hooks
/// are advisory resource-release callbacks, not a reliable stream.
#[derive(Debug, Default)]
pub struct GcNoteQueue {
    notes: Mutex<Vec<GcNote>>,
}

/// Maximum notes buffered per session.
const GC_NOTE_CAP: usize = 1024;

impl GcNoteQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        GcNoteQueue::default()
    }

    /// Appends a note, evicting the oldest past the cap.
    pub fn push(&self, note: GcNote) {
        let mut notes = self.notes.lock();
        if notes.len() >= GC_NOTE_CAP {
            notes.remove(0);
        }
        notes.push(note);
    }

    /// Takes every pending note.
    #[must_use]
    pub fn drain(&self) -> Vec<GcNote> {
        std::mem::take(&mut *self.notes.lock())
    }

    /// Number of pending notes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.notes.lock().len()
    }

    /// Whether no notes are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.notes.lock().is_empty()
    }
}

/// Whether executing this request may block the calling thread (see
/// [`shim_plan`] for how each entry point keeps such requests off its
/// serving thread).
#[must_use]
pub fn is_blocking(req: &Request) -> bool {
    match req {
        Request::ChannelPut { wait, .. }
        | Request::ChannelGet { wait, .. }
        | Request::QueuePut { wait, .. }
        | Request::QueueGet { wait, .. }
        | Request::PutBatch { wait, .. }
        | Request::NsLookup { wait, .. } => !matches!(wait, WaitSpec::NonBlocking),
        // GetBatch resolves every spec non-blocking by contract.
        // A cluster-wide pull blocks on RPC rounds to every peer.
        Request::StatsPull { cluster }
        | Request::TracePull { cluster }
        | Request::HistoryPull { cluster }
        | Request::HealthPull { cluster } => *cluster,
        Request::WithId { req, .. } => is_blocking(req),
        _ => false,
    }
}

/// How a reactor surrogate, or the CLF receive thread serving a peer,
/// should run one request. Blocking waits cannot run on either directly —
/// a parked worker starves every other session, a parked receive thread
/// every peer — so each request is classified by where its wakeup would
/// come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShimPlan {
    /// Run [`execute`] inline: the request cannot actually block here
    /// (non-blocking wait, or a full-condition that reports/evicts
    /// instead of blocking).
    Inline,
    /// Rewrite the wait to `NonBlocking` and retry, parking a task waker
    /// on the local container's [`dstampede_core::WakerSet`] between
    /// attempts.
    Park,
    /// No local wakeup source (remote container, cluster-wide pull,
    /// blocking batch): offload the legacy blocking [`execute`] to a
    /// dedicated thread.
    Offload,
}

/// Classifies `req` for a reactor surrogate or an inter-AS request.
#[must_use]
pub fn shim_plan(space: &Arc<AddressSpace>, conns: &ConnTable, req: &Request) -> ShimPlan {
    if !is_blocking(req) {
        return ShimPlan::Inline;
    }
    match req {
        Request::ChannelGet { conn, .. } => match conns.chan_in(*conn) {
            Ok(c) if c.is_local() => ShimPlan::Park,
            Ok(_) => ShimPlan::Offload,
            // Unknown handle: inline execute reports the error.
            Err(_) => ShimPlan::Inline,
        },
        Request::QueueGet { conn, .. } => match conns.queue_in(*conn) {
            Ok(q) if q.is_local() => ShimPlan::Park,
            Ok(_) => ShimPlan::Offload,
            Err(_) => ShimPlan::Inline,
        },
        Request::ChannelPut { conn, .. } => match conns.chan_out(*conn) {
            Ok(c) => match c.local_blocks_when_full() {
                Some(true) => ShimPlan::Park,
                Some(false) => ShimPlan::Inline,
                None => ShimPlan::Offload,
            },
            Err(_) => ShimPlan::Inline,
        },
        Request::QueuePut { conn, .. } => match conns.queue_out(*conn) {
            Ok(q) => match q.local_blocks_when_full() {
                Some(true) => ShimPlan::Park,
                Some(false) => ShimPlan::Inline,
                None => ShimPlan::Offload,
            },
            Err(_) => ShimPlan::Inline,
        },
        // A blocking batch put that can really block has per-item blocking
        // semantics a whole-batch retry cannot reproduce (placed items
        // must not re-run); keep the legacy path on a thread.
        Request::PutBatch { conn, .. } => match conns.chan_out(*conn) {
            Ok(c) => match c.local_blocks_when_full() {
                Some(true) => ShimPlan::Offload,
                Some(false) => ShimPlan::Inline,
                None => ShimPlan::Offload,
            },
            Err(_) => match conns.queue_out(*conn) {
                Ok(q) => match q.local_blocks_when_full() {
                    Some(true) => ShimPlan::Offload,
                    Some(false) => ShimPlan::Inline,
                    None => ShimPlan::Offload,
                },
                Err(_) => ShimPlan::Inline,
            },
        },
        Request::NsLookup { .. } => {
            if space.nameserver().is_some() {
                ShimPlan::Park
            } else {
                ShimPlan::Offload
            }
        }
        Request::WithId { req, .. } => shim_plan(space, conns, req),
        // Cluster-wide pulls block on RPC rounds to every peer.
        _ => ShimPlan::Offload,
    }
}

/// Parks `waker` on the wakeup source a blocked `req` waits for. Returns
/// `false` when no local source exists (the caller falls back to inline
/// execution, which reports the underlying error).
pub fn register_parked_waker(
    space: &Arc<AddressSpace>,
    conns: &ConnTable,
    req: &Request,
    waker: &std::task::Waker,
) -> bool {
    match req {
        Request::ChannelGet { conn, .. } => conns
            .chan_in(*conn)
            .is_ok_and(|c| c.register_local_waker(waker)),
        Request::QueueGet { conn, .. } => conns
            .queue_in(*conn)
            .is_ok_and(|q| q.register_local_waker(waker)),
        Request::ChannelPut { conn, .. } => conns
            .chan_out(*conn)
            .is_ok_and(|c| c.register_local_waker(waker)),
        Request::QueuePut { conn, .. } => conns
            .queue_out(*conn)
            .is_ok_and(|q| q.register_local_waker(waker)),
        Request::NsLookup { .. } => match space.nameserver() {
            Some(ns) => {
                ns.register_waker(waker);
                true
            }
            None => false,
        },
        Request::WithId { req, .. } => register_parked_waker(space, conns, req, waker),
        _ => false,
    }
}

/// The request's wait discipline, when it carries one.
#[must_use]
pub fn wait_of(req: &Request) -> Option<WaitSpec> {
    match req {
        Request::ChannelPut { wait, .. }
        | Request::ChannelGet { wait, .. }
        | Request::QueuePut { wait, .. }
        | Request::QueueGet { wait, .. }
        | Request::PutBatch { wait, .. }
        | Request::NsLookup { wait, .. } => Some(*wait),
        Request::WithId { req, .. } => wait_of(req),
        _ => None,
    }
}

/// A copy of `req` with its wait discipline rewritten to `NonBlocking`,
/// for one shim attempt between parks.
#[must_use]
pub fn rewrite_nonblocking(req: &Request) -> Request {
    let mut copy = req.clone();
    fn set_wait(req: &mut Request) {
        match req {
            Request::ChannelPut { wait, .. }
            | Request::ChannelGet { wait, .. }
            | Request::QueuePut { wait, .. }
            | Request::QueueGet { wait, .. }
            | Request::PutBatch { wait, .. }
            | Request::NsLookup { wait, .. } => *wait = WaitSpec::NonBlocking,
            Request::WithId { req, .. } => set_wait(req),
            _ => {}
        }
    }
    set_wait(&mut copy);
    copy
}

/// Whether a reply to a `NonBlocking` attempt means "would have blocked"
/// for the shim retry loop: item not there yet ([`StmError::Absent`]),
/// name not registered yet ([`StmError::NameAbsent`]), or container full
/// ([`StmError::Full`] — only consulted when [`shim_plan`] already proved
/// the container blocks on full).
#[must_use]
pub fn reply_would_block(reply: &Reply) -> bool {
    match reply {
        Reply::Error { code, .. } => {
            *code == StmError::Absent.code()
                || *code == StmError::NameAbsent.code()
                || *code == StmError::Full.code()
        }
        _ => false,
    }
}

fn ok_or_error(result: StmResult<Reply>) -> Reply {
    match result {
        Ok(reply) => reply,
        Err(e) => Reply::from_error(&e),
    }
}

/// Executes one request against an address space.
///
/// `conns` resolves the request's session-local connection handles;
/// `gc` (surrogate sessions only) receives garbage notes for resources the
/// session installed hooks on; `origin` is the peer address space the
/// request arrived from (`None` for local and end-device-session calls) —
/// it tags connections for dead-peer reaping and keys the
/// [`Request::WithId`] dedup cache. `Attach`/`Detach` are
/// session-lifecycle messages handled by the transport layer and answered
/// with a protocol error here.
pub fn execute(
    space: &Arc<AddressSpace>,
    conns: &ConnTable,
    gc: Option<&Arc<GcNoteQueue>>,
    origin: Option<AsId>,
    req: Request,
) -> Reply {
    ok_or_error(execute_inner(space, conns, gc, origin, req))
}

fn execute_inner(
    space: &Arc<AddressSpace>,
    conns: &ConnTable,
    gc: Option<&Arc<GcNoteQueue>>,
    origin: Option<AsId>,
    req: Request,
) -> StmResult<Reply> {
    match req {
        Request::Attach { .. } | Request::Detach => Err(StmError::Protocol(
            "session lifecycle message outside a session".into(),
        )),
        Request::Ping { nonce } => Ok(Reply::Pong { nonce }),
        Request::Heartbeat { .. } => Ok(Reply::Ok), // lease renewed on receipt
        Request::WithId { req_id, req } => {
            let Some(origin_id) = origin else {
                return Err(StmError::Protocol("WithId without an origin".into()));
            };
            if let Some(hit) = conns.replay_hit(origin_id, req_id) {
                return Ok(hit);
            }
            // Errors are cached too: a replayed attempt must observe the
            // original outcome, whatever it was.
            let reply = execute(space, conns, gc, origin, *req);
            conns.record_replay(origin_id, req_id, reply.clone());
            Ok(reply)
        }
        // Creates route through placement only on their first hop
        // (`origin == None`: a local or end-device-session call). A create
        // arriving from a peer was already placed — it lands here, so a
        // forwarded create can never bounce again.
        Request::ChannelCreate { name, attrs } => {
            let resource = if origin.is_none() {
                ResourceId::Channel(space.create_channel_placed(name, attrs)?)
            } else {
                ResourceId::Channel(space.host_channel(name, attrs).id())
            };
            Ok(Reply::Created { resource })
        }
        Request::QueueCreate { name, attrs } => {
            let resource = if origin.is_none() {
                ResourceId::Queue(space.create_queue_placed(name, attrs)?)
            } else {
                ResourceId::Queue(space.host_queue(name, attrs).id())
            };
            Ok(Reply::Created { resource })
        }
        Request::ReplicaOpenChannel { chan, name, attrs } => {
            space.replicas().open(
                ResourceId::Channel(chan),
                name,
                ReplicaAttrs::Channel(attrs),
            );
            Ok(Reply::Ok)
        }
        Request::ReplicaOpenQueue { queue, name, attrs } => {
            space
                .replicas()
                .open(ResourceId::Queue(queue), name, ReplicaAttrs::Queue(attrs));
            Ok(Reply::Ok)
        }
        Request::ReplicatePut {
            resource,
            floor,
            items,
        } => {
            space.replicas().append(resource, floor, &items)?;
            Ok(Reply::Ok)
        }
        Request::ConnectChannelIn {
            chan,
            interest,
            filter,
        } => {
            let conn = space
                .open_channel(chan)?
                .connect_input_filtered(interest, filter)?;
            Ok(Reply::Connected {
                conn: conns.insert(origin, ConnEntry::ChanIn(Arc::new(conn))),
            })
        }
        Request::ConnectChannelOut { chan } => {
            let conn = space.open_channel(chan)?.connect_output()?;
            Ok(Reply::Connected {
                conn: conns.insert(origin, ConnEntry::ChanOut(Arc::new(conn))),
            })
        }
        Request::ConnectQueueIn { queue } => {
            let conn = space.open_queue(queue)?.connect_input()?;
            Ok(Reply::Connected {
                conn: conns.insert(origin, ConnEntry::QueueIn(Arc::new(conn))),
            })
        }
        Request::ConnectQueueOut { queue } => {
            let conn = space.open_queue(queue)?.connect_output()?;
            Ok(Reply::Connected {
                conn: conns.insert(origin, ConnEntry::QueueOut(Arc::new(conn))),
            })
        }
        Request::Disconnect { conn } => {
            conns.remove(conn)?;
            Ok(Reply::Ok)
        }
        Request::ChannelPut {
            conn,
            ts,
            tag,
            payload,
            wait,
        } => {
            let out = conns.chan_out(conn)?;
            // The ambient context (scoped from the request frame by the
            // transport layer) rides into the item so downstream spans —
            // gets, consumes, GC reclamation — join the originating trace.
            let item = dstampede_core::Item::new(payload)
                .with_tag(tag)
                .with_trace(trace::current());
            out.put(ts, item, wait)?;
            Ok(Reply::Ok)
        }
        Request::ChannelGet { conn, spec, wait } => {
            let inp = conns.chan_in(conn)?;
            let (ts, item) = inp.get(spec, wait)?;
            // Export the item's context as the ambient context so the
            // transport layer can stamp it onto the reply frame, carrying
            // the trace back to the caller's address space.
            if item.trace_context().is_some() {
                let _ = trace::set_current(item.trace_context());
            }
            Ok(Reply::Item {
                ts,
                tag: item.tag(),
                payload: item.payload_bytes(),
            })
        }
        Request::ChannelConsume { conn, upto } => {
            conns.chan_in(conn)?.consume_until(upto)?;
            Ok(Reply::Ok)
        }
        Request::ChannelSetVt { conn, vt } => {
            conns
                .chan_in(conn)?
                .set_vt(dstampede_core::VirtualTime::at(vt))?;
            Ok(Reply::Ok)
        }
        Request::QueuePut {
            conn,
            ts,
            tag,
            payload,
            wait,
        } => {
            let out = conns.queue_out(conn)?;
            let item = dstampede_core::Item::new(payload)
                .with_tag(tag)
                .with_trace(trace::current());
            out.put(ts, item, wait)?;
            Ok(Reply::Ok)
        }
        Request::QueueGet { conn, wait } => {
            let inp = conns.queue_in(conn)?;
            let (ts, item, ticket) = inp.get(wait)?;
            if item.trace_context().is_some() {
                let _ = trace::set_current(item.trace_context());
            }
            Ok(Reply::QueueItem {
                ts,
                tag: item.tag(),
                payload: item.payload_bytes(),
                ticket,
            })
        }
        Request::QueueConsume { conn, ticket } => {
            conns.queue_in(conn)?.consume(ticket)?;
            Ok(Reply::Ok)
        }
        Request::QueueRequeue { conn, ticket } => {
            conns.queue_in(conn)?.requeue(ticket)?;
            Ok(Reply::Ok)
        }
        Request::PutBatch { conn, items, wait } => {
            // One frame serves both container kinds: the connection handle
            // decides whether the batch lands in a channel or a queue.
            let entries: Vec<(dstampede_core::Timestamp, dstampede_core::Item)> = items
                .into_iter()
                .map(|i| {
                    // Per-item contexts beat the frame-level ambient one,
                    // so every item keeps an independent causal identity.
                    let ctx = i.trace.or_else(trace::current);
                    (
                        i.ts,
                        dstampede_core::Item::new(i.payload)
                            .with_tag(i.tag)
                            .with_trace(ctx),
                    )
                })
                .collect();
            let results = match conns.chan_out(conn) {
                Ok(out) => out.put_many(entries, wait)?,
                Err(StmError::BadMode) => conns.queue_out(conn)?.put_many(entries, wait)?,
                Err(e) => return Err(e),
            };
            Ok(Reply::BatchResults {
                codes: results
                    .iter()
                    .map(|r| match r {
                        Ok(()) => 0,
                        Err(e) => e.code(),
                    })
                    .collect(),
            })
        }
        Request::GetBatch { conn, specs, max } => {
            let items = match conns.chan_in(conn) {
                Ok(inp) => inp
                    .get_many(&specs)?
                    .into_iter()
                    .map(|r| match r {
                        Ok((ts, item)) => BatchGot {
                            code: 0,
                            ts,
                            tag: item.tag(),
                            payload: item.payload_bytes(),
                            ticket: 0,
                            trace: item.trace_context(),
                        },
                        Err(e) => BatchGot {
                            code: e.code(),
                            ts: dstampede_core::Timestamp::new(0),
                            tag: 0,
                            payload: bytes::Bytes::new(),
                            ticket: 0,
                            trace: None,
                        },
                    })
                    .collect(),
                Err(StmError::BadMode) => conns
                    .queue_in(conn)?
                    .dequeue_many(max as usize)?
                    .into_iter()
                    .map(|(ts, item, ticket)| BatchGot {
                        code: 0,
                        ts,
                        tag: item.tag(),
                        payload: item.payload_bytes(),
                        ticket,
                        trace: item.trace_context(),
                    })
                    .collect(),
                Err(e) => return Err(e),
            };
            Ok(Reply::BatchItems { items })
        }
        Request::NsRegister {
            name,
            resource,
            meta,
        } => {
            space.ns_register(&name, resource, &meta)?;
            Ok(Reply::Ok)
        }
        Request::NsLookup { name, wait } => {
            let (resource, meta) = match wait_to_timeout(wait) {
                None => space.ns_lookup(&name)?,
                Some(timeout) => space.ns_lookup_wait(&name, timeout)?,
            };
            Ok(Reply::NsFound { resource, meta })
        }
        Request::NsUnregister { name } => {
            space.ns_unregister(&name)?;
            Ok(Reply::Ok)
        }
        Request::NsList => Ok(Reply::NsEntries {
            entries: space.ns_list()?,
        }),
        Request::InstallGarbageHook { resource } => {
            let Some(queue) = gc else {
                return Err(StmError::BadMode);
            };
            if resource.owner() != space.id() {
                // Hooks relay only for containers in the surrogate's own
                // address space (the paper's application structure); see
                // DESIGN.md "limitations".
                return Err(StmError::BadMode);
            }
            // Hold the session's note queue weakly: when the surrogate
            // session ends, its hook becomes a no-op instead of pinning the
            // queue for the container's lifetime.
            let sink = Arc::downgrade(queue);
            match resource {
                ResourceId::Channel(id) => {
                    let chan = space.registry().channel(id)?;
                    chan.add_garbage_hook(move |e| {
                        if let Some(sink) = sink.upgrade() {
                            sink.push(GcNote {
                                resource: e.resource,
                                ts: e.ts,
                                tag: e.tag,
                                len: e.len,
                            });
                        }
                    });
                }
                ResourceId::Queue(id) => {
                    let q = space.registry().queue(id)?;
                    q.add_garbage_hook(move |e| {
                        if let Some(sink) = sink.upgrade() {
                            sink.push(GcNote {
                                resource: e.resource,
                                ts: e.ts,
                                tag: e.tag,
                                len: e.len,
                            });
                        }
                    });
                }
            }
            Ok(Reply::Ok)
        }
        Request::GcReport { from, min_vt } => {
            space.gc_record_report(from, dstampede_core::VirtualTime::at(min_vt));
            Ok(Reply::Ok)
        }
        Request::StatsPull { cluster } => {
            let snap = if cluster {
                space.stats_cluster_snapshot()
            } else {
                space.stats_snapshot()
            };
            Ok(Reply::StatsReport {
                snapshot: bytes::Bytes::from(snap.encode()),
            })
        }
        Request::TracePull { cluster } => {
            let dump = if cluster {
                space.trace_cluster_dump()
            } else {
                space.trace_dump()
            };
            Ok(Reply::TraceReport {
                dump: bytes::Bytes::from(dump.encode()),
            })
        }
        Request::HistoryPull { cluster } => {
            let dump = if cluster {
                space.history_cluster_dump()
            } else {
                space.history_dump()
            };
            Ok(Reply::HistoryReport {
                dump: bytes::Bytes::from(dump.encode()),
            })
        }
        Request::HealthPull { cluster } => {
            let report = if cluster {
                space.health_cluster_report()
            } else {
                space.health_report()
            };
            Ok(Reply::HealthReport {
                report: bytes::Bytes::from(report.encode()),
            })
        }
        other => Err(StmError::Protocol(format!("unhandled request {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstampede_core::{AsId, ChanId, Timestamp};

    #[test]
    fn conn_table_handles_are_unique_and_typed() {
        let table = ConnTable::new();
        assert!(table.is_empty());
        assert_eq!(table.remove(1).unwrap_err(), StmError::NoSuchConnection);
        assert_eq!(table.chan_in(1).unwrap_err(), StmError::NoSuchConnection);
    }

    #[test]
    fn gc_note_queue_caps_and_drains() {
        let q = GcNoteQueue::new();
        let note = GcNote {
            resource: ResourceId::Channel(ChanId {
                owner: AsId(0),
                index: 1,
            }),
            ts: Timestamp::new(1),
            tag: 0,
            len: 8,
        };
        for _ in 0..(GC_NOTE_CAP + 10) {
            q.push(note);
        }
        assert_eq!(q.len(), GC_NOTE_CAP);
        let drained = q.drain();
        assert_eq!(drained.len(), GC_NOTE_CAP);
        assert!(q.is_empty());
    }

    #[test]
    fn blocking_classification() {
        use dstampede_core::GetSpec;
        let blocking = Request::ChannelGet {
            conn: 1,
            spec: GetSpec::Latest,
            wait: WaitSpec::Forever,
        };
        let non_blocking = Request::ChannelGet {
            conn: 1,
            spec: GetSpec::Latest,
            wait: WaitSpec::NonBlocking,
        };
        assert!(is_blocking(&blocking));
        assert!(!is_blocking(&non_blocking));
        assert!(!is_blocking(&Request::NsList));
        assert!(is_blocking(&Request::NsLookup {
            name: "x".into(),
            wait: WaitSpec::TimeoutMs(10),
        }));
    }
}
