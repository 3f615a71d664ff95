//! Per-address-space registry of channels and queues.
//!
//! Every address space owns a registry that allocates system-wide unique
//! ids ([`ChanId`]/[`QueueId`] embed the owning [`AsId`]) and resolves ids
//! back to containers. The distributed runtime routes operations on remote
//! ids to the owner's registry.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use dstampede_obs::MetricsRegistry;
use parking_lot::RwLock;

use crate::attr::{ChannelAttrs, QueueAttrs};
use crate::channel::Channel;
use crate::error::{StmError, StmResult};
use crate::ids::{AsId, ChanId, QueueId, ResourceId};
use crate::queue::Queue;

/// Registry of the containers owned by one address space.
///
/// # Examples
///
/// ```
/// use dstampede_core::{StmRegistry, ChannelAttrs, AsId};
///
/// # fn main() -> Result<(), dstampede_core::StmError> {
/// let reg = StmRegistry::new(AsId(1));
/// let chan = reg.create_channel(Some("video0".into()), ChannelAttrs::default());
/// assert_eq!(chan.id().owner, AsId(1));
/// assert_eq!(reg.channel(chan.id())?.id(), chan.id());
/// # Ok(())
/// # }
/// ```
pub struct StmRegistry {
    as_id: AsId,
    channels: RwLock<HashMap<u32, Arc<Channel>>>,
    queues: RwLock<HashMap<u32, Arc<Queue>>>,
    next_chan: AtomicU32,
    next_queue: AtomicU32,
    /// Shard count filled into attrs that leave it unset (0 = container
    /// defaults). Attrs arriving over the wire never carry a shard count,
    /// so this is how an address space tunes remote-created containers.
    default_shards: AtomicU32,
    metrics: Arc<MetricsRegistry>,
}

impl StmRegistry {
    /// Creates an empty registry for the given address space, reporting
    /// telemetry to the process-global metrics registry.
    #[must_use]
    pub fn new(as_id: AsId) -> Arc<Self> {
        StmRegistry::with_metrics(as_id, Arc::clone(dstampede_obs::global()))
    }

    /// Creates an empty registry whose containers report telemetry to
    /// `metrics` (the distributed runtime gives each address space its
    /// own so cluster snapshots attribute activity per space).
    #[must_use]
    pub fn with_metrics(as_id: AsId, metrics: Arc<MetricsRegistry>) -> Arc<Self> {
        Arc::new(StmRegistry {
            as_id,
            channels: RwLock::new(HashMap::new()),
            queues: RwLock::new(HashMap::new()),
            next_chan: AtomicU32::new(1),
            next_queue: AtomicU32::new(1),
            default_shards: AtomicU32::new(0),
            metrics,
        })
    }

    /// Sets the shard count applied to future containers whose attrs do
    /// not pin one (`0` restores the built-in default).
    pub fn set_default_shards(&self, n: u32) {
        self.default_shards.store(n, Ordering::Relaxed);
    }

    fn effective_shards(&self, requested: Option<u32>) -> Option<u32> {
        requested.or({
            match self.default_shards.load(Ordering::Relaxed) {
                0 => None,
                n => Some(n),
            }
        })
    }

    /// The owning address space.
    #[must_use]
    pub fn as_id(&self) -> AsId {
        self.as_id
    }

    /// The metrics registry this space's containers report to.
    #[must_use]
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Creates and registers a channel owned by this address space.
    pub fn create_channel(&self, name: Option<String>, attrs: ChannelAttrs) -> Arc<Channel> {
        let index = self.next_chan.fetch_add(1, Ordering::Relaxed);
        let id = ChanId {
            owner: self.as_id,
            index,
        };
        let mut attrs = attrs;
        if let Some(n) = self.effective_shards(attrs.shards()) {
            attrs = attrs.with_shards(n);
        }
        let chan = Channel::new_in(id, name, attrs, &self.metrics);
        self.channels.write().insert(index, Arc::clone(&chan));
        chan
    }

    /// Creates and registers a queue owned by this address space.
    pub fn create_queue(&self, name: Option<String>, attrs: QueueAttrs) -> Arc<Queue> {
        let index = self.next_queue.fetch_add(1, Ordering::Relaxed);
        let id = QueueId {
            owner: self.as_id,
            index,
        };
        let mut attrs = attrs;
        if let Some(n) = self.effective_shards(attrs.shards()) {
            attrs = attrs.with_shards(n);
        }
        let queue = Queue::new_in(id, name, attrs, &self.metrics);
        self.queues.write().insert(index, Arc::clone(&queue));
        queue
    }

    /// Resolves a channel id owned by this address space.
    ///
    /// # Errors
    ///
    /// [`StmError::NoSuchResource`] if the id belongs to a different address
    /// space or was never created here (or has been removed).
    pub fn channel(&self, id: ChanId) -> StmResult<Arc<Channel>> {
        if id.owner != self.as_id {
            return Err(StmError::NoSuchResource);
        }
        self.channels
            .read()
            .get(&id.index)
            .cloned()
            .ok_or(StmError::NoSuchResource)
    }

    /// Resolves a queue id owned by this address space.
    ///
    /// # Errors
    ///
    /// [`StmError::NoSuchResource`] as for [`StmRegistry::channel`].
    pub fn queue(&self, id: QueueId) -> StmResult<Arc<Queue>> {
        if id.owner != self.as_id {
            return Err(StmError::NoSuchResource);
        }
        self.queues
            .read()
            .get(&id.index)
            .cloned()
            .ok_or(StmError::NoSuchResource)
    }

    /// Removes a channel from the registry, closing it.
    ///
    /// # Errors
    ///
    /// [`StmError::NoSuchResource`] if not present.
    pub fn remove_channel(&self, id: ChanId) -> StmResult<()> {
        if id.owner != self.as_id {
            return Err(StmError::NoSuchResource);
        }
        let chan = self
            .channels
            .write()
            .remove(&id.index)
            .ok_or(StmError::NoSuchResource)?;
        chan.close();
        Ok(())
    }

    /// Removes a queue from the registry, closing it.
    ///
    /// # Errors
    ///
    /// [`StmError::NoSuchResource`] if not present.
    pub fn remove_queue(&self, id: QueueId) -> StmResult<()> {
        if id.owner != self.as_id {
            return Err(StmError::NoSuchResource);
        }
        let queue = self
            .queues
            .write()
            .remove(&id.index)
            .ok_or(StmError::NoSuchResource)?;
        queue.close();
        Ok(())
    }

    /// Ids of every container currently registered.
    #[must_use]
    pub fn resources(&self) -> Vec<ResourceId> {
        let mut out: Vec<ResourceId> = self
            .channels
            .read()
            .values()
            .map(|c| ResourceId::Channel(c.id()))
            .collect();
        out.extend(
            self.queues
                .read()
                .values()
                .map(|q| ResourceId::Queue(q.id())),
        );
        out.sort();
        out
    }

    /// Closes every container (e.g. on address-space shutdown). Closing
    /// wakes parked waiters, which may re-enter the registry, so no
    /// registry lock is held while closing.
    pub fn close_all(&self) {
        let channels: Vec<Arc<Channel>> = self.channels.read().values().cloned().collect();
        for c in channels {
            c.close();
        }
        let queues: Vec<Arc<Queue>> = self.queues.read().values().cloned().collect();
        for q in queues {
            q.close();
        }
    }
}

impl fmt::Debug for StmRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StmRegistry")
            .field("as_id", &self.as_id)
            .field("channels", &self.channels.read().len())
            .field("queues", &self.queues.read().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_unique_ids_with_owner() {
        let reg = StmRegistry::new(AsId(7));
        let a = reg.create_channel(None, ChannelAttrs::default());
        let b = reg.create_channel(None, ChannelAttrs::default());
        assert_ne!(a.id(), b.id());
        assert_eq!(a.id().owner, AsId(7));
        let q = reg.create_queue(None, QueueAttrs::default());
        assert_eq!(q.id().owner, AsId(7));
    }

    #[test]
    fn resolves_registered_containers() {
        let reg = StmRegistry::new(AsId(1));
        let c = reg.create_channel(Some("x".into()), ChannelAttrs::default());
        let q = reg.create_queue(Some("y".into()), QueueAttrs::default());
        assert_eq!(reg.channel(c.id()).unwrap().name(), Some("x"));
        assert_eq!(reg.queue(q.id()).unwrap().name(), Some("y"));
    }

    #[test]
    fn rejects_foreign_and_unknown_ids() {
        let reg = StmRegistry::new(AsId(1));
        let foreign = ChanId {
            owner: AsId(2),
            index: 1,
        };
        assert_eq!(reg.channel(foreign).unwrap_err(), StmError::NoSuchResource);
        let unknown = ChanId {
            owner: AsId(1),
            index: 99,
        };
        assert_eq!(reg.channel(unknown).unwrap_err(), StmError::NoSuchResource);
        let unknown_q = QueueId {
            owner: AsId(1),
            index: 99,
        };
        assert_eq!(reg.queue(unknown_q).unwrap_err(), StmError::NoSuchResource);
    }

    #[test]
    fn remove_closes_container() {
        let reg = StmRegistry::new(AsId(1));
        let c = reg.create_channel(None, ChannelAttrs::default());
        reg.remove_channel(c.id()).unwrap();
        assert!(c.is_closed());
        assert_eq!(reg.channel(c.id()).unwrap_err(), StmError::NoSuchResource);
        assert_eq!(
            reg.remove_channel(c.id()).unwrap_err(),
            StmError::NoSuchResource
        );

        let q = reg.create_queue(None, QueueAttrs::default());
        reg.remove_queue(q.id()).unwrap();
        assert!(q.is_closed());
    }

    #[test]
    fn resources_lists_everything_sorted() {
        let reg = StmRegistry::new(AsId(1));
        let c = reg.create_channel(None, ChannelAttrs::default());
        let q = reg.create_queue(None, QueueAttrs::default());
        let res = reg.resources();
        assert_eq!(res.len(), 2);
        assert!(res.contains(&ResourceId::Channel(c.id())));
        assert!(res.contains(&ResourceId::Queue(q.id())));
    }

    #[test]
    fn close_all_closes_everything() {
        let reg = StmRegistry::new(AsId(1));
        let c = reg.create_channel(None, ChannelAttrs::default());
        let q = reg.create_queue(None, QueueAttrs::default());
        reg.close_all();
        assert!(c.is_closed());
        assert!(q.is_closed());
    }

    #[test]
    fn debug_is_informative() {
        let reg = StmRegistry::new(AsId(1));
        assert!(format!("{reg:?}").contains("StmRegistry"));
    }

    #[test]
    fn default_shards_apply_to_unpinned_attrs() {
        let reg = StmRegistry::new(AsId(1));
        reg.set_default_shards(3);
        let c = reg.create_channel(None, ChannelAttrs::default());
        assert_eq!(c.shard_count(), 3);
        let q = reg.create_queue(None, QueueAttrs::default());
        assert_eq!(q.shard_count(), 3);
        // Explicit attrs win over the registry default.
        let pinned = reg.create_channel(None, ChannelAttrs::builder().shards(5).build());
        assert_eq!(pinned.shard_count(), 5);
        // 0 restores the built-in default.
        reg.set_default_shards(0);
        let c = reg.create_channel(None, ChannelAttrs::default());
        assert_eq!(c.shard_count(), crate::channel::DEFAULT_STM_SHARDS as usize);
    }
}
