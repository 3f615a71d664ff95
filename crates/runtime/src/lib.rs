//! # dstampede-runtime — the distributed D-Stampede runtime
//!
//! Distributes the space-time memory of `dstampede-core` across *address
//! spaces* connected by CLF, following the architecture of the paper's
//! §3.2:
//!
//! * [`AddressSpace`] — owns a container registry and serves operations
//!   arriving from peers on its CLF receive thread, parking blocking ones
//!   on the containers' waker sets;
//! * [`ChannelRef`]/[`QueueRef`] — location-transparent access: the same
//!   connection API whether the container is local or remote;
//! * [`NameServer`] — the rendezvous registry hosted in address space 0;
//! * [`Listener`] — accepts end devices and spawns a *surrogate thread*
//!   per client, which fields all of that client's calls and queues its
//!   garbage-collection notifications;
//! * [`Cluster`] — assembles N address spaces over shared-memory or
//!   reliable-UDP CLF, with a listener per address space.
//!
//! ## Example
//!
//! A two-address-space cluster streaming across spaces:
//!
//! ```
//! use dstampede_core::{ChannelAttrs, GetSpec, Interest, Item, Timestamp};
//! use dstampede_runtime::Cluster;
//! use dstampede_wire::WaitSpec;
//!
//! # fn main() -> Result<(), dstampede_core::StmError> {
//! let cluster = Cluster::in_process(2)?;
//! let chan = cluster.space(0)?.create_channel(None, ChannelAttrs::default());
//!
//! let out = cluster.space(0)?.open_channel(chan.id())?.connect_output()?;
//! let inp = cluster
//!     .space(1)?
//!     .open_channel(chan.id())?
//!     .connect_input(Interest::FromEarliest)?;
//!
//! out.put(Timestamp::new(0), Item::from_vec(vec![42]), WaitSpec::Forever)?;
//! let (_, item) = inp.get_blocking(GetSpec::Exact(Timestamp::new(0)))?;
//! assert_eq!(item.payload(), &[42]);
//! cluster.shutdown();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addrspace;
pub mod cluster;
pub mod exec;
pub mod failure;
pub mod gc_epoch;
pub mod listener;
pub mod nameserver;
mod parked;
pub mod placement;
pub mod proto;
pub mod proxy;
pub mod reactor;
pub mod recorder;
pub mod replicate;

pub use addrspace::AddressSpace;
pub use cluster::{Cluster, ClusterBuilder, ClusterTransport};
pub use exec::{ConnEntry, ConnTable, GcNoteQueue};
pub use failure::{FailureConfig, FailureDetector, RpcConfig};
pub use gc_epoch::{GcEpochConfig, GcEpochService};
pub use listener::{Listener, ListenerConfig, ListenerStats};
pub use nameserver::NameServer;
pub use placement::Placement;
pub use proxy::{ChanInput, ChanOutput, ChannelRef, QueueInput, QueueOutput, QueueRef};
pub use reactor::{Reactor, ReactorConfig};
pub use recorder::{FlightRecorder, RecorderConfig};
pub use replicate::{ReplicaStore, Replicator};
