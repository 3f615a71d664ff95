//! # dstampede-clf — the CLF packet transport
//!
//! Reimplementation of **CLF**, the message-passing substrate the
//! D-Stampede server library is built on (paper §3.2.2): reliable, ordered,
//! point-to-point packet transport between address spaces with the illusion
//! of an infinite packet queue.
//!
//! Two backends provide the [`ClfTransport`] contract:
//!
//! * [`mem::MemEndpoint`] — in-process channels, the "shared memory within
//!   an SMP" fast path;
//! * [`udp::UdpEndpoint`] — a sliding-window ARQ protocol (sequencing,
//!   cumulative-ack + SACK-bitmap acknowledgment, hole-only retransmission,
//!   fragmentation, RTT-paced batched syscalls) over real UDP sockets, the
//!   "UDP over a LAN" path. The pure protocol state machines live in
//!   [`window`] so tests can drive them on a virtual clock.
//!
//! [`shaping`] wraps any transport or byte stream in a 2002-calibrated
//! latency/bandwidth model for experiment reproduction, and [`stream`]
//! holds the TCP/duplex-pipe helpers used by the end-device client path.
//!
//! ## Example
//!
//! ```
//! use bytes::Bytes;
//! use dstampede_clf::{ClfTransport, MemFabric};
//! use dstampede_core::AsId;
//!
//! # fn main() -> Result<(), dstampede_clf::ClfError> {
//! let fabric = MemFabric::new();
//! let a = fabric.endpoint(AsId(0));
//! let b = fabric.endpoint(AsId(1));
//! a.send(AsId(1), Bytes::from_static(b"frame 0"))?;
//! assert_eq!(&b.recv()?.1[..], b"frame 0");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod fault;
pub mod mem;
pub mod shaping;
pub mod stream;
pub mod transport;
pub mod udp;
mod udp_sys;
pub mod window;

pub use error::ClfError;
pub use fault::{FaultPlan, FaultStats, FaultTransport, FaultVerdict};
pub use mem::{MemEndpoint, MemFabric};
pub use shaping::{NetProfile, Pacer, ShapedStream, ShapedTransport, TokenBucket};
pub use stream::{duplex, tcp_connect, tcp_listen_loopback, PipeEnd};
pub use transport::{ClfHandler, ClfTransport, TransportStats};
pub use udp::{udp_mesh, LossInjection, UdpConfig, UdpEndpoint};
pub use window::{RecvWindow, RttEstimator, SendWindow};
