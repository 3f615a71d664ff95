//! In-process CLF backend — "shared memory within an SMP".
//!
//! Every address space hosted in the same OS process exchanges messages
//! through unbounded lock-free channels: reliable, ordered, and never
//! blocking the sender — CLF's contract comes for free. This is the
//! fast path the paper gets from shared memory inside one SMP node.
//! Each endpoint runs one receive thread that drains its channel into
//! the installed [`ClfHandler`].

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Mutex, RwLock};

use dstampede_core::AsId;
use dstampede_obs::MetricsRegistry;

use crate::error::ClfError;
use crate::transport::{ClfHandler, ClfTransport, Delivery, StatCounters, TransportStats};

type Wire = (AsId, Bytes);

/// How long the receive thread blocks before re-checking for shutdown.
const RECV_POLL: Duration = Duration::from_millis(50);

/// A fabric connecting in-process address spaces.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use dstampede_clf::{MemFabric, ClfTransport};
/// use dstampede_core::AsId;
///
/// # fn main() -> Result<(), dstampede_clf::ClfError> {
/// let fabric = MemFabric::new();
/// let a = fabric.endpoint(AsId(0));
/// let b = fabric.endpoint(AsId(1));
/// a.send(AsId(1), Bytes::from_static(b"hi"))?;
/// let (from, msg) = b.recv()?;
/// assert_eq!(from, AsId(0));
/// assert_eq!(&msg[..], b"hi");
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Default)]
pub struct MemFabric {
    peers: Arc<RwLock<HashMap<AsId, Sender<Wire>>>>,
}

impl MemFabric {
    /// An empty fabric.
    #[must_use]
    pub fn new() -> Self {
        MemFabric::default()
    }

    /// Creates (or replaces) the endpoint for an address space and
    /// starts its receive thread.
    ///
    /// Replacing an endpoint disconnects the old one's inbox from the
    /// fabric, which models an address space restarting.
    ///
    /// # Panics
    ///
    /// Panics if the receive thread cannot be spawned.
    #[must_use]
    pub fn endpoint(&self, as_id: AsId) -> Arc<MemEndpoint> {
        let (tx, rx) = unbounded();
        self.peers.write().insert(as_id, tx);
        let delivery = Arc::new(Delivery::new());
        let stats = Arc::new(StatCounters::default());
        let closed = Arc::new(AtomicBool::new(false));
        let (d, st, c) = (
            Arc::clone(&delivery),
            Arc::clone(&stats),
            Arc::clone(&closed),
        );
        let thread = std::thread::Builder::new()
            .name(format!("clf-mem-{}", as_id.0))
            .spawn(move || receive_loop(&rx, &d, &st, &c))
            .expect("spawning the CLF receive thread failed");
        Arc::new(MemEndpoint {
            local: as_id,
            fabric: self.clone(),
            delivery,
            stats,
            closed,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// Address spaces currently attached.
    #[must_use]
    pub fn members(&self) -> Vec<AsId> {
        let mut out: Vec<AsId> = self.peers.read().keys().copied().collect();
        out.sort();
        out
    }

    /// Detaches an address space from the fabric.
    pub fn remove(&self, as_id: AsId) {
        self.peers.write().remove(&as_id);
    }
}

impl fmt::Debug for MemFabric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemFabric")
            .field("members", &self.peers.read().len())
            .finish()
    }
}

/// Drains one endpoint's fabric channel into its handler until the
/// endpoint closes or the fabric disconnects it (a replacement endpoint
/// took its id, which closes this one).
fn receive_loop(
    rx: &Receiver<Wire>,
    delivery: &Delivery,
    stats: &StatCounters,
    closed: &AtomicBool,
) {
    while !closed.load(Ordering::Acquire) {
        let wait = delivery.tick().map_or(RECV_POLL, |d| d.min(RECV_POLL));
        match rx.recv_timeout(wait) {
            Ok((from, msg)) => {
                stats.note_received(msg.len());
                delivery.deliver(from, msg);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => closed.store(true, Ordering::Release),
        }
    }
}

/// One address space's endpoint on a [`MemFabric`].
pub struct MemEndpoint {
    local: AsId,
    fabric: MemFabric,
    delivery: Arc<Delivery>,
    stats: Arc<StatCounters>,
    closed: Arc<AtomicBool>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl MemEndpoint {
    fn check_open(&self) -> Result<(), ClfError> {
        if self.closed.load(Ordering::Acquire) {
            Err(ClfError::Closed)
        } else {
            Ok(())
        }
    }
}

impl ClfTransport for MemEndpoint {
    fn local(&self) -> AsId {
        self.local
    }

    fn send(&self, dst: AsId, msg: Bytes) -> Result<(), ClfError> {
        self.check_open()?;
        let peers = self.fabric.peers.read();
        let tx = peers.get(&dst).ok_or(ClfError::UnknownPeer)?;
        let len = msg.len();
        tx.send((self.local, msg))
            .map_err(|_| ClfError::UnknownPeer)?;
        self.stats.note_sent(len);
        Ok(())
    }

    fn set_handler(&self, handler: Arc<dyn ClfHandler>) {
        self.delivery.install(handler);
    }

    fn recv(&self) -> Result<(AsId, Bytes), ClfError> {
        self.delivery.recv(&self.closed)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<(AsId, Bytes), ClfError> {
        self.delivery.recv_timeout(&self.closed, timeout)
    }

    fn try_recv(&self) -> Result<(AsId, Bytes), ClfError> {
        self.delivery.try_recv(&self.closed)
    }

    fn stats(&self) -> TransportStats {
        self.stats.snapshot()
    }

    fn bind_metrics(&self, registry: &MetricsRegistry) {
        self.stats.bind(registry, "mem");
    }

    fn shutdown(&self) {
        self.closed.store(true, Ordering::Release);
        // Dropping the fabric's sender wakes the receive thread at once.
        self.fabric.remove(self.local);
        if let Some(h) = self.thread.lock().take() {
            // Shutdown may run on the receive thread itself (a handler
            // reacting to a message); it exits on its next pass.
            if h.thread().id() != std::thread::current().id() {
                let _ = h.join();
            }
        }
    }
}

impl Drop for MemEndpoint {
    fn drop(&mut self) {
        // The receive thread notices within one poll and exits.
        self.closed.store(true, Ordering::Release);
    }
}

impl fmt::Debug for MemEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemEndpoint")
            .field("local", &self.local)
            .field("closed", &self.closed.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn point_to_point_delivery() {
        let fabric = MemFabric::new();
        let a = fabric.endpoint(AsId(0));
        let b = fabric.endpoint(AsId(1));
        a.send(AsId(1), Bytes::from_static(b"one")).unwrap();
        a.send(AsId(1), Bytes::from_static(b"two")).unwrap();
        assert_eq!(&b.recv().unwrap().1[..], b"one");
        assert_eq!(&b.recv().unwrap().1[..], b"two");
    }

    #[test]
    fn ordered_per_sender() {
        let fabric = MemFabric::new();
        let a = fabric.endpoint(AsId(0));
        let b = fabric.endpoint(AsId(1));
        for i in 0..1000u32 {
            a.send(AsId(1), Bytes::from(i.to_be_bytes().to_vec()))
                .unwrap();
        }
        for i in 0..1000u32 {
            let (_, msg) = b.recv().unwrap();
            assert_eq!(u32::from_be_bytes(msg[..].try_into().unwrap()), i);
        }
    }

    #[test]
    fn unknown_peer_rejected() {
        let fabric = MemFabric::new();
        let a = fabric.endpoint(AsId(0));
        assert_eq!(
            a.send(AsId(9), Bytes::new()).unwrap_err(),
            ClfError::UnknownPeer
        );
    }

    #[test]
    fn try_recv_empty() {
        let fabric = MemFabric::new();
        let a = fabric.endpoint(AsId(0));
        assert_eq!(a.try_recv().unwrap_err(), ClfError::Empty);
    }

    #[test]
    fn recv_timeout_expires() {
        let fabric = MemFabric::new();
        let a = fabric.endpoint(AsId(0));
        assert_eq!(
            a.recv_timeout(Duration::from_millis(10)).unwrap_err(),
            ClfError::Timeout
        );
    }

    #[test]
    fn shutdown_wakes_blocked_receiver() {
        let fabric = MemFabric::new();
        let a = fabric.endpoint(AsId(0));
        let a2 = Arc::clone(&a);
        let h = thread::spawn(move || a2.recv());
        thread::sleep(Duration::from_millis(20));
        a.shutdown();
        assert_eq!(h.join().unwrap().unwrap_err(), ClfError::Closed);
        assert_eq!(a.send(AsId(0), Bytes::new()).unwrap_err(), ClfError::Closed);
    }

    #[test]
    fn members_tracks_attach_detach() {
        let fabric = MemFabric::new();
        let _a = fabric.endpoint(AsId(0));
        let b = fabric.endpoint(AsId(1));
        assert_eq!(fabric.members(), vec![AsId(0), AsId(1)]);
        b.shutdown();
        assert_eq!(fabric.members(), vec![AsId(0)]);
    }

    #[test]
    fn loopback_send_to_self() {
        let fabric = MemFabric::new();
        let a = fabric.endpoint(AsId(0));
        a.send(AsId(0), Bytes::from_static(b"self")).unwrap();
        assert_eq!(&a.recv().unwrap().1[..], b"self");
    }

    #[test]
    fn stats_count_traffic() {
        let fabric = MemFabric::new();
        let a = fabric.endpoint(AsId(0));
        let b = fabric.endpoint(AsId(1));
        a.send(AsId(1), Bytes::from_static(b"abcd")).unwrap();
        let _ = b.recv().unwrap();
        assert_eq!(a.stats().msgs_sent, 1);
        assert_eq!(a.stats().bytes_sent, 4);
        assert_eq!(b.stats().msgs_received, 1);
        assert_eq!(b.stats().bytes_received, 4);
    }

    #[test]
    fn endpoint_replacement_models_restart() {
        let fabric = MemFabric::new();
        let a = fabric.endpoint(AsId(0));
        let old_b = fabric.endpoint(AsId(1));
        a.send(AsId(1), Bytes::from_static(b"to old")).unwrap();
        assert_eq!(&old_b.recv().unwrap().1[..], b"to old");

        // "Restart" address space 1: its inbox is replaced; messages sent
        // afterwards go to the new incarnation only.
        let new_b = fabric.endpoint(AsId(1));
        a.send(AsId(1), Bytes::from_static(b"to new")).unwrap();
        assert_eq!(&new_b.recv().unwrap().1[..], b"to new");
        // The old incarnation's inbox is disconnected from the fabric.
        assert_eq!(
            old_b.recv_timeout(Duration::from_millis(30)).unwrap_err(),
            ClfError::Closed
        );
    }

    #[test]
    fn installed_handler_takes_queued_then_live_messages_in_order() {
        struct Collect(parking_lot::Mutex<Vec<u8>>);
        impl ClfHandler for Collect {
            fn on_message(&self, _from: AsId, msg: Bytes) {
                self.0.lock().push(msg[0]);
            }
        }
        let fabric = MemFabric::new();
        let a = fabric.endpoint(AsId(0));
        let b = fabric.endpoint(AsId(1));
        a.send(AsId(1), Bytes::from_static(&[1])).unwrap();
        a.send(AsId(1), Bytes::from_static(&[2])).unwrap();
        // Let the receive thread queue both in the default inbox.
        thread::sleep(Duration::from_millis(20));
        let seen = Arc::new(Collect(parking_lot::Mutex::new(Vec::new())));
        b.set_handler(Arc::clone(&seen) as Arc<dyn ClfHandler>);
        a.send(AsId(1), Bytes::from_static(&[3])).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while seen.0.lock().len() < 3 && std::time::Instant::now() < deadline {
            thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(*seen.0.lock(), vec![1, 2, 3]);
        assert_eq!(b.try_recv().unwrap_err(), ClfError::Closed);
    }

    #[test]
    fn concurrent_senders_all_delivered() {
        let fabric = MemFabric::new();
        let dst = fabric.endpoint(AsId(9));
        let mut handles = Vec::new();
        for p in 0..4u16 {
            let ep = fabric.endpoint(AsId(p));
            handles.push(thread::spawn(move || {
                for _ in 0..100 {
                    ep.send(AsId(9), Bytes::from_static(b"m")).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for _ in 0..400 {
            dst.recv().unwrap();
        }
        assert_eq!(dst.stats().msgs_received, 400);
    }
}
