//! Deterministic fault injection for any [`ClfTransport`].
//!
//! [`LossInjection`](crate::udp::LossInjection) can only drop DATA
//! packets inside the UDP backend. Chaos testing the runtime needs more:
//! partitions (full and one-way), delays, duplicates, and whole-process
//! crashes, on *any* backend including the in-memory fabric. A
//! [`FaultPlan`] holds those rules — mutable mid-run, deterministic under
//! a fixed seed — and [`FaultTransport`] applies them on the send and
//! receive paths of a wrapped transport.
//!
//! Crash semantics: once an address space is crashed (explicitly via
//! [`FaultPlan::crash`] or by tripping [`FaultPlan::crash_at_packet`]),
//! its sends fail with [`ClfError::Closed`], its handler receives
//! nothing more and its `recv` reports [`ClfError::Closed`], exactly as
//! if the process died. Traffic *to* a crashed space is silently
//! dropped, like a network feeding a dead host.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;

use dstampede_core::AsId;
use dstampede_obs::MetricsRegistry;

use crate::error::ClfError;
use crate::transport::{ClfHandler, ClfTransport, TransportStats};

/// How often a crashed endpoint's blocked `recv` re-checks the plan.
const CRASH_POLL: Duration = Duration::from_millis(20);

/// Counters describing what a [`FaultPlan`] has done so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Messages silently dropped (loss rules, partitions, dead peers).
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages delayed before delivery.
    pub delayed: u64,
    /// Sends refused because the sender is crashed.
    pub refused: u64,
}

#[derive(Debug, Default)]
struct PlanState {
    rng: u64,
    sent: u64,
    drop_every_nth: Option<u32>,
    drop_permille: Option<u32>,
    delay: Option<Duration>,
    duplicate_every_nth: Option<u32>,
    /// One-way cuts: messages from `.0` to `.1` vanish.
    cuts: HashSet<(AsId, AsId)>,
    crashed: HashSet<AsId>,
    /// Space → packet budget; decremented per send, crash at zero.
    crash_after: HashMap<AsId, u64>,
    stats: FaultStats,
}

impl PlanState {
    /// xorshift-free LCG step (Knuth's MMIX constants); deterministic
    /// under a fixed seed and cheap enough for the send path.
    fn next_rand(&mut self) -> u64 {
        self.rng = self
            .rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.rng >> 11
    }
}

/// What [`FaultPlan::on_send`] decided for one message.
enum SendVerdict {
    /// The sender is dead; fail the send with [`ClfError::Closed`].
    Refused,
    /// Swallow the message silently.
    Dropped,
    /// Deliver it, optionally late and/or twice.
    Deliver {
        delay: Option<Duration>,
        duplicate: bool,
    },
}

/// What [`FaultPlan::on_packet`] decided for one packet on a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultVerdict {
    /// The packet vanishes on the wire.
    Dropped,
    /// The packet arrives, optionally twice.
    Deliver {
        /// Deliver a second copy immediately after the first.
        duplicate: bool,
    },
}

/// A mutable, seeded set of fault-injection rules shared by any number
/// of [`FaultTransport`] wrappers (one per address space under test).
///
/// All rules can be changed mid-run; chaos tests typically start clean,
/// let the pipeline warm up, then flip a crash or partition on.
pub struct FaultPlan {
    state: Mutex<PlanState>,
}

impl FaultPlan {
    /// A plan with no active rules, seeded for deterministic randomness.
    #[must_use]
    pub fn new(seed: u64) -> Arc<Self> {
        Arc::new(FaultPlan {
            state: Mutex::new(PlanState {
                rng: seed ^ 0x9E37_79B9_7F4A_7C15,
                ..PlanState::default()
            }),
        })
    }

    /// Drop every n-th message plan-wide (n ≥ 2; smaller disables).
    pub fn drop_every_nth(&self, n: u32) {
        self.state.lock().drop_every_nth = (n >= 2).then_some(n);
    }

    /// Drop each message with probability `permille`/1000, decided by
    /// the seeded generator (0 disables).
    pub fn drop_permille(&self, permille: u32) {
        self.state.lock().drop_permille = (permille > 0).then_some(permille.min(1000));
    }

    /// Delay every delivered message by `d` (applied synchronously on
    /// the send path; `None`-like zero disables).
    pub fn delay(&self, d: Duration) {
        self.state.lock().delay = (d > Duration::ZERO).then_some(d);
    }

    /// Deliver every n-th message twice (n ≥ 2; smaller disables).
    pub fn duplicate_every_nth(&self, n: u32) {
        self.state.lock().duplicate_every_nth = (n >= 2).then_some(n);
    }

    /// Cut the link between `a` and `b` in both directions.
    pub fn partition(&self, a: AsId, b: AsId) {
        let mut st = self.state.lock();
        st.cuts.insert((a, b));
        st.cuts.insert((b, a));
    }

    /// Cut only the `from` → `to` direction (asymmetric partition).
    pub fn partition_one_way(&self, from: AsId, to: AsId) {
        self.state.lock().cuts.insert((from, to));
    }

    /// Restore the link between `a` and `b` in both directions.
    pub fn heal(&self, a: AsId, b: AsId) {
        let mut st = self.state.lock();
        st.cuts.remove(&(a, b));
        st.cuts.remove(&(b, a));
    }

    /// Remove every partition (crashes stay crashed).
    pub fn heal_all(&self) {
        self.state.lock().cuts.clear();
    }

    /// Kill `space` now: its sends and receives fail with
    /// [`ClfError::Closed`], traffic to it vanishes.
    pub fn crash(&self, space: AsId) {
        let mut st = self.state.lock();
        st.crashed.insert(space);
        st.crash_after.remove(&space);
    }

    /// Kill `space` after it sends `n` more messages — deterministic
    /// mid-stream death for reproducible chaos tests.
    pub fn crash_at_packet(&self, space: AsId, n: u64) {
        if n == 0 {
            self.crash(space);
        } else {
            self.state.lock().crash_after.insert(space, n);
        }
    }

    /// Whether `space` is currently crashed.
    #[must_use]
    pub fn is_crashed(&self, space: AsId) -> bool {
        self.state.lock().crashed.contains(&space)
    }

    /// What the plan has done so far.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        self.state.lock().stats
    }

    /// Packet-level variant of the send-path decision: applies the
    /// plan's loss, duplication, and partition rules (not crash budgets,
    /// refusal, or delay) to one packet on the `src → dst` link. This is
    /// the channel hook the model-based protocol suite uses to drive the
    /// ARQ window state machines through a deterministic lossy network;
    /// the same seed always yields the same verdict sequence.
    pub fn on_packet(&self, src: AsId, dst: AsId) -> FaultVerdict {
        let mut st = self.state.lock();
        st.sent += 1;
        if st.crashed.contains(&dst) || st.cuts.contains(&(src, dst)) {
            st.stats.dropped += 1;
            return FaultVerdict::Dropped;
        }
        if let Some(n) = st.drop_every_nth {
            if st.sent.is_multiple_of(u64::from(n)) {
                st.stats.dropped += 1;
                return FaultVerdict::Dropped;
            }
        }
        if let Some(p) = st.drop_permille {
            let roll = st.next_rand() % 1000;
            if roll < u64::from(p) {
                st.stats.dropped += 1;
                return FaultVerdict::Dropped;
            }
        }
        let duplicate = st
            .duplicate_every_nth
            .is_some_and(|n| st.sent.is_multiple_of(u64::from(n)));
        if duplicate {
            st.stats.duplicated += 1;
        }
        FaultVerdict::Deliver { duplicate }
    }

    fn on_send(&self, src: AsId, dst: AsId) -> SendVerdict {
        let mut st = self.state.lock();
        if st.crashed.contains(&src) {
            st.stats.refused += 1;
            return SendVerdict::Refused;
        }
        if let Some(budget) = st.crash_after.get_mut(&src) {
            *budget -= 1;
            if *budget == 0 {
                st.crash_after.remove(&src);
                st.crashed.insert(src);
                st.stats.refused += 1;
                return SendVerdict::Refused;
            }
        }
        st.sent += 1;
        if st.crashed.contains(&dst) || st.cuts.contains(&(src, dst)) {
            st.stats.dropped += 1;
            return SendVerdict::Dropped;
        }
        if let Some(n) = st.drop_every_nth {
            if st.sent.is_multiple_of(u64::from(n)) {
                st.stats.dropped += 1;
                return SendVerdict::Dropped;
            }
        }
        if let Some(p) = st.drop_permille {
            let roll = st.next_rand() % 1000;
            if roll < u64::from(p) {
                st.stats.dropped += 1;
                return SendVerdict::Dropped;
            }
        }
        let duplicate = st
            .duplicate_every_nth
            .is_some_and(|n| st.sent.is_multiple_of(u64::from(n)));
        if duplicate {
            st.stats.duplicated += 1;
        }
        let delay = st.delay;
        if delay.is_some() {
            st.stats.delayed += 1;
        }
        SendVerdict::Deliver { delay, duplicate }
    }
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.lock();
        f.debug_struct("FaultPlan")
            .field("crashed", &st.crashed)
            .field("cuts", &st.cuts)
            .field("stats", &st.stats)
            .finish()
    }
}

/// Applies a shared [`FaultPlan`] to a wrapped transport.
pub struct FaultTransport {
    inner: Arc<dyn ClfTransport>,
    plan: Arc<FaultPlan>,
}

impl FaultTransport {
    /// Wraps `inner` so every send/receive consults `plan`.
    #[must_use]
    pub fn wrap(inner: Arc<dyn ClfTransport>, plan: Arc<FaultPlan>) -> Arc<Self> {
        Arc::new(FaultTransport { inner, plan })
    }
}

/// Silences a crashed space's handler: whatever still reaches its
/// endpoint after the crash is never processed.
struct CrashGate {
    inner: Arc<dyn ClfHandler>,
    plan: Arc<FaultPlan>,
    local: AsId,
}

impl ClfHandler for CrashGate {
    fn on_message(&self, from: AsId, msg: Bytes) {
        if !self.plan.is_crashed(self.local) {
            self.inner.on_message(from, msg);
        }
    }

    fn on_tick(&self) -> Option<Duration> {
        if self.plan.is_crashed(self.local) {
            return None;
        }
        self.inner.on_tick()
    }
}

impl ClfTransport for FaultTransport {
    fn local(&self) -> AsId {
        self.inner.local()
    }

    fn send(&self, dst: AsId, msg: Bytes) -> Result<(), ClfError> {
        match self.plan.on_send(self.local(), dst) {
            SendVerdict::Refused => Err(ClfError::Closed),
            SendVerdict::Dropped => Ok(()),
            SendVerdict::Deliver { delay, duplicate } => {
                if let Some(d) = delay {
                    std::thread::sleep(d);
                }
                self.inner.send(dst, msg.clone())?;
                if duplicate {
                    self.inner.send(dst, msg)?;
                }
                Ok(())
            }
        }
    }

    fn send_segments(&self, dst: AsId, segments: &[Bytes]) -> Result<(), ClfError> {
        match self.plan.on_send(self.local(), dst) {
            SendVerdict::Refused => Err(ClfError::Closed),
            SendVerdict::Dropped => Ok(()),
            SendVerdict::Deliver { delay, duplicate } => {
                if let Some(d) = delay {
                    std::thread::sleep(d);
                }
                self.inner.send_segments(dst, segments)?;
                if duplicate {
                    self.inner.send_segments(dst, segments)?;
                }
                Ok(())
            }
        }
    }

    fn set_handler(&self, handler: Arc<dyn ClfHandler>) {
        self.inner.set_handler(Arc::new(CrashGate {
            inner: handler,
            plan: Arc::clone(&self.plan),
            local: self.local(),
        }));
    }

    fn recv(&self) -> Result<(AsId, Bytes), ClfError> {
        loop {
            if self.plan.is_crashed(self.local()) {
                return Err(ClfError::Closed);
            }
            match self.inner.recv_timeout(CRASH_POLL) {
                Ok(m) => return Ok(m),
                Err(ClfError::Timeout) => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<(AsId, Bytes), ClfError> {
        let deadline = Instant::now() + timeout;
        loop {
            if self.plan.is_crashed(self.local()) {
                return Err(ClfError::Closed);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(ClfError::Timeout);
            }
            match self.inner.recv_timeout(left.min(CRASH_POLL)) {
                Ok(m) => return Ok(m),
                Err(ClfError::Timeout) => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn try_recv(&self) -> Result<(AsId, Bytes), ClfError> {
        if self.plan.is_crashed(self.local()) {
            return Err(ClfError::Closed);
        }
        self.inner.try_recv()
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }

    fn bind_metrics(&self, registry: &MetricsRegistry) {
        self.inner.bind_metrics(registry);
    }

    fn purge_peer(&self, peer: AsId) {
        self.inner.purge_peer(peer);
    }

    fn set_peer_sack(&self, peer: AsId, enabled: bool) {
        self.inner.set_peer_sack(peer, enabled);
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }
}

impl fmt::Debug for FaultTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultTransport")
            .field("local", &self.inner.local())
            .field("plan", &self.plan)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemFabric;

    fn faulted_pair(plan: &Arc<FaultPlan>) -> (Arc<FaultTransport>, Arc<FaultTransport>) {
        let fabric = MemFabric::new();
        let a = FaultTransport::wrap(fabric.endpoint(AsId(0)), Arc::clone(plan));
        let b = FaultTransport::wrap(fabric.endpoint(AsId(1)), Arc::clone(plan));
        (a, b)
    }

    #[test]
    fn clean_plan_is_transparent() {
        let plan = FaultPlan::new(7);
        let (a, b) = faulted_pair(&plan);
        a.send(AsId(1), Bytes::from_static(b"hi")).unwrap();
        assert_eq!(
            &b.recv_timeout(Duration::from_secs(1)).unwrap().1[..],
            b"hi"
        );
        assert_eq!(plan.stats(), FaultStats::default());
    }

    #[test]
    fn drop_every_nth_is_deterministic() {
        let plan = FaultPlan::new(7);
        plan.drop_every_nth(3);
        let (a, b) = faulted_pair(&plan);
        for i in 0..9u8 {
            a.send(AsId(1), Bytes::from(vec![i])).unwrap();
        }
        let mut got = Vec::new();
        while let Ok((_, m)) = b.recv_timeout(Duration::from_millis(100)) {
            got.push(m[0]);
        }
        // Messages 3, 6, 9 (1-based) vanish.
        assert_eq!(got, vec![0, 1, 3, 4, 6, 7]);
        assert_eq!(plan.stats().dropped, 3);
    }

    #[test]
    fn duplicate_every_nth_duplicates() {
        let plan = FaultPlan::new(7);
        plan.duplicate_every_nth(2);
        let (a, b) = faulted_pair(&plan);
        for i in 0..4u8 {
            a.send(AsId(1), Bytes::from(vec![i])).unwrap();
        }
        let mut got = Vec::new();
        while let Ok((_, m)) = b.recv_timeout(Duration::from_millis(100)) {
            got.push(m[0]);
        }
        assert_eq!(got, vec![0, 1, 1, 2, 3, 3]);
        assert_eq!(plan.stats().duplicated, 2);
    }

    #[test]
    fn seeded_permille_drops_are_reproducible() {
        let run = || {
            let plan = FaultPlan::new(42);
            plan.drop_permille(300);
            let (a, b) = faulted_pair(&plan);
            for i in 0..30u8 {
                a.send(AsId(1), Bytes::from(vec![i])).unwrap();
            }
            let mut got = Vec::new();
            while let Ok((_, m)) = b.recv_timeout(Duration::from_millis(100)) {
                got.push(m[0]);
            }
            (got, plan.stats().dropped)
        };
        let (got1, dropped1) = run();
        let (got2, dropped2) = run();
        assert_eq!(got1, got2, "same seed must drop the same messages");
        assert_eq!(dropped1, dropped2);
        assert!(dropped1 > 0, "300‰ over 30 sends should drop something");
    }

    #[test]
    fn partition_and_heal() {
        let plan = FaultPlan::new(7);
        let (a, b) = faulted_pair(&plan);
        plan.partition(AsId(0), AsId(1));
        a.send(AsId(1), Bytes::from_static(b"lost")).unwrap();
        b.send(AsId(0), Bytes::from_static(b"lost")).unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(80)).unwrap_err(),
            ClfError::Timeout
        );
        plan.heal(AsId(0), AsId(1));
        a.send(AsId(1), Bytes::from_static(b"through")).unwrap();
        assert_eq!(
            &b.recv_timeout(Duration::from_secs(1)).unwrap().1[..],
            b"through"
        );
        assert_eq!(plan.stats().dropped, 2);
    }

    #[test]
    fn one_way_partition_is_asymmetric() {
        let plan = FaultPlan::new(7);
        let (a, b) = faulted_pair(&plan);
        plan.partition_one_way(AsId(0), AsId(1));
        a.send(AsId(1), Bytes::from_static(b"lost")).unwrap();
        b.send(AsId(0), Bytes::from_static(b"back")).unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(80)).unwrap_err(),
            ClfError::Timeout
        );
        assert_eq!(
            &a.recv_timeout(Duration::from_secs(1)).unwrap().1[..],
            b"back"
        );
    }

    #[test]
    fn crash_at_packet_kills_mid_stream() {
        let plan = FaultPlan::new(7);
        let (a, b) = faulted_pair(&plan);
        plan.crash_at_packet(AsId(0), 3);
        a.send(AsId(1), Bytes::from(vec![0])).unwrap();
        a.send(AsId(1), Bytes::from(vec![1])).unwrap();
        assert_eq!(
            a.send(AsId(1), Bytes::from(vec![2])).unwrap_err(),
            ClfError::Closed
        );
        assert!(plan.is_crashed(AsId(0)));
        // The victim's receive path reports death too.
        assert_eq!(
            a.recv_timeout(Duration::from_millis(60)).unwrap_err(),
            ClfError::Closed
        );
        // Survivor still drains what made it out.
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap().1[0], 0);
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap().1[0], 1);
        // Traffic to the dead space vanishes rather than erroring.
        b.send(AsId(0), Bytes::from_static(b"to the dead")).unwrap();
        assert_eq!(plan.stats().dropped, 1);
    }

    #[test]
    fn delay_is_applied() {
        let plan = FaultPlan::new(7);
        plan.delay(Duration::from_millis(30));
        let (a, b) = faulted_pair(&plan);
        let t0 = Instant::now();
        a.send(AsId(1), Bytes::from_static(b"slow")).unwrap();
        let m = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(&m.1[..], b"slow");
        assert!(t0.elapsed() >= Duration::from_millis(25));
        assert_eq!(plan.stats().delayed, 1);
    }
}
