//! Network shaping: bandwidth and latency models.
//!
//! The paper's measurements ran on a 2002-era cluster (Gigabit Ethernet,
//! 550 MHz Xeons) whose effective user-level throughput was orders of
//! magnitude below a modern loopback. To reproduce the *shape* of the
//! paper's results — in particular the application-level saturation knee of
//! Table 1 — experiments can wrap any transport or stream in a shaper that
//! imposes a per-link latency and a token-bucket bandwidth cap. Raw
//! (unshaped) numbers are always reported alongside; see `EXPERIMENTS.md`.

use std::fmt;
use std::io::{Read, Write};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;

use dstampede_core::AsId;
use dstampede_obs::{Counter, MetricsRegistry};

use crate::error::ClfError;
use crate::transport::{ClfHandler, ClfTransport, TransportStats};

/// Sleeps for `d` with sub-millisecond precision: the bulk of the wait
/// uses the OS sleep, the tail spins. Shaping sleeps are in the tens of
/// microseconds to low milliseconds, where a bare `thread::sleep` can
/// overshoot by a millisecond or more and destroy latency measurements.
pub fn precise_sleep(d: Duration) {
    if d.is_zero() {
        return;
    }
    let end = Instant::now() + d;
    if d > Duration::from_millis(2) {
        std::thread::sleep(d - Duration::from_millis(1));
    }
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

/// A link's latency/bandwidth parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetProfile {
    /// One-way delivery latency added per message.
    pub latency: Duration,
    /// Egress bandwidth cap in bytes per second (`None` = unlimited).
    pub bandwidth: Option<u64>,
}

impl NetProfile {
    /// No shaping: today's loopback.
    pub const LOOPBACK: NetProfile = NetProfile {
        latency: Duration::ZERO,
        bandwidth: None,
    };

    /// A 2002-era Gigabit Ethernet cluster link as the paper's application
    /// study observed it: ~50 MB/s deliverable from a node, ~150 µs one-way
    /// latency at user level.
    #[must_use]
    pub fn gige_2002() -> NetProfile {
        NetProfile {
            latency: Duration::from_micros(150),
            bandwidth: Some(50 * 1024 * 1024),
        }
    }

    /// An end-device uplink as the paper's micro-benchmarks observed TCP:
    /// ~22 MB/s effective, ~300 µs one-way.
    #[must_use]
    pub fn end_device_2002() -> NetProfile {
        NetProfile {
            latency: Duration::from_micros(300),
            bandwidth: Some(22 * 1024 * 1024),
        }
    }

    /// Whether this profile changes anything.
    #[must_use]
    pub fn is_transparent(&self) -> bool {
        self.latency.is_zero() && self.bandwidth.is_none()
    }
}

/// Token bucket with a debt model: a consume always succeeds immediately
/// in accounting terms, and the caller sleeps off any debt, giving exact
/// long-run throughput without chunking logic.
#[derive(Debug)]
pub struct TokenBucket {
    state: Mutex<BucketState>,
    rate: u64, // bytes per second
}

#[derive(Debug)]
struct BucketState {
    tokens: f64,
    last_refill: Instant,
}

impl TokenBucket {
    /// A bucket emitting `rate` bytes per second with a ~1 ms burst
    /// allowance, so each message effectively pays its transmission delay
    /// (`size / rate`) — the store-and-forward model a saturated NIC
    /// presents to its senders.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero.
    #[must_use]
    pub fn new(rate: u64) -> Self {
        assert!(rate > 0, "token bucket rate must be non-zero");
        TokenBucket {
            state: Mutex::new(BucketState {
                tokens: Self::burst_for(rate),
                last_refill: Instant::now(),
            }),
            rate,
        }
    }

    fn burst_for(rate: u64) -> f64 {
        (rate as f64 / 1000.0).max(1500.0)
    }

    /// Accounts for `n` bytes, sleeping until the long-run rate is honored.
    pub fn consume(&self, n: usize) {
        let burst = Self::burst_for(self.rate);
        let debt_secs;
        {
            let mut st = self.state.lock();
            let now = Instant::now();
            let elapsed = now.duration_since(st.last_refill).as_secs_f64();
            st.last_refill = now;
            st.tokens = (st.tokens + elapsed * self.rate as f64).min(burst);
            st.tokens -= n as f64;
            debt_secs = if st.tokens < 0.0 {
                -st.tokens / self.rate as f64
            } else {
                0.0
            };
        }
        if debt_secs > 0.0 {
            precise_sleep(Duration::from_secs_f64(debt_secs));
        }
    }
}

/// Paces a sender to a byte rate with a debt-style token budget, so
/// transmissions spread across the round trip instead of blasting the
/// whole window into the kernel (and the path's queues) at once.
///
/// Unlike [`TokenBucket`], a pacer never sleeps: [`Pacer::grant`] is a
/// pure admission decision against an explicit clock, made under the
/// caller's lock. A grant is allowed whenever the token balance is
/// positive and may drive it negative — so a full-size datagram is
/// always admitted eventually, no matter how small the rate, and the
/// sender cannot wedge. Denied packets stay queued; the caller retries
/// after time passes or an acknowledgment arrives.
#[derive(Debug)]
pub struct Pacer {
    rate: Option<f64>,
    tokens: f64,
    last: Option<Instant>,
}

impl Pacer {
    /// A pacer emitting `rate` bytes per second, or unpaced for `None`.
    #[must_use]
    pub fn new(rate: Option<u64>) -> Pacer {
        Pacer {
            rate: rate.map(|r| r as f64).filter(|r| *r > 0.0),
            tokens: 0.0,
            last: None,
        }
    }

    /// Re-targets the rate (`None` or non-positive = unpaced). The token
    /// balance carries over, so adaptive re-targeting — e.g. from a
    /// smoothed RTT estimate — does not grant a fresh burst.
    pub fn set_rate(&mut self, rate: Option<f64>) {
        self.rate = rate.filter(|r| r.is_finite() && *r > 0.0);
    }

    /// The current rate in bytes per second, if pacing is active.
    #[must_use]
    pub fn rate(&self) -> Option<f64> {
        self.rate
    }

    /// Up to ~10 ms of credit may accumulate, with a floor of one
    /// datagram's worth so tiny rates still admit whole packets.
    fn burst(rate: f64) -> f64 {
        (rate / 100.0).max(65_536.0)
    }

    /// Decides whether `bytes` may be transmitted at `now`. Granting
    /// subtracts from the balance (possibly below zero); denial leaves
    /// the balance untouched and the caller's packet queued.
    pub fn grant(&mut self, bytes: usize, now: Instant) -> bool {
        let Some(rate) = self.rate else { return true };
        let burst = Self::burst(rate);
        match self.last {
            Some(last) => {
                let dt = now.saturating_duration_since(last).as_secs_f64();
                self.tokens = (self.tokens + rate * dt).min(burst);
            }
            None => self.tokens = burst,
        }
        self.last = Some(now);
        if self.tokens <= 0.0 {
            return false;
        }
        self.tokens -= bytes as f64;
        true
    }
}

/// A [`ClfTransport`] wrapper imposing a [`NetProfile`].
///
/// Bandwidth is charged on `send` (egress shaping); latency is added on
/// delivery. Per-message latency is approximated by sleeping on the
/// receive path (the handler's receive thread, or `recv`), which is exact
/// for request/reply traffic and conservative for pipelined streams.
pub struct ShapedTransport {
    inner: Arc<dyn ClfTransport>,
    profile: NetProfile,
    bucket: Option<TokenBucket>,
    /// Egress counters under the `clf` subsystem (`shaped_msgs`,
    /// `shaped_bytes`), present once `bind_metrics` ran.
    obs: OnceLock<(Arc<Counter>, Arc<Counter>)>,
}

impl ShapedTransport {
    /// Wraps a transport in a profile.
    #[must_use]
    pub fn new(inner: Arc<dyn ClfTransport>, profile: NetProfile) -> Arc<Self> {
        Arc::new(ShapedTransport {
            inner,
            profile,
            bucket: profile.bandwidth.map(TokenBucket::new),
            obs: OnceLock::new(),
        })
    }

    /// The wrapped transport.
    #[must_use]
    pub fn inner(&self) -> &Arc<dyn ClfTransport> {
        &self.inner
    }

    /// The applied profile.
    #[must_use]
    pub fn profile(&self) -> NetProfile {
        self.profile
    }

    fn delay(&self) {
        precise_sleep(self.profile.latency);
    }
}

/// Charges a link's one-way latency before each delivery.
struct DelayedHandler {
    inner: Arc<dyn ClfHandler>,
    latency: Duration,
}

impl ClfHandler for DelayedHandler {
    fn on_message(&self, from: AsId, msg: Bytes) {
        precise_sleep(self.latency);
        self.inner.on_message(from, msg);
    }

    fn on_tick(&self) -> Option<Duration> {
        self.inner.on_tick()
    }
}

impl ClfTransport for ShapedTransport {
    fn local(&self) -> AsId {
        self.inner.local()
    }

    fn send(&self, dst: AsId, msg: Bytes) -> Result<(), ClfError> {
        if let Some(bucket) = &self.bucket {
            bucket.consume(msg.len());
        }
        if let Some((msgs, bytes)) = self.obs.get() {
            msgs.inc();
            bytes.add(msg.len() as u64);
        }
        self.inner.send(dst, msg)
    }

    fn send_segments(&self, dst: AsId, segments: &[Bytes]) -> Result<(), ClfError> {
        let total: usize = segments.iter().map(Bytes::len).sum();
        if let Some(bucket) = &self.bucket {
            bucket.consume(total);
        }
        if let Some((msgs, bytes)) = self.obs.get() {
            msgs.inc();
            bytes.add(total as u64);
        }
        self.inner.send_segments(dst, segments)
    }

    fn set_handler(&self, handler: Arc<dyn ClfHandler>) {
        let handler = if self.profile.latency.is_zero() {
            handler
        } else {
            Arc::new(DelayedHandler {
                inner: handler,
                latency: self.profile.latency,
            })
        };
        self.inner.set_handler(handler);
    }

    fn recv(&self) -> Result<(AsId, Bytes), ClfError> {
        let m = self.inner.recv()?;
        self.delay();
        Ok(m)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<(AsId, Bytes), ClfError> {
        let m = self.inner.recv_timeout(timeout)?;
        self.delay();
        Ok(m)
    }

    fn try_recv(&self) -> Result<(AsId, Bytes), ClfError> {
        let m = self.inner.try_recv()?;
        self.delay();
        Ok(m)
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }

    fn bind_metrics(&self, registry: &MetricsRegistry) {
        let _ = self.obs.set((
            registry.counter("clf", "shaped_msgs"),
            registry.counter("clf", "shaped_bytes"),
        ));
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

impl fmt::Debug for ShapedTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShapedTransport")
            .field("inner", &self.inner)
            .field("profile", &self.profile)
            .finish()
    }
}

/// A byte stream wrapper imposing a [`NetProfile`] on both directions of
/// a full-duplex link.
///
/// Each `write` is charged against the uplink bandwidth bucket and delayed
/// by the one-way latency; each `read` is charged against a separate
/// downlink bucket for the bytes received (the reply's transmission time on
/// the same physical link).
#[derive(Debug)]
pub struct ShapedStream<S> {
    inner: S,
    profile: NetProfile,
    bucket: Option<Arc<TokenBucket>>,
    down_bucket: Option<Arc<TokenBucket>>,
    latency_charged: bool,
}

impl<S> ShapedStream<S> {
    /// Wraps a stream in a profile.
    #[must_use]
    pub fn new(inner: S, profile: NetProfile) -> Self {
        ShapedStream {
            inner,
            profile,
            bucket: profile.bandwidth.map(|r| Arc::new(TokenBucket::new(r))),
            down_bucket: profile.bandwidth.map(|r| Arc::new(TokenBucket::new(r))),
            latency_charged: false,
        }
    }

    /// Wraps a stream in a profile whose uplink bandwidth budget is
    /// *shared* with other streams — several sockets leaving one node
    /// compete for the node's egress, as the paper's mixer node does.
    /// (The downlink is not shaped here: the receiving ends are distinct
    /// nodes with their own links.)
    #[must_use]
    pub fn with_shared_bucket(inner: S, profile: NetProfile, bucket: Arc<TokenBucket>) -> Self {
        ShapedStream {
            inner,
            profile,
            bucket: Some(bucket),
            down_bucket: None,
            latency_charged: false,
        }
    }

    /// Unwraps the inner stream.
    #[must_use]
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Read> Read for ShapedStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        if let Some(bucket) = &self.down_bucket {
            bucket.consume(n);
        }
        Ok(n)
    }
}

impl<S: Write> Write for ShapedStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if let Some(bucket) = &self.bucket {
            bucket.consume(buf.len());
        }
        // Charge the one-way latency once per flush epoch, not per write
        // call, so a frame assembled from header+payload writes pays once.
        if !self.latency_charged && !self.profile.latency.is_zero() {
            precise_sleep(self.profile.latency);
            self.latency_charged = true;
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.latency_charged = false;
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemFabric;

    #[test]
    fn loopback_profile_is_transparent() {
        assert!(NetProfile::LOOPBACK.is_transparent());
        assert!(!NetProfile::gige_2002().is_transparent());
    }

    #[test]
    fn token_bucket_enforces_long_run_rate() {
        let bucket = TokenBucket::new(10 * 1024 * 1024); // 10 MB/s
        let start = Instant::now();
        // 2 MB total => ≥ ~150 ms even counting the initial burst credit.
        for _ in 0..20 {
            bucket.consume(100 * 1024);
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(120),
            "2MB at 10MB/s took only {elapsed:?}"
        );
        assert!(elapsed < Duration::from_millis(800), "took {elapsed:?}");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_rate_panics() {
        let _ = TokenBucket::new(0);
    }

    #[test]
    fn pacer_unpaced_always_grants() {
        let mut p = Pacer::new(None);
        let t0 = Instant::now();
        for _ in 0..1000 {
            assert!(p.grant(1 << 20, t0));
        }
    }

    #[test]
    fn pacer_defers_and_refills_on_virtual_clock() {
        // 1 MB/s → 64 KiB burst floor dominates the 10 ms credit.
        let mut p = Pacer::new(Some(1024 * 1024));
        let t0 = Instant::now();
        let mut granted = 0usize;
        while p.grant(8192, t0) {
            granted += 8192;
            assert!(granted <= 128 * 1024, "burst credit never ran out");
        }
        // The initial burst is ~64 KiB; the balance may dip below zero
        // by at most one packet (the debt model's no-wedge guarantee).
        assert!((64 * 1024..=80 * 1024).contains(&granted), "{granted}");
        // No time passed: still denied.
        assert!(!p.grant(8192, t0));
        // 100 ms later the rate has minted ~100 KiB of credit.
        let later = t0 + Duration::from_millis(100);
        assert!(p.grant(8192, later));
    }

    #[test]
    fn pacer_debt_admits_oversized_packets() {
        // 10 KB/s with 64 KiB burst floor: a 1 MiB packet exceeds any
        // balance, but the debt model admits it while tokens > 0.
        let mut p = Pacer::new(Some(10 * 1024));
        let t0 = Instant::now();
        assert!(p.grant(1 << 20, t0), "positive balance admits any size");
        assert!(!p.grant(1, t0), "deep in debt now");
        // The debt is bounded, so credit eventually returns.
        let much_later = t0 + Duration::from_secs(200);
        assert!(p.grant(1, much_later));
    }

    #[test]
    fn pacer_retarget_keeps_balance() {
        let mut p = Pacer::new(Some(1024));
        let t0 = Instant::now();
        while p.grant(65_536, t0) {}
        // Raising the rate does not mint a fresh burst out of thin air.
        p.set_rate(Some(2048.0));
        assert!(!p.grant(65_536, t0));
        // Dropping to unpaced always grants.
        p.set_rate(None);
        assert!(p.grant(1 << 30, t0));
    }

    #[test]
    fn shaped_transport_passes_messages() {
        let fabric = MemFabric::new();
        let a = fabric.endpoint(AsId(0));
        let b = fabric.endpoint(AsId(1));
        let shaped_a = ShapedTransport::new(
            a,
            NetProfile {
                latency: Duration::from_millis(5),
                bandwidth: Some(1024 * 1024),
            },
        );
        shaped_a
            .send(AsId(1), Bytes::from_static(b"hello"))
            .unwrap();
        assert_eq!(&b.recv().unwrap().1[..], b"hello");
        assert_eq!(shaped_a.local(), AsId(0));
        assert_eq!(shaped_a.stats().msgs_sent, 1);
    }

    #[test]
    fn shaped_transport_adds_recv_latency() {
        let fabric = MemFabric::new();
        let a = fabric.endpoint(AsId(0));
        let b = ShapedTransport::new(
            fabric.endpoint(AsId(1)),
            NetProfile {
                latency: Duration::from_millis(20),
                bandwidth: None,
            },
        );
        a.send(AsId(1), Bytes::from_static(b"x")).unwrap();
        let start = Instant::now();
        let _ = b.recv().unwrap();
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn shaped_stream_rate_limits_writes() {
        let sink = Vec::new();
        let mut s = ShapedStream::new(
            sink,
            NetProfile {
                latency: Duration::ZERO,
                bandwidth: Some(1024 * 1024), // 1 MB/s
            },
        );
        let start = Instant::now();
        // 200 KB at 1 MB/s => ~200ms minus the 50ms burst credit.
        for _ in 0..20 {
            s.write_all(&[0u8; 10 * 1024]).unwrap();
        }
        assert!(start.elapsed() >= Duration::from_millis(120));
        assert_eq!(s.into_inner().len(), 200 * 1024);
    }

    #[test]
    fn shaped_stream_charges_latency_once_per_flush() {
        let sink = Vec::new();
        let mut s = ShapedStream::new(
            sink,
            NetProfile {
                latency: Duration::from_millis(10),
                bandwidth: None,
            },
        );
        let start = Instant::now();
        s.write_all(b"header").unwrap();
        s.write_all(b"payload").unwrap(); // same flush epoch: no extra delay
        s.flush().unwrap();
        let one = start.elapsed();
        assert!(one >= Duration::from_millis(10));
        assert!(one < Duration::from_millis(30));
    }
}
