//! Seeded inputs and the statistics the benchmark reports.
//!
//! Everything the daemon receives is derived here from the workload
//! seed: the arrival schedule (Poisson gaps or a fixed clock with a
//! seeded phase) and every payload byte. The same seed therefore replays
//! the same input sequence, and the consumer can re-derive the expected
//! content of any item from its index alone.

use std::time::Duration;

use dstampede_wire::CodecId;

/// splitmix64: tiny, seedable, and good enough for inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1]: never 0, so `ln` of it is finite.
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Derives an independent sub-seed (schedule, payload of item `n`, ...).
pub fn mix(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0xd605_bbb5_8c8a_bc4b)).next_u64()
}

const SALT_SCHEDULE: u64 = 1;
const SALT_PAYLOAD: u64 = 2;

/// How items arrive at the producer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Exponential gaps with the given mean rate (arrivals per second).
    Poisson { per_s: f64 },
    /// A fixed clock (a camera) with a seeded phase.
    Clock { per_s: f64 },
}

impl Arrivals {
    pub fn per_s(self) -> f64 {
        match self {
            Arrivals::Poisson { per_s } | Arrivals::Clock { per_s } => per_s,
        }
    }
}

/// Which container the items travel through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Channel,
    Queue,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub codec: CodecId,
    /// Payload bytes per item.
    pub item_len: usize,
    /// Items per arrival (one `put`, or one `enqueue_many` of this many).
    pub batch: usize,
    pub arrivals: Arrivals,
    /// Container capacity in items; the saturation phase runs against it.
    pub capacity: u32,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "sensor_64",
        kind: Kind::Channel,
        codec: CodecId::Xdr,
        item_len: 64,
        batch: 1,
        // Lowered from 500/s: at 500/s the unchanged daemon built a
        // backlog (open-loop p50 1.7 ms) when host steal reached 17 %.
        arrivals: Arrivals::Poisson { per_s: 250.0 },
        capacity: 64,
    },
    Workload {
        name: "video_190k",
        kind: Kind::Channel,
        codec: CodecId::Xdr,
        item_len: 194_560,
        batch: 1,
        arrivals: Arrivals::Clock { per_s: 60.0 },
        capacity: 8,
    },
    Workload {
        name: "workq_1k",
        kind: Kind::Queue,
        codec: CodecId::Jdr,
        item_len: 1024,
        batch: 32,
        // Lowered from 100/s: at 100/s the unchanged daemon built a
        // backlog (open-loop p50 12-76 ms) when the shared host slowed.
        arrivals: Arrivals::Poisson { per_s: 50.0 },
        capacity: 256,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Intended send offsets (ns from the phase start) of every arrival
/// that falls inside `span`.
pub fn schedule(arrivals: Arrivals, seed: u64, span: Duration) -> Vec<u64> {
    let mut rng = Rng::new(mix(seed, SALT_SCHEDULE));
    let span_ns = span.as_nanos() as f64;
    let mean_gap = 1e9 / arrivals.per_s();
    let mut out = Vec::new();
    let mut t = match arrivals {
        Arrivals::Poisson { .. } => -rng.next_unit().ln() * mean_gap,
        Arrivals::Clock { .. } => rng.next_unit() * mean_gap,
    };
    while t < span_ns {
        out.push(t as u64);
        t += match arrivals {
            Arrivals::Poisson { .. } => -rng.next_unit().ln() * mean_gap,
            Arrivals::Clock { .. } => mean_gap,
        };
    }
    out
}

/// Fills `buf` with item `index`'s payload: the index in the first eight
/// bytes (little-endian), seeded bytes after it.
pub fn fill_payload(buf: &mut [u8], seed: u64, index: u64) {
    let mut rng = Rng::new(mix(seed ^ SALT_PAYLOAD, index));
    for chunk in buf.chunks_mut(8) {
        let word = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
    let head = buf.len().min(8);
    buf[..head].copy_from_slice(&index.to_le_bytes()[..head]);
}

pub fn payload(seed: u64, index: u64, len: usize) -> Vec<u8> {
    let mut buf = vec![0; len];
    fill_payload(&mut buf, seed, index);
    buf
}

/// The index a payload carries in its first eight bytes.
pub fn payload_index(bytes: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.get(..8)?.try_into().ok()?))
}

/// FNV-1a over 64-bit words (then the tail bytes).
pub fn checksum(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().expect("8-byte chunk"))).wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// Linear-interpolated quantile of an ascending slice (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorts `values` and returns their median.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

/// The clock an open-loop generator runs on (real time, or a virtual
/// clock in tests).
pub trait Clock {
    fn now_ns(&self) -> u64;
    /// Blocks until `ns`; must not spin.
    fn sleep_until(&self, ns: u64);
}

/// Real time since `origin`; waits by sleeping.
#[derive(Debug, Clone, Copy)]
pub struct RealClock {
    pub origin: std::time::Instant,
}

impl Clock for RealClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn sleep_until(&self, ns: u64) {
        let now = self.now_ns();
        if ns > now {
            std::thread::sleep(Duration::from_nanos(ns - now));
        }
    }
}

/// What the generator saw while pacing a schedule.
#[derive(Debug, Default)]
pub struct Paced {
    /// Per sent arrival: how late its send started, in ns.
    pub lateness_ns: Vec<u64>,
    /// Arrivals skipped because they were already `late_limit` late.
    pub late_dropped: u64,
}

/// Open-loop generator: sends arrival `i` at `schedule[i]` whatever the
/// system's speed, so a stall delays every arrival queued behind it
/// instead of thinning the load. An arrival already more than
/// `late_limit_ns` late is dropped, not sent.
pub fn pace<C: Clock>(
    clock: &C,
    schedule: &[u64],
    late_limit_ns: u64,
    mut send: impl FnMut(usize),
) -> Paced {
    let mut out = Paced {
        lateness_ns: Vec::with_capacity(schedule.len()),
        late_dropped: 0,
    };
    for (i, &due) in schedule.iter().enumerate() {
        clock.sleep_until(due);
        let late = clock.now_ns().saturating_sub(due);
        if late > late_limit_ns {
            out.late_dropped += 1;
            continue;
        }
        out.lateness_ns.push(late);
        send(i);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn same_seed_same_inputs_other_seed_differs() {
        for w in WORKLOADS {
            let span = Duration::from_secs(2);
            let a = schedule(w.arrivals, 7, span);
            assert_eq!(a, schedule(w.arrivals, 7, span), "{}", w.name);
            assert_ne!(a, schedule(w.arrivals, 8, span), "{}", w.name);
            assert!(!a.is_empty());
            assert_eq!(payload(7, 3, w.item_len), payload(7, 3, w.item_len));
            assert_ne!(payload(7, 3, w.item_len), payload(8, 3, w.item_len));
            assert_ne!(payload(7, 3, w.item_len), payload(7, 4, w.item_len));
            assert_eq!(payload_index(&payload(7, 3, w.item_len)), Some(3));
        }
    }

    #[test]
    fn schedules_have_the_requested_rate() {
        let span = Duration::from_secs(20);
        let poisson = schedule(Arrivals::Poisson { per_s: 500.0 }, 1, span);
        let n = poisson.len() as f64;
        assert!((n - 10_000.0).abs() < 400.0, "{n} arrivals");
        assert!(poisson.windows(2).all(|w| w[0] <= w[1]));
        let clock = schedule(Arrivals::Clock { per_s: 60.0 }, 1, span);
        assert_eq!(clock.len(), 1200);
        let gap = clock[1] - clock[0];
        assert!((16_666_665..=16_666_668).contains(&gap), "{gap}");
    }

    #[test]
    fn checksum_sees_every_byte() {
        let base = payload(1, 1, 1027);
        let sum = checksum(&base);
        for i in [0, 7, 8, 500, 1024, 1026] {
            let mut bent = base.clone();
            bent[i] ^= 1;
            assert_ne!(checksum(&bent), sum, "byte {i}");
        }
        assert_ne!(checksum(&base[..1026]), sum);
    }

    #[test]
    fn quantile_helpers() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(median(&mut v), 50.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert!((quantile(&v, 0.99) - 99.01).abs() < 1e-9);
        let mut odd = vec![3.0, 1.0, 2.0];
        assert_eq!(median(&mut odd), 2.0);
        assert_eq!(median(&mut [5.0]), 5.0);
        assert!(quantile(&[], 0.5).is_nan());
        // Matches statistics.quantiles(range(1, 11), n=4, method="inclusive").
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!([quantile(&ten, 0.25), quantile(&ten, 0.75)], [3.25, 7.75]);
    }

    /// A virtual clock: sleeping jumps to the deadline, sends cost time.
    struct Virtual(Cell<u64>);

    impl Clock for Virtual {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn sleep_until(&self, ns: u64) {
            self.0.set(self.0.get().max(ns));
        }
    }

    #[test]
    fn a_stall_counts_against_the_items_queued_behind_it() {
        const MS: u64 = 1_000_000;
        let schedule: Vec<u64> = (0..10).map(|i| i * MS).collect();
        let clock = Virtual(Cell::new(0));
        let mut done = vec![0u64; schedule.len()];
        let paced = pace(&clock, &schedule, 1000 * MS, |i| {
            // Each send takes 0.1 ms; send 2 stalls for 20 ms.
            let cost = if i == 2 { 20 * MS } else { MS / 10 };
            clock.0.set(clock.0.get() + cost);
            done[i] = clock.now_ns();
        });
        let latency: Vec<u64> = done.iter().zip(&schedule).map(|(d, s)| d - s).collect();
        assert_eq!(latency[1], MS / 10);
        assert_eq!(latency[2], 20 * MS);
        // Items 3.. were due during the stall: each waited out the rest
        // of it, measured from when it was due, not from when it went.
        for i in 3..10 {
            let expected = 22 * MS + (i - 2) * MS / 10 - i * MS;
            assert_eq!(latency[i as usize], expected, "item {i}");
            assert!(latency[i as usize] > MS / 10);
        }
        // Item 3 (due at 3 ms) could only start when send 2 returned.
        assert_eq!(paced.lateness_ns[3], 19 * MS);
        assert_eq!(paced.late_dropped, 0);
    }

    #[test]
    fn arrivals_beyond_the_late_limit_are_dropped() {
        const MS: u64 = 1_000_000;
        let schedule: Vec<u64> = (0..6).map(|i| i * MS).collect();
        let clock = Virtual(Cell::new(0));
        let mut sent = Vec::new();
        let paced = pace(&clock, &schedule, 2 * MS, |i| {
            clock
                .0
                .set(clock.0.get() + if i == 0 { 5 * MS } else { MS / 10 });
            sent.push(i);
        });
        // Items 1 and 2 are > 2 ms late when item 0 returns at 5 ms.
        assert_eq!(paced.late_dropped, 2);
        assert_eq!(sent, vec![0, 3, 4, 5]);
    }
}
