//! Driving the daemon: set-up, the open-loop and saturation phases, and
//! the closed-loop client replay.
//!
//! Load comes from this one process on two threads: the main thread is
//! the producer end device (attached to AS 0) and one scoped thread per
//! phase is the consumer end device (attached to AS 1); each device is
//! one TCP connection. The consumer checks every item it receives.

use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dstampede_client::{ClientChanIn, ClientChanOut, ClientQueueIn, ClientQueueOut, EndDevice};
use dstampede_core::{
    ChannelAttrs, GetSpec, Interest, Item, QueueAttrs, StmError, StmResult, Timestamp,
};
use dstampede_obs::Snapshot;
use dstampede_wire::WaitSpec;

use crate::daemon::Daemon;
use crate::gen::{self, Clock, Kind, RealClock, Workload};

/// An arrival this late when its turn comes is dropped, not sent.
const LATE_LIMIT: Duration = Duration::from_millis(500);
/// Upper bound on one blocking put; hitting it counts as a refusal.
const PUT_WAIT_MS: u32 = 5_000;
/// How long a consumer get blocks before it re-checks for the end.
const POLL_MS: u32 = 50;
/// With the producer done, the consumer gives up after this long
/// without receiving anything.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);
/// Telemetry sampling period in traced phases.
const SAMPLE_EVERY: Duration = Duration::from_millis(250);

pub fn err(what: &str) -> impl Fn(StmError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

pub enum Writer {
    Chan(ClientChanOut),
    Queue(ClientQueueOut),
}

pub enum Reader {
    Chan(ClientChanIn),
    Queue(ClientQueueIn),
}

/// A running daemon with both end devices attached and connected to the
/// workload's container.
pub struct Rig {
    pub daemon: Daemon,
    pub producer: EndDevice,
    pub consumer: EndDevice,
    pub writer: Writer,
    pub reader: Reader,
}

fn connect(
    kind: Kind,
    name: &str,
    capacity: u32,
    producer: &EndDevice,
    consumer: &EndDevice,
) -> Result<(Writer, Reader), String> {
    Ok(match kind {
        Kind::Channel => {
            let attrs = ChannelAttrs::builder().capacity(capacity).build();
            let id = producer
                .create_channel(Some(name), attrs)
                .map_err(err("create channel"))?;
            (
                Writer::Chan(producer.connect_channel_out(id).map_err(err("connect"))?),
                Reader::Chan(
                    consumer
                        .connect_channel_in(id, Interest::FromEarliest)
                        .map_err(err("connect"))?,
                ),
            )
        }
        Kind::Queue => {
            let attrs = QueueAttrs::builder().capacity(capacity).build();
            let id = producer
                .create_queue(Some(name), attrs)
                .map_err(err("create queue"))?;
            (
                Writer::Queue(producer.connect_queue_out(id).map_err(err("connect"))?),
                Reader::Queue(consumer.connect_queue_in(id).map_err(err("connect"))?),
            )
        }
    })
}

impl Rig {
    /// Spawns the daemon and builds the workload's container and
    /// connections.
    pub fn setup(w: &Workload, daemon_bin: &Path) -> Result<Rig, String> {
        let daemon = Daemon::spawn(
            daemon_bin,
            &["--address-spaces", "2", "--udp"],
            2,
            Duration::from_secs(30),
        )?;
        let producer =
            EndDevice::attach(daemon.addr(0), w.codec, "producer").map_err(err("attach"))?;
        let consumer =
            EndDevice::attach(daemon.addr(1), w.codec, "consumer").map_err(err("attach"))?;
        let (writer, reader) = connect(w.kind, "bench", w.capacity, &producer, &consumer)?;
        Ok(Rig {
            daemon,
            producer,
            consumer,
            writer,
            reader,
        })
    }

    /// Creates and connects a container of the kind the workload does
    /// not use, so the client replay can time every client call.
    pub fn side(&self, w: &Workload) -> Result<(Writer, Reader), String> {
        let kind = match w.kind {
            Kind::Channel => Kind::Queue,
            Kind::Queue => Kind::Channel,
        };
        connect(
            kind,
            "bench-side",
            w.capacity,
            &self.producer,
            &self.consumer,
        )
    }

    /// Disconnects, detaches, and closes the daemon's stdin, which asks
    /// it to shut down; returns the daemon, to be reaped with
    /// [`Daemon::shutdown`].
    pub fn close(self) -> Result<Daemon, String> {
        let Rig {
            mut daemon,
            producer,
            consumer,
            writer,
            reader,
        } = self;
        drop((writer, reader));
        let detached = producer
            .detach()
            .and_then(|()| consumer.detach())
            .map_err(err("detach"));
        daemon.close_stdin();
        detached.map(|()| daemon)
    }
}

fn stamp(index: u64) -> Timestamp {
    Timestamp::new(i64::try_from(index).expect("item index fits a timestamp"))
}

/// Items of one arrival: consecutive indexes from `first`.
fn arrival_items(w: &Workload, seed: u64, first: u64) -> Vec<(Timestamp, Item)> {
    (first..first + w.batch as u64)
        .map(|i| (stamp(i), Item::from_vec(gen::payload(seed, i, w.item_len))))
        .collect()
}

/// Consumer call durations (ns) recorded in traced phases.
#[derive(Debug, Default)]
pub struct Spans {
    pub read: Vec<u64>,
    pub consume: Vec<u64>,
}

fn timed<T>(spans: Option<&mut Vec<u64>>, op: impl FnOnce() -> T) -> T {
    match spans {
        None => op(),
        Some(v) => {
            let t = Instant::now();
            let out = op();
            v.push(t.elapsed().as_nanos() as u64);
            out
        }
    }
}

impl Writer {
    /// Writes one arrival; returns the indexes the container refused.
    fn write(&self, items: Vec<(Timestamp, Item)>, spans: Option<&mut Vec<u64>>) -> Vec<u64> {
        let wait = WaitSpec::TimeoutMs(PUT_WAIT_MS);
        let indexes: Vec<u64> = items.iter().map(|(ts, _)| ts.value() as u64).collect();
        let outcomes: Vec<StmResult<()>> = match self {
            Writer::Chan(out) => timed(spans, || {
                items
                    .into_iter()
                    .map(|(ts, item)| out.put(ts, item, wait))
                    .collect()
            }),
            Writer::Queue(out) => match timed(spans, || out.enqueue_many(items, wait)) {
                Ok(each) => each,
                Err(e) => indexes.iter().map(|_| Err(e.clone())).collect(),
            },
        };
        indexes
            .into_iter()
            .zip(outcomes)
            .filter_map(|(i, r)| r.is_err().then_some(i))
            .collect()
    }
}

/// What both sides of a phase share.
struct Flow {
    /// Items the container accepted so far.
    accepted: AtomicU64,
    done: AtomicBool,
    /// Indexes offered but never accepted (late-dropped or refused).
    unsent: Mutex<HashSet<u64>>,
}

/// The consumer's view of one phase.
#[derive(Debug, Default)]
pub struct Delivered {
    /// Intended-send-to-delivery latency per item (open loop only).
    pub latency_ns: Vec<u64>,
    /// When the last item was delivered, ns after the phase origin.
    pub last_at_ns: u64,
    pub count: u64,
    /// Failed output checks and errored calls.
    pub failures: Vec<String>,
    pub spans: Spans,
    /// Channel: the last timestamp seen, carried into the next phase.
    pub last_ts: Option<Timestamp>,
    seen: Vec<u64>,
}

/// Everything one phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    pub offered: u64,
    pub late_dropped: u64,
    pub refused: u64,
    pub lateness_ns: Vec<u64>,
    pub delivered: Delivered,
    pub write_spans: Vec<u64>,
    /// Telemetry sampled every `SAMPLE_EVERY` (traced phases).
    pub samples: Vec<Snapshot>,
    /// Index of the first item of the next phase.
    pub next_index: u64,
}

impl Phase {
    /// Items offered but not delivered, refused, or failing a check.
    pub fn failed(&self) -> u64 {
        let missing = self.offered.saturating_sub(self.delivered.count);
        missing.max(self.late_dropped + self.refused) + self.delivered.failures.len() as u64
    }
}

/// How a phase generates load.
pub enum Load<'a> {
    /// Arrivals at these offsets (ns) from the phase start.
    Open(&'a [u64]),
    /// Back to back for this long, held in step by the capacity bound.
    Saturate(Duration),
}

pub struct PhaseCfg<'a> {
    pub w: &'a Workload,
    pub seed: u64,
    pub first_index: u64,
    pub last_ts: Option<Timestamp>,
    pub traced: bool,
}

/// Runs one phase: the producer on this thread, the consumer on a
/// scoped second one.
pub fn run_phase(rig: &Rig, cfg: &PhaseCfg<'_>, load: &Load<'_>) -> Phase {
    let w = cfg.w;
    let flow = Flow {
        accepted: AtomicU64::new(0),
        done: AtomicBool::new(false),
        unsent: Mutex::new(HashSet::new()),
    };
    let clock = RealClock {
        origin: Instant::now(),
    };
    let schedule = match load {
        Load::Open(s) => Some(*s),
        Load::Saturate(_) => None,
    };
    let mut phase = Phase::default();
    let mut last_sample = Instant::now();
    std::thread::scope(|s| {
        let consumer = s.spawn(|| consume(rig, cfg, &flow, clock, schedule));
        let mut write_spans = Vec::new();
        let mut send = |items: Vec<(Timestamp, Item)>| {
            let n = items.len() as u64;
            let rejected = rig
                .writer
                .write(items, cfg.traced.then_some(&mut write_spans));
            phase.refused += rejected.len() as u64;
            flow.accepted
                .fetch_add(n - rejected.len() as u64, Ordering::SeqCst);
            flow.unsent.lock().expect("unsent set").extend(rejected);
            if cfg.traced && last_sample.elapsed() >= SAMPLE_EVERY {
                if let Ok(snap) = rig.producer.stats(true) {
                    phase.samples.push(snap);
                }
                last_sample = Instant::now();
            }
        };
        let batch = w.batch as u64;
        match load {
            Load::Open(sched) => {
                // Each arrival's payloads are built before it is due.
                let mut next = arrival_items(w, cfg.seed, cfg.first_index);
                let mut sent = vec![false; sched.len()];
                let paced = gen::pace(&clock, sched, LATE_LIMIT.as_nanos() as u64, |k| {
                    let first = cfg.first_index + k as u64 * batch;
                    let items = if next[0].0 == stamp(first) {
                        std::mem::take(&mut next)
                    } else {
                        arrival_items(w, cfg.seed, first)
                    };
                    send(items);
                    sent[k] = true;
                    next = arrival_items(w, cfg.seed, first + batch);
                });
                let late = sent.iter().enumerate().filter(|(_, s)| !**s);
                flow.unsent
                    .lock()
                    .expect("unsent set")
                    .extend(late.flat_map(|(k, _)| {
                        let first = cfg.first_index + k as u64 * batch;
                        first..first + batch
                    }));
                phase.offered = sched.len() as u64 * batch;
                phase.late_dropped = paced.late_dropped * batch;
                phase.lateness_ns = paced.lateness_ns;
            }
            Load::Saturate(span) => {
                let end = Instant::now() + *span;
                let mut index = cfg.first_index;
                while Instant::now() < end {
                    send(arrival_items(w, cfg.seed, index));
                    index += batch;
                }
                phase.offered = index - cfg.first_index;
            }
        }
        phase.write_spans = write_spans;
        flow.done.store(true, Ordering::SeqCst);
        phase.delivered = consumer.join().expect("consumer thread panicked");
    });
    phase.next_index = cfg.first_index + phase.offered;

    // Every delivered index must have been accepted, and delivered once.
    let unsent = flow.unsent.into_inner().expect("unsent set");
    let d = &mut phase.delivered;
    let mut seen = std::mem::take(&mut d.seen);
    seen.sort_unstable();
    if seen.windows(2).any(|p| p[0] == p[1]) {
        d.failures.push("an item was delivered twice".into());
    }
    if let Some(i) = seen.iter().find(|i| unsent.contains(i)) {
        d.failures
            .push(format!("item {i} was delivered but never accepted"));
    }
    let accepted = phase.offered - unsent.len() as u64;
    if d.count != accepted {
        d.failures.push(format!(
            "{accepted} items accepted but {} delivered",
            d.count
        ));
    }
    phase
}

/// The consumer side of a phase: read, check, and consume every item.
fn consume(
    rig: &Rig,
    cfg: &PhaseCfg<'_>,
    flow: &Flow,
    clock: RealClock,
    schedule: Option<&[u64]>,
) -> Delivered {
    let w = cfg.w;
    let traced = cfg.traced;
    let mut d = Delivered {
        last_ts: cfg.last_ts,
        ..Delivered::default()
    };
    let mut spans = Spans::default();
    let mut tickets = HashSet::new();
    let mut idle_since = Instant::now();
    let mut expected = vec![0u8; w.item_len];
    loop {
        if flow.done.load(Ordering::SeqCst) {
            if d.count >= flow.accepted.load(Ordering::SeqCst) {
                break;
            }
            if idle_since.elapsed() > DRAIN_LIMIT {
                d.failures.push(format!(
                    "consumer received nothing for {DRAIN_LIMIT:?} with {} of {} items delivered",
                    d.count,
                    flow.accepted.load(Ordering::SeqCst)
                ));
                break;
            }
        }
        let wait = WaitSpec::TimeoutMs(POLL_MS);
        // (timestamp, item, queue ticket, ns when its call returned).
        let got: Vec<(Timestamp, Item, Option<u64>, u64)> = match &rig.reader {
            Reader::Chan(inp) => {
                let spec = d.last_ts.map_or(GetSpec::Earliest, GetSpec::After);
                match timed(traced.then_some(&mut spans.read), || inp.get(spec, wait)) {
                    Ok((ts, item)) => vec![(ts, item, None, clock.now_ns())],
                    Err(StmError::Timeout | StmError::Absent) => Vec::new(),
                    Err(e) => {
                        d.failures.push(format!("channel get: {e}"));
                        break;
                    }
                }
            }
            Reader::Queue(inp) => {
                // dequeue_many never blocks, so wait for the first item
                // of an arrival with a get, then take the rest at once.
                match timed(traced.then_some(&mut spans.read), || inp.get(wait)) {
                    Ok((ts, item, ticket)) => {
                        let mut got = vec![(ts, item, Some(ticket), clock.now_ns())];
                        if w.batch > 1 {
                            match timed(traced.then_some(&mut spans.read), || {
                                inp.dequeue_many(w.batch - 1)
                            }) {
                                Ok(more) => {
                                    let at = clock.now_ns();
                                    got.extend(
                                        more.into_iter().map(|(ts, i, t)| (ts, i, Some(t), at)),
                                    );
                                }
                                Err(e) => d.failures.push(format!("dequeue_many: {e}")),
                            }
                        }
                        got
                    }
                    Err(StmError::Timeout | StmError::Absent) => Vec::new(),
                    Err(e) => {
                        d.failures.push(format!("queue get: {e}"));
                        break;
                    }
                }
            }
        };
        if got.is_empty() {
            continue;
        }
        idle_since = Instant::now();
        for (ts, item, ticket, at) in got {
            let index = ts.value() as u64;
            if let Some(sched) = schedule {
                let arrival = (index.wrapping_sub(cfg.first_index) / w.batch as u64) as usize;
                match sched.get(arrival) {
                    Some(&due) => d.latency_ns.push(at.saturating_sub(due)),
                    None => d
                        .failures
                        .push(format!("item {index} is outside this phase")),
                }
            }
            if let Some(problem) = check(w, cfg.seed, index, &item, &mut expected) {
                d.failures.push(problem);
            }
            d.count += 1;
            d.last_at_ns = at;
            d.seen.push(index);
            let settled = match (&rig.reader, ticket) {
                (Reader::Chan(inp), _) => {
                    if d.last_ts.is_some_and(|last| ts <= last) {
                        d.failures
                            .push(format!("timestamp {ts:?} not after {:?}", d.last_ts));
                    }
                    d.last_ts = Some(ts);
                    timed(traced.then_some(&mut spans.consume), || {
                        inp.consume_until(ts)
                    })
                }
                (Reader::Queue(inp), Some(ticket)) => {
                    if !tickets.insert(ticket) {
                        d.failures.push(format!("ticket {ticket} handed out twice"));
                    }
                    timed(traced.then_some(&mut spans.consume), || inp.consume(ticket))
                }
                (Reader::Queue(_), None) => unreachable!("queue items carry tickets"),
            };
            if let Err(e) = settled {
                d.failures.push(format!("consume of item {index}: {e}"));
            }
        }
    }
    d.spans = spans;
    d
}

/// Checks one delivered item against the seeded input; `scratch` is a
/// reusable buffer of the item length.
fn check(w: &Workload, seed: u64, index: u64, item: &Item, scratch: &mut [u8]) -> Option<String> {
    let bytes = item.payload();
    if bytes.len() != w.item_len {
        return Some(format!(
            "item {index}: {} bytes, expected {}",
            bytes.len(),
            w.item_len
        ));
    }
    if gen::payload_index(bytes) != Some(index) {
        return Some(format!("item {index}: payload carries another index"));
    }
    gen::fill_payload(scratch, seed, index);
    (gen::checksum(bytes) != gen::checksum(scratch))
        .then(|| format!("item {index}: content checksum mismatch"))
}

/// Client call durations (ns) from [`client_replay`].
pub struct ClientTimes {
    /// put (channel) or enqueue_many (queue), per call.
    pub write_ns: Vec<u64>,
    /// get (channel) or dequeue_many (queue), per call.
    pub read_ns: Vec<u64>,
    /// consume_until (channel) or consume (queue), per call.
    pub consume_ns: Vec<u64>,
}

/// Closed-loop client replay on the live daemon: write one arrival,
/// read it back on the other device, consume it; repeat for `span`.
/// Nothing is in flight, so every call is timed without queueing.
/// Returns the times and the next unused item index.
pub fn client_replay(
    writer: &Writer,
    reader: &Reader,
    w: &Workload,
    seed: u64,
    first_index: u64,
    span: Duration,
) -> Result<(ClientTimes, u64), String> {
    let mut t = ClientTimes {
        write_ns: Vec::new(),
        read_ns: Vec::new(),
        consume_ns: Vec::new(),
    };
    let batch = match writer {
        Writer::Chan(_) => 1,
        Writer::Queue(_) => w.batch,
    };
    let mut expected = vec![0u8; w.item_len];
    let end = Instant::now() + span;
    let mut index = first_index;
    while Instant::now() < end || t.write_ns.len() < 20 {
        let items: Vec<(Timestamp, Item)> = (index..index + batch as u64)
            .map(|i| (stamp(i), Item::from_vec(gen::payload(seed, i, w.item_len))))
            .collect();
        if !writer.write(items, Some(&mut t.write_ns)).is_empty() {
            return Err(format!("client replay: write of item {index} refused"));
        }
        let got: Vec<(Timestamp, Item, u64)> = match reader {
            Reader::Chan(inp) => {
                let one = timed(Some(&mut t.read_ns), || {
                    inp.get(GetSpec::Exact(stamp(index)), WaitSpec::NonBlocking)
                });
                vec![one
                    .map(|(ts, item)| (ts, item, 0))
                    .map_err(err("replay get"))?]
            }
            Reader::Queue(inp) => timed(Some(&mut t.read_ns), || inp.dequeue_many(batch))
                .map_err(err("replay dequeue_many"))?,
        };
        if got.len() != batch {
            return Err(format!("client replay read {} of {batch} items", got.len()));
        }
        for (ts, item, ticket) in got {
            let i = ts.value() as u64;
            if let Some(problem) = check(w, seed, i, &item, &mut expected) {
                return Err(format!("client replay: {problem}"));
            }
            match reader {
                Reader::Chan(inp) => timed(Some(&mut t.consume_ns), || inp.consume_until(ts)),
                Reader::Queue(inp) => timed(Some(&mut t.consume_ns), || inp.consume(ticket)),
            }
            .map_err(err("replay consume"))?;
        }
        index += batch as u64;
    }
    Ok((t, index))
}
