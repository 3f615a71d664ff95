//! `streambench` — stream delivery through the shipped `dstamped`
//! daemon, from a producer end device on AS 0 to a consumer end device
//! on AS 1.
//!
//! ```text
//! streambench --workload NAME --seed N --seconds S --trace 0|1 --daemon PATH
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! phases with every client call timed and the daemon's telemetry
//! sampled, then replays the workload's inputs through each layer, and
//! reports the per-layer metrics. The last line of stdout is a JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; the lines
//! before it print every metric with its unit for people. See README.md.

mod daemon;
mod drive;
mod gen;
mod replay;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use dstampede_core::Timestamp;
use dstampede_obs::Snapshot;
use dstampede_wire::CodecId;

use crate::daemon::Daemon;
use crate::drive::{client_replay, ClientTimes, Load, Phase, PhaseCfg, Rig};
use crate::gen::{Kind, Workload};

/// Measured time per round of an end-to-end run, each round on a fresh
/// daemon. The daemon's cost per item varies from one process to the
/// next far more than within one, so a run makes as many rounds as its
/// `--seconds` allows and each end-to-end metric is the median over them.
const ROUND_SECONDS: f64 = 2.0;
const WARMUP: Duration = Duration::from_millis(500);
/// Salts separating the schedules of a run's phases.
const WARMUP_SALT: u64 = 11;
const OPEN_SALT: u64 = 12;
const TRACED_SALT: u64 = 13;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut daemon = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(gen::workload(&value).ok_or_else(|| {
                    let names: Vec<&str> = gen::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {names:?}")
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--daemon" => daemon = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds > 0 is required")?,
        trace: trace.unwrap_or(false),
        daemon: daemon.ok_or("--daemon is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Counts and check failures accumulated over a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn phase(&mut self, label: &str, p: &Phase) {
        self.attempted += p.offered;
        self.failed += p.failed();
        self.problems.extend(
            p.delivered
                .failures
                .iter()
                .take(5)
                .map(|f| format!("{label}: {f}")),
        );
    }
}

/// Sum of (count, sum) over every label set of a histogram.
fn hist(s: &Snapshot, sub: &str, name: &str) -> (f64, f64) {
    s.histograms
        .iter()
        .filter(|h| h.id.subsystem == sub && h.id.name == name)
        .fold((0.0, 0.0), |(c, t), h| {
            (c + h.count as f64, t + h.sum as f64)
        })
}

fn counter(s: &Snapshot, sub: &str, name: &str) -> f64 {
    s.counter_value(sub, name).unwrap_or(0) as f64
}

fn gauge(s: &Snapshot, sub: &str, name: &str) -> f64 {
    s.gauge_value(sub, name).unwrap_or(0) as f64
}

fn occupancy(s: &Snapshot) -> f64 {
    gauge(s, "stm", "channel_items") + gauge(s, "stm", "queue_items")
}

/// Waits up to five seconds for the daemon to settle after the last
/// phase: occupancy back within capacity and every put item reclaimed.
/// Records a problem if it does not; returns the last snapshot.
fn quiesce(rig: &Rig, w: &Workload, tally: &mut Tally) -> Result<Snapshot, String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let s = rig.producer.stats(true).map_err(drive::err("stats"))?;
        let puts = counter(&s, "stm", "puts");
        let reclaimed = counter(&s, "gc", "reclaimed_items");
        let occ = occupancy(&s);
        if reclaimed >= puts && occ <= f64::from(w.capacity) {
            return Ok(s);
        }
        if Instant::now() > deadline {
            tally.problems.push(format!(
                "after quiescing: {reclaimed} of {puts} put items reclaimed, occupancy {occ}"
            ));
            return Ok(s);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Checks that the daemon publishes every telemetry series the traced
/// run reads (the `wire` gauges in the producer's own space, `local`),
/// so that a renamed series fails the run instead of reading as zero.
/// Returns one problem per missing series.
fn missing_series(all: &Snapshot, local: &Snapshot, kind: Kind) -> Vec<String> {
    let present = |s: &Snapshot, sub: &str, name: &str| {
        let is = |id: &dstampede_obs::MetricId| id.subsystem == sub && id.name == name;
        s.counters.iter().any(|c| is(&c.id))
            || s.gauges.iter().any(|g| is(&g.id))
            || s.histograms.iter().any(|h| is(&h.id))
    };
    let items = match kind {
        Kind::Channel => "channel_items",
        Kind::Queue => "queue_items",
    };
    let cluster = [
        ("rpc", "surrogate_latency_us"),
        ("rpc", "remote_op_us"),
        ("stm", "puts"),
        ("stm", "put_latency_us"),
        ("stm", "get_latency_us"),
        ("stm", "consume_latency_us"),
        ("stm", items),
        ("gc", "reclaimed_items"),
        ("gc", "epoch_duration_us"),
        ("clf", "msgs_sent"),
        ("clf", "retransmits"),
        ("clf", "rtt_us"),
        ("clf", "batch_tx_datagrams"),
        ("clf", "backpressure"),
        ("repl", "acked"),
        ("repl", "window_dropped"),
        ("repl", "lag"),
    ];
    let cluster = cluster.iter().map(|&(sub, name)| (all, sub, name));
    let wire = ["pool_misses", "copies_avoided"].map(|name| (local, "wire", name));
    cluster
        .chain(wire)
        .filter(|&(s, sub, name)| !present(s, sub, name))
        .map(|(_, sub, name)| format!("the daemon publishes no {sub}/{name} series"))
        .collect()
}

/// A measured daemon and where the item sequence stands.
struct Bench<'a> {
    rig: Rig,
    w: &'a Workload,
    seed: u64,
    next_index: u64,
    last_ts: Option<Timestamp>,
}

impl Bench<'_> {
    fn phase(&mut self, load: &Load<'_>, traced: bool) -> Phase {
        let p = drive::run_phase(
            &self.rig,
            &PhaseCfg {
                w: self.w,
                seed: self.seed,
                first_index: self.next_index,
                last_ts: self.last_ts,
                traced,
            },
            load,
        );
        self.next_index = p.next_index;
        self.last_ts = p.delivered.last_ts;
        p
    }

    /// An open-loop phase on the schedule seeded by `salt`.
    fn open(&mut self, salt: u64, span: Duration, traced: bool) -> Phase {
        let schedule = gen::schedule(self.w.arrivals, gen::mix(self.seed, salt), span);
        self.phase(&Load::Open(&schedule), traced)
    }

    fn saturate(&mut self, span: Duration, traced: bool) -> Phase {
        self.phase(&Load::Saturate(span), traced)
    }
}

/// Median intended-send-to-delivery latency of an open-loop phase, µs.
fn deliver_p50_us(p: &Phase) -> f64 {
    gen::quantile(&sorted_us(&p.delivered.latency_ns), 0.5)
}

/// Items delivered per second from the start of the saturation phase to
/// its last delivery.
fn saturated_items_per_s(p: &Phase) -> f64 {
    let end = p.delivered.last_at_ns.max(1);
    p.delivered.count as f64 * 1e9 / end as f64
}

/// ns durations as ascending µs.
fn sorted_us(ns: &[u64]) -> Vec<f64> {
    let mut v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Spawns a daemon and sets up every container and connection; returns
/// the bench and the set-up time.
fn setup<'a>(args: &'a Args) -> Result<(Bench<'a>, f64), String> {
    let t = Instant::now();
    let rig = Rig::setup(&args.workload, &args.daemon)?;
    let setup_s = t.elapsed().as_secs_f64();
    let b = Bench {
        rig,
        w: &args.workload,
        seed: args.seed,
        next_index: 0,
        last_ts: None,
    };
    Ok((b, setup_s))
}

/// Lets the daemon settle (a failed settle check is recorded as a
/// problem), reads its peak RSS in MiB, and asks it to shut down.
/// Returns the settled telemetry, the RSS, and the daemon to reap.
fn finish(b: Bench<'_>, tally: &mut Tally) -> Result<(Snapshot, f64, Daemon), String> {
    let pid = b.rig.daemon.pid();
    let settled = quiesce(&b.rig, b.w, tally)?;
    let rss = daemon::rss_peak_mib(pid).ok_or("cannot read daemon VmHWM")?;
    Ok((settled, rss, b.rig.close()?))
}

/// Waits for a daemon asked to shut down to exit, killing it if it does
/// not; a daemon that had to be killed or is still there is a problem.
fn reap(d: Daemon, tally: &mut Tally) {
    let pid = d.pid();
    if let Err(e) = d.shutdown(Duration::from_secs(10)) {
        tally.problems.push(e);
    }
    if daemon::is_running(pid) {
        tally.problems.push(format!("daemon {pid} still running"));
    }
}

/// One round of the end-to-end run on a fresh daemon: warm-up, open
/// loop, saturation. Returns this round's value of every end-to-end
/// metric, in `E2E` order, and the daemon, shutting down, to reap.
fn round(
    args: &Args,
    span: Duration,
    tally: &mut Tally,
) -> Result<([f64; E2E.len()], Daemon), String> {
    let (mut b, setup_s) = setup(args)?;
    let pid = b.rig.daemon.pid();
    let warm = b.open(WARMUP_SALT, WARMUP, false);
    tally.phase("warm-up", &warm);
    let cpu = || daemon::cpu_ns(pid).ok_or("cannot read daemon CPU time");
    let cpu0 = cpu()?;
    let steal0 = daemon::host_steal();
    let open = b.open(OPEN_SALT, span.mul_f64(0.6), false);
    let cpu1 = cpu()?;
    tally.phase("open loop", &open);
    let sat = b.saturate(span.mul_f64(0.4), false);
    tally.phase("saturation", &sat);
    let steal = daemon::steal_pct(steal0, daemon::host_steal());
    let (_, rss, closing) = finish(b, tally)?;
    let lat = sorted_us(&open.delivered.latency_ns);
    println!(
        "# round: {} of {} open-loop items delivered; p99 {:.1} us over {} samples; \
         host steal {steal:.1} %",
        open.delivered.count,
        open.offered,
        gen::quantile(&lat, 0.99),
        lat.len()
    );
    let values = [
        deliver_p50_us(&open),
        saturated_items_per_s(&sat),
        cpu1.saturating_sub(cpu0) as f64 / 1e3 / open.delivered.count.max(1) as f64,
        rss,
        setup_s,
    ];
    Ok((values, closing))
}

/// The end-to-end metrics, each the median over a run's rounds.
const E2E: [(&str, &str); 5] = [
    ("deliver_p50_us", "us"),
    ("saturated_items_per_s", "items/s"),
    ("server_cpu_us_per_item", "us"),
    ("rss_peak_mb", "MiB"),
    ("setup_s", "s"),
];

fn run(args: &Args) -> Result<(Tally, Vec<Metric>), String> {
    let span = Duration::from_secs_f64(args.seconds);
    let steal0 = daemon::host_steal();
    let mut tally = Tally::default();
    let mut metrics = Vec::new();
    if args.trace {
        let (mut b, _) = setup(args)?;
        let warm = b.open(WARMUP_SALT, WARMUP, false);
        tally.phase("warm-up", &warm);
        let (traced_metrics, write_p50_us) = traced(&mut b, span, &mut tally)?;
        metrics = traced_metrics;
        let written = b.next_index;
        let (s, _, closing) = finish(b, &mut tally)?;
        let switches0 = daemon::reaped_children_ctx_switches();
        reap(closing, &mut tally);
        let switches = daemon::reaped_children_ctx_switches().saturating_sub(switches0);
        // Taken when the daemon is reaped, so that the threads it starts
        // and ends per request count too: over its whole life, per item.
        metrics.push(m(
            "runtime.ctx_switches_per_item",
            switches as f64 / written.max(1) as f64,
            "count",
        ));
        metrics.push(m(
            "gc.reclaimed_per_put",
            counter(&s, "gc", "reclaimed_items") / counter(&s, "stm", "puts").max(1.0),
            "ratio",
        ));
        metrics.extend(layer_replays(&args.workload, args.seed, write_p50_us));
    } else {
        // Each daemon shuts down (about 1.5 s, nearly idle) while the
        // next round runs, and is reaped after it.
        let mut per_round: Vec<[f64; E2E.len()]> = Vec::new();
        let mut closing: Option<Daemon> = None;
        let rounds = (args.seconds / ROUND_SECONDS).round().max(1.0);
        for _ in 0..rounds as usize {
            let (values, next) = round(args, span.div_f64(rounds), &mut tally)?;
            per_round.push(values);
            if let Some(d) = closing.replace(next) {
                reap(d, &mut tally);
            }
        }
        if let Some(d) = closing {
            reap(d, &mut tally);
        }
        for (i, (name, unit)) in E2E.iter().enumerate() {
            let mut v: Vec<f64> = per_round.iter().map(|r| r[i]).collect();
            println!("# {name} per round: {v:?}");
            metrics.push(m(name, gen::median(&mut v), unit));
        }
    }
    let steal = daemon::steal_pct(steal0, daemon::host_steal());
    let fail_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!("# host steal {steal:.2} %, fail_frac {fail_frac}");
    if args.trace {
        metrics.push(m("gen.steal_pct", steal, "%"));
        metrics.push(m("fail_frac", fail_frac, "ratio"));
    }
    Ok((tally, metrics))
}

/// The traced run: an untraced and a traced open-loop phase, a traced
/// saturation phase, and the client replay, with telemetry deltas over
/// the traced open loop.
fn traced(
    b: &mut Bench<'_>,
    span: Duration,
    tally: &mut Tally,
) -> Result<(Vec<Metric>, f64), String> {
    let pid = b.rig.daemon.pid();
    let plain = b.open(OPEN_SALT, span.mul_f64(0.3), false);
    tally.phase("open loop", &plain);

    // Cluster-wide telemetry, and the producer's address space alone for
    // the `wire` gauges: they hold the daemon's process-wide buffer pool
    // figures, which a cluster-wide merge would add once per space.
    let stats = |b: &Bench<'_>, all| b.rig.producer.stats(all).map_err(drive::err("stats"));
    let s0 = stats(b, true)?;
    let local0 = stats(b, false)?;
    let open = b.open(TRACED_SALT, span.mul_f64(0.3), true);
    let threads = daemon::threads(pid).unwrap_or(0);
    let local1 = stats(b, false)?;
    let s1 = stats(b, true)?;
    tally.phase("traced open loop", &open);
    tally
        .problems
        .extend(missing_series(&s1, &local1, b.w.kind));
    let sat = b.saturate(span.mul_f64(0.4), true);
    tally.phase("traced saturation", &sat);
    let s2 = stats(b, true)?;
    let (w, seed) = (b.w, b.seed);
    let rig = &b.rig;

    let items = open.delivered.count.max(1) as f64;
    let d = s1.delta_since(&s0);
    let dd = s2.delta_since(&s0);
    let per = |v: f64| v / items;
    let (rpcs, surrogate) = hist(&d, "rpc", "surrogate_latency_us");
    let (_, remote) = hist(&d, "rpc", "remote_op_us");
    let (_, stm_get) = hist(&d, "stm", "get_latency_us");
    let wire = |name| per(gauge(&local1, "wire", name) - gauge(&local0, "wire", name));
    let stm_work = hist(&d, "stm", "put_latency_us").1 + hist(&d, "stm", "consume_latency_us").1;
    let q50 = |s: &Snapshot, sub, name| {
        s.histogram(sub, name)
            .map_or(0.0, |h| h.quantile(0.5) as f64)
    };
    let (batches, datagrams) = hist(&d, "clf", "batch_tx_datagrams");
    let samples: Vec<&Snapshot> = open
        .samples
        .iter()
        .chain(&sat.samples)
        .chain([&s0, &s1, &s2])
        .collect();
    let max_of = |f: &dyn Fn(&Snapshot) -> f64| samples.iter().map(|s| f(s)).fold(0.0, f64::max);

    let all_lat = sorted_us(
        &[
            plain.delivered.latency_ns.as_slice(),
            &open.delivered.latency_ns,
        ]
        .concat(),
    );
    let late = sorted_us(&[plain.lateness_ns.as_slice(), &open.lateness_ns].concat());

    // Client calls, timed on a closed loop with nothing in flight, on
    // the workload's container and on the other kind.
    let (main_t, after) = client_replay(
        &rig.writer,
        &rig.reader,
        w,
        seed,
        b.next_index,
        Duration::from_millis(300),
    )?;
    let (side_writer, side_reader) = rig.side(w)?;
    let (side_t, after) = client_replay(
        &side_writer,
        &side_reader,
        w,
        seed,
        after,
        Duration::from_millis(300),
    )?;
    drop((side_writer, side_reader));
    b.next_index = after;
    let (chan_t, queue_t): (&ClientTimes, &ClientTimes) = match w.kind {
        Kind::Channel => (&main_t, &side_t),
        Kind::Queue => (&side_t, &main_t),
    };
    let p = |ns: &[u64], q: f64| gen::quantile(&sorted_us(ns), q);
    let put_p50 = p(&chan_t.write_ns, 0.5);
    let spans = &open.delivered.spans;
    println!(
        "# traced open loop: {} items, {rpcs} rpcs, {} telemetry samples; call p50s \
         (include waiting): write {:.1} us, read {:.1} us, consume {:.1} us",
        open.delivered.count,
        open.samples.len() + sat.samples.len(),
        p(&open.write_spans, 0.5),
        p(&spans.read, 0.5),
        p(&spans.consume, 0.5),
    );

    let metrics = vec![
        m("gen.late_p99_us", gen::quantile(&late, 0.99), "us"),
        m(
            "gen.offered",
            (plain.offered + open.offered) as f64,
            "count",
        ),
        m(
            "gen.completed",
            (plain.delivered.count + open.delivered.count) as f64,
            "count",
        ),
        m("gen.deliver_samples", all_lat.len() as f64, "count"),
        m("gen.deliver_p99_us", gen::quantile(&all_lat, 0.99), "us"),
        m("client.put_us.p50", put_p50, "us"),
        m("client.put_us.p99", p(&chan_t.write_ns, 0.99), "us"),
        m("client.get_us.p50", p(&chan_t.read_ns, 0.5), "us"),
        m("client.consume_us.p50", p(&main_t.consume_ns, 0.5), "us"),
        m(
            "client.enqueue_many_us.p50",
            p(&queue_t.write_ns, 0.5),
            "us",
        ),
        m("client.dequeue_many_us.p50", p(&queue_t.read_ns, 0.5), "us"),
        m("wire.pool_misses_per_item", wire("pool_misses"), "count"),
        m(
            "wire.copies_avoided_per_item",
            wire("copies_avoided"),
            "count",
        ),
        m("runtime.surrogate_us_per_item", per(surrogate), "us"),
        m("runtime.rpcs_per_item", per(rpcs), "count"),
        // A get's STM time includes its wait for the item, which the
        // remote op carrying that get already contains.
        m(
            "runtime.surrogate_self_us_per_item",
            per(surrogate - remote - stm_work),
            "us",
        ),
        m("runtime.threads", threads as f64, "count"),
        m("runtime.remote_op_us_per_item", per(remote), "us"),
        m("core.stm_us_per_item", per(stm_work + stm_get), "us"),
        m("core.occupancy_max", max_of(&occupancy), "count"),
        m("gc.epoch_us.p50", q50(&d, "gc", "epoch_duration_us"), "us"),
        m(
            "clf.msgs_per_item",
            per(counter(&d, "clf", "msgs_sent")),
            "count",
        ),
        m(
            "clf.retransmits_per_item",
            per(counter(&d, "clf", "retransmits")),
            "count",
        ),
        m("clf.rtt_us.p50", q50(&d, "clf", "rtt_us"), "us"),
        m(
            "clf.batch_tx_datagrams.mean",
            datagrams / batches.max(1.0),
            "count",
        ),
        m(
            "clf.backpressure",
            counter(&dd, "clf", "backpressure"),
            "count",
        ),
        m(
            "repl.acked_per_put",
            counter(&d, "repl", "acked") / counter(&d, "stm", "puts").max(1.0),
            "ratio",
        ),
        m(
            "repl.window_dropped",
            counter(&dd, "repl", "window_dropped"),
            "count",
        ),
        m(
            "repl.lag_max",
            max_of(&|s| gauge(s, "repl", "lag")),
            "count",
        ),
        m(
            "trace.overhead_pct",
            (deliver_p50_us(&open) / deliver_p50_us(&plain) - 1.0) * 100.0,
            "%",
        ),
    ];
    Ok((metrics, p(&main_t.write_ns, 0.5)))
}

/// Replays of the workload's inputs through single layers, run after
/// the daemon has stopped. `write_p50_us` is the client's median write
/// call (put, or enqueue_many for a queue), whose residual over the raw
/// TCP round trip and its own codec work is reported.
fn layer_replays(w: &Workload, seed: u64, write_p50_us: f64) -> Vec<Metric> {
    let span = Duration::from_millis(400);
    let xdr = replay::wire(w, seed, CodecId::Xdr, span);
    let jdr = replay::wire(w, seed, CodecId::Jdr, span);
    let write_codec_us = match w.codec {
        CodecId::Xdr => xdr.write_call_ns,
        CodecId::Jdr => jdr.write_call_ns,
    } / 1e3;
    let (put, get, consume) = replay::core(w, seed, span);
    let (send_recv, goodput) = replay::clf(w, seed, span);
    let (tcp, udp) = replay::baseline(w, seed, span);
    let cycle = replay::inproc(w, seed, span);
    vec![
        m(
            "client.residual_us",
            write_p50_us - tcp - write_codec_us,
            "us",
        ),
        m("wire.xdr.encode_ns", xdr.encode_ns, "ns"),
        m("wire.xdr.decode_ns", xdr.decode_ns, "ns"),
        m("wire.jdr.encode_ns", jdr.encode_ns, "ns"),
        m("wire.jdr.decode_ns", jdr.decode_ns, "ns"),
        m("core.put_ns", put, "ns"),
        m("core.get_ns", get, "ns"),
        m("core.consume_ns", consume, "ns"),
        m("clf.send_recv_us", send_recv, "us"),
        m("clf.goodput_mb_per_s", goodput, "MB/s"),
        m("baseline.tcp_rtt_us", tcp, "us"),
        m("baseline.udp_rtt_us", udp, "us"),
        m("runtime.inproc_cycle_us", cycle, "us"),
    ]
}

fn json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("streambench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "# streambench {} seed={} seconds={} trace={} {}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        daemon::fingerprint()
    );
    let (tally, metrics) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("streambench: run failed: {e}");
            std::process::exit(1);
        }
    };
    for x in &metrics {
        println!("{:<34} {:>14.3} {}", x.name, x.value, x.unit);
    }
    for p in &tally.problems {
        eprintln!("streambench: check failed: {p}");
    }
    let finite = metrics.iter().all(|x| x.value.is_finite());
    let correct = tally.problems.is_empty() && finite;
    println!("{}", json(correct, &tally, &metrics));
    if !correct {
        std::process::exit(1);
    }
}
