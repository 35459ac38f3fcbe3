//! The two passes over one workload: the measured run (end-to-end
//! metrics, tracing off) and the traced pass (per-layer metrics).

use std::sync::Barrier;
use std::time::{Duration, Instant};

use mystore_net::NodeId;
use mystore_obs::Snapshot;

use crate::alloc;
use crate::client::{Client, HttpConn, WireConn, WireMode, OP_TIMEOUT};
use crate::cluster::{out_dir, Cluster};
use crate::load::{ns_to_us, quantile, Judge, Pace, Pipelined, Recorder, SerialConn};
use crate::report::Metric;
use crate::trace::{peak_rss_mb, replay, ProcStat, Tracer, TICK_US};
use crate::workload::{Entry, KeyState, OpStream, Workload};

/// How often the measured run sets the cluster up; `setup_s` is the median.
const SETUPS: usize = 3;
/// The measured run alternates open and closed loop this many times, so
/// that a slow spell of the machine falls on both, and reports each metric
/// over the samples of all rounds together.
const ROUNDS: usize = 5;
/// Ops the layer replay and each ladder rung replay at most.
const TRACE_OPS: usize = 2000;

/// What a pass hands back: counts for the result line, and the metrics.
pub struct PassResult {
    pub attempted: u64,
    pub failed: u64,
    /// What the first few failures were.
    pub failures: Vec<String>,
    /// Says VALID or INVALID: whether the open loop kept its schedule.
    pub validity: String,
    pub metrics: Vec<Metric>,
}

/// The warm-up (discarded), then `rounds` times an open-loop phase and a
/// closed-loop phase of these lengths.
#[derive(Clone, Copy)]
struct Phases {
    warmup: Duration,
    open: Duration,
    closed: Duration,
    rounds: usize,
}

impl Phases {
    /// `seconds` is what the run measures in all: two thirds open loop,
    /// one third closed loop (20 s + 10 s at the default 30).
    fn measuring(seconds: f64, rounds: usize) -> Phases {
        let per_round = seconds / rounds as f64;
        Phases {
            warmup: Duration::from_secs_f64((seconds / 8.0).min(3.0)),
            open: Duration::from_secs_f64(per_round * 2.0 / 3.0),
            closed: Duration::from_secs_f64(per_round / 3.0),
            rounds,
        }
    }
}

/// Registry snapshots of every host and the kernel's view of the process,
/// taken between phases while the connections idle.
struct Mark {
    hosts: Vec<Snapshot>,
    proc: ProcStat,
}

impl Mark {
    fn take(cluster: &Cluster) -> Mark {
        Mark { hosts: cluster.snapshots(), proc: ProcStat::read() }
    }

    fn counter(&self, name: &str) -> u64 {
        self.hosts.iter().filter_map(|h| h.counters.get(name)).sum()
    }

    /// `(count, sum)` of a histogram over all hosts.
    fn hist_totals(&self, name: &str) -> (u64, u64) {
        self.hosts
            .iter()
            .filter_map(|h| h.histograms.get(name))
            .fold((0, 0), |(c, s), h| (c + h.count, s + h.sum))
    }
}

/// One open-loop phase and the closed-loop phase after it, over all
/// connections.
#[derive(Default)]
struct Round {
    open: Recorder,
    closed: Recorder,
}

struct Measured {
    rounds: Vec<Round>,
    /// Before the first round, then after every phase: `2 * rounds + 1`.
    marks: Vec<Mark>,
    measured_for: Duration,
}

impl Measured {
    /// All rounds' open (or closed) phases as one. The rounds ran one after
    /// another, so their lengths add up.
    fn all(&self, pick: impl Fn(&Round) -> &Recorder) -> Recorder {
        let mut all = Recorder::default();
        self.rounds.iter().for_each(|r| all.merge(pick(r)));
        all.elapsed = self.rounds.iter().map(|r| pick(r).elapsed).sum();
        all
    }
}

/// Drives the workload's connections through the warm-up and the rounds.
/// All connections start each phase together; the marks are taken while
/// they wait at the barrier.
fn run_phases(
    cluster: &Cluster,
    w: &'static Workload,
    seed: u64,
    phases: Phases,
) -> Result<Measured, String> {
    let judge = Judge { w, keys: &cluster.keys, verify: true };
    let open = Pace::Open(w.rate as f64 / w.conns as f64);
    let mut plan = vec![(open, phases.warmup)];
    for _ in 0..phases.rounds {
        plan.extend([(open, phases.open), (Pace::Closed(w.window), phases.closed)]);
    }
    let plan = &plan;
    let barrier = &Barrier::new(w.conns as usize + 1);

    // Connect before any thread can wait on the barrier.
    enum Conn {
        Http(HttpConn),
        Wire(WireConn),
    }
    let mut conns = Vec::new();
    for _ in 0..w.conns {
        conns.push(match w.entry {
            Entry::Http => Conn::Http(
                HttpConn::connect(cluster.http_addr()).map_err(|e| format!("http connect: {e}"))?,
            ),
            Entry::Wire => Conn::Wire(
                cluster.wire(WireMode::Rest(cluster.frontend()), Duration::from_millis(100))?,
            ),
        });
    }

    std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .into_iter()
            .zip(0u32..)
            .map(|(conn, c)| {
                scope.spawn(move || {
                    let mut stream = OpStream::new(w, seed, c, w.conns);
                    let mut run_phase: Box<dyn FnMut(Pace, Duration) -> Recorder> = match conn {
                        Conn::Http(http) => {
                            let mut conn = SerialConn {
                                client: Client::Http(http),
                                stream,
                                bodies: &cluster.bodies,
                                judge,
                                next_req: 0,
                            };
                            Box::new(move |pace, length| {
                                conn.run(pace, length, usize::MAX, |_, _, _| {})
                            })
                        }
                        Conn::Wire(wire) => {
                            let mut pipe = Pipelined::start(scope, wire, judge);
                            Box::new(move |pace, length| {
                                let next_op = || Some(stream.next_op(&cluster.keys));
                                pipe.run(pace, length, &cluster.bodies, next_op)
                            })
                        }
                    };
                    let mut recs = Vec::new();
                    for &(pace, length) in plan {
                        barrier.wait();
                        recs.push(run_phase(pace, length));
                        barrier.wait();
                    }
                    recs
                })
            })
            .collect();

        let mut marks = Vec::new();
        let mut began = Instant::now();
        for i in 0..plan.len() {
            barrier.wait(); // phase i starts
            barrier.wait(); // phase i is over on every connection
            marks.push(Mark::take(cluster));
            if i == 0 {
                began = Instant::now(); // the warm-up is over
            }
        }
        let measured_for = began.elapsed();
        let mut rounds: Vec<Round> = (0..phases.rounds).map(|_| Round::default()).collect();
        for worker in workers {
            let recs = worker.join().map_err(|_| "a load thread panicked".to_string())?;
            for (round, pair) in rounds.iter_mut().zip(recs[1..].chunks(2)) {
                round.open.merge(&pair[0]);
                round.closed.merge(&pair[1]);
            }
        }
        Ok(Measured { rounds, marks, measured_for })
    })
}

fn metric(name: &'static str, value: f64, n: u64) -> Metric {
    Metric { name, value, n }
}

/// 0 when there was nothing to divide by: a metric must stay a number.
fn ratio(num: u64, den: u64) -> f64 {
    fraction(num as f64, den as f64)
}

fn fraction(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// A quantile of latency samples, in µs.
fn quantile_us(samples: &[u64], p: f64) -> f64 {
    ns_to_us(quantile(samples, p))
}

fn ops_per_second(closed: &Recorder) -> f64 {
    fraction(closed.ok() as f64, closed.elapsed.as_secs_f64())
}

/// The open loop is a result only if the generator kept its schedule: in
/// the median round at least 99 % of the ops due completed inside the
/// round's window (no growing backlog), and over all rounds the generator
/// itself was late by less than a fifth of the workload's latency limit at
/// its 99th percentile.
struct Validity {
    achieved: f64,
    lag_p99_us: f64,
    text: String,
}

fn validity(w: &Workload, m: &Measured, open: &Recorder) -> Validity {
    let mut achieved: Vec<f64> =
        m.rounds.iter().map(|r| ratio(r.open.done_in_window, r.open.due)).collect();
    let achieved = median(&mut achieved);
    let lag_p99_us = quantile_us(&open.lag_ns, 0.99);
    let ok = achieved >= 0.99 && lag_p99_us <= w.p99_limit_us as f64 / 5.0;
    let text = format!(
        "open loop {}: achieved_rate_ratio={achieved:.4} sched_lag_p99_us={lag_p99_us:.1}",
        if ok { "VALID" } else { "INVALID" }
    );
    Validity { achieved, lag_p99_us, text }
}

/// The measured run: set up (several times, for a steady `setup_s`), warm
/// up, the rounds, stop, check the WALs. Tracing is off.
pub fn end_to_end(w: &'static Workload, seed: u64, seconds: f64) -> Result<PassResult, String> {
    let mut setups = Vec::new();
    let mut cluster = Cluster::start(w, seed, true, 0..w.keys)?;
    // Memory with the keyspace loaded once, in a fresh process: a fixed
    // amount of work, before allocator reuse across set-ups and however much
    // the closed loops manage to write can blur it.
    let peak_rss = peak_rss_mb();
    let mut lost = 0;
    for _ in 1..SETUPS {
        setups.push(cluster.setup.as_secs_f64());
        lost += cluster.stop(w)?;
        cluster = Cluster::start(w, seed, true, 0..w.keys)?;
    }
    setups.push(cluster.setup.as_secs_f64());

    let m = run_phases(&cluster, w, seed, Phases::measuring(seconds, ROUNDS))?;
    lost += cluster.stop(w)?;

    for (i, r) in m.rounds.iter().enumerate() {
        eprintln!(
            "round {i}: get p50 {:.0} p99 {:.0} us, put p50 {:.0} p99 {:.0} us, closed loop {:.0} ops/s",
            quantile_us(&r.open.get_ns, 0.50),
            quantile_us(&r.open.get_ns, 0.99),
            quantile_us(&r.open.put_ns, 0.50),
            quantile_us(&r.open.put_ns, 0.99),
            ops_per_second(&r.closed),
        );
    }
    let (open, closed) = (m.all(|r| &r.open), m.all(|r| &r.closed));
    let (first, last) = (&m.marks[0], &m.marks[m.marks.len() - 1]);
    let wal_bytes = last.counter("wal.append_bytes") - first.counter("wal.append_bytes");
    let user_bytes = open.put_bytes + closed.put_bytes;
    let puts = (open.put_ns.len() + closed.put_ns.len()) as u64;
    let metrics = vec![
        metric("setup_s", median(&mut setups), SETUPS as u64),
        metric("get_p50_us", quantile_us(&open.get_ns, 0.50), open.get_ns.len() as u64),
        metric("put_p50_us", quantile_us(&open.put_ns, 0.50), open.put_ns.len() as u64),
        metric("sat_ops_s", ops_per_second(&closed), closed.ok()),
        metric("peak_rss_mb", peak_rss, 1),
        metric("wal_bytes_per_user_byte", ratio(wal_bytes, user_bytes), puts),
    ];
    Ok(PassResult {
        attempted: open.attempted + closed.attempted + lost,
        failed: open.failed + closed.failed + lost,
        validity: validity(w, &m, &open).text,
        failures: [open.failures, closed.failures].concat(),
        metrics,
    })
}

// ---- traced pass --------------------------------------------------------------

/// One rung of the cut-point ladder: the p50 over `n` ops.
struct Rung {
    p50_us: f64,
    n: u64,
    rec: Recorder,
}

/// The cut-point ladder replays the first ops of the workload's stream one
/// at a time (window 1) at successively deeper entry points; a layer's self
/// time is its rung's p50 minus the next rung's.
struct Ladder<'a> {
    cluster: &'a Cluster,
    w: &'static Workload,
    seed: u64,
    /// A rung stops after `TRACE_OPS` ops or this long.
    budget: Duration,
}

impl Ladder<'_> {
    fn rung(&self, name: &'static str, client: Client, mut tracer: Option<&mut Tracer>) -> Rung {
        // `RingReq` carries no key or value, so the floor rung sends only
        // reads and checks no body.
        let floor = name == "ladder.floor";
        let mix = Workload { get_percent: if floor { 100 } else { self.w.get_percent }, ..*self.w };
        let mut conn = SerialConn {
            client,
            stream: OpStream::new(&mix, self.seed, 0, 1),
            bodies: &self.cluster.bodies,
            judge: Judge { w: self.w, keys: &self.cluster.keys, verify: !floor },
            next_req: 0,
        };
        let mut id = 0u32;
        let rec = conn.run(Pace::Closed(1), self.budget, TRACE_OPS, |_, sent, done| {
            if let Some(t) = tracer.as_deref_mut() {
                t.push(name, sent, done, None, id);
            }
            id += 1;
        });
        let all: Vec<u64> = rec.get_ns.iter().chain(&rec.put_ns).copied().collect();
        Rung { p50_us: quantile_us(&all, 0.50), n: all.len() as u64, rec }
    }
}

/// The traced pass: a measured run of its own for the registry and
/// `/proc/self` deltas, the cut-point ladder, the window-16-over-4
/// saturation ratio, and the layer replay. Span recording and allocation
/// counting are on only where stated.
pub fn traced(w: &'static Workload, seed: u64, seconds: f64) -> Result<PassResult, String> {
    let mut tracer = Tracer::new();
    let mut out: Vec<Metric> = Vec::new();
    // Every sub-run's counts and first failures end up here.
    let mut total = Recorder::default();
    let sat_budget = Duration::from_secs_f64(seconds / 12.0);

    // (C) registry and /proc deltas over a measured run.
    let cluster = Cluster::start(w, seed, true, 0..w.keys)?;
    let m = run_phases(&cluster, w, seed, Phases::measuring(seconds * 3.0 / 8.0, 3))?;
    let (open, closed) = (m.all(|r| &r.open), m.all(|r| &r.closed));
    total.merge(&open);
    total.merge(&closed);
    let validity = validity(w, &m, &open);
    let (before, after) = (&m.marks[0], &m.marks[m.marks.len() - 1]);
    let delta = |name: &str| after.counter(name) - before.counter(name);
    let writes = delta("quorum.write.ok");
    let coord_ops = delta("quorum.write.started") + delta("quorum.read.started");
    for name in ["frontend.shed", "frontend.timeouts", "frontend.redispatches"] {
        out.push(metric(name, delta(name) as f64, 1));
    }
    // Mean over the measured phases of a histogram kept per host. (Its
    // percentiles are since boot, preload included, and cannot be windowed
    // from outside; count and sum can.)
    let mean_of = |name: &'static str, hist: &str| {
        let ((c1, s1), (c0, s0)) = (after.hist_totals(hist), before.hist_totals(hist));
        metric(name, ratio(s1 - s0, c1 - c0), c1 - c0)
    };
    out.push(mean_of("coordinator.write_mean_us", "quorum.write.latency_us"));
    out.push(mean_of("coordinator.read_mean_us", "quorum.read.latency_us"));
    out.push(mean_of("wal.sync_mean_us", "wal.sync_us"));
    out.push(mean_of("wal.batch_ops_mean", "wal.batch_ops"));
    let resends = delta("retry.put.resends") + delta("retry.get.resends");
    out.push(metric("coordinator.resends_per_op", ratio(resends, coord_ops), coord_ops));
    let replica_msgs = delta("batch.replica_msgs");
    out.push(metric("coordinator.replica_msgs_per_put", ratio(replica_msgs, writes), writes));
    out.push(metric("coordinator.hints_stored", delta("hint.stored") as f64, 1));
    out.push(metric("coordinator.read_repair_pushes", delta("read_repair.pushes") as f64, 1));
    out.push(metric("wal.fsyncs_per_put", ratio(delta("wal.fsyncs"), writes), writes));
    out.push(metric("wal.appends_per_put", ratio(delta("wal.appends"), writes), writes));
    let rounds = delta("gossip.rounds");
    out.push(metric(
        "gossip.rounds_per_s",
        fraction(rounds as f64, m.measured_for.as_secs_f64()),
        rounds,
    ));

    // The closed loops are where the processors are busy: CPU per op there.
    // Mark `2k + 1` is taken before round `k`'s closed loop, `2k + 2` after.
    let ops = closed.ok();
    let over_closed = |of: fn(&ProcStat) -> u64| -> u64 {
        let spent = |pair: &[Mark]| of(&pair[1].proc).saturating_sub(of(&pair[0].proc));
        m.marks[1..].chunks(2).map(spent).sum()
    };
    let cpu_us = |ticks: u64| fraction(ticks as f64 * TICK_US, ops as f64);
    out.push(metric("proc.user_cpu_us_per_op", cpu_us(over_closed(|p| p.utime_ticks)), ops));
    out.push(metric("proc.sys_cpu_us_per_op", cpu_us(over_closed(|p| p.stime_ticks)), ops));
    let switches = over_closed(|p| p.ctx_switches);
    out.push(metric("proc.ctx_switches_per_op", ratio(switches, ops), ops));
    let faults = over_closed(|p| p.minor_faults);
    out.push(metric("proc.minor_faults_per_op", ratio(faults, ops), ops));
    out.push(metric("proc.threads", after.proc.threads as f64, 1));

    let (gets, puts) = (open.get_ns.len() as u64, open.put_ns.len() as u64);
    // Tails are over all open-loop samples: picking a quiet round would
    // hide the stalls these two exist to show.
    out.push(metric("client.get_p99_us", quantile_us(&open.get_ns, 0.99), gets));
    out.push(metric("client.put_p99_us", quantile_us(&open.put_ns, 0.99), puts));
    out.push(metric("client.sched_lag_p99_us", validity.lag_p99_us, open.lag_ns.len() as u64));
    out.push(metric("client.achieved_rate_ratio", validity.achieved, open.due));
    out.push(metric("client.inflight_max", open.inflight_max as f64, open.attempted));
    // An op that was due but never left also missed the limit.
    let missed = open.over_limit + open.due.saturating_sub(open.attempted);
    out.push(metric("client.over_limit_ratio", ratio(missed, open.due), open.due));

    // (B) the cut-point ladder, on fresh connections.
    let rung_budget = Duration::from_secs_f64(seconds / 20.0);
    let ladder = Ladder { cluster: &cluster, w, seed, budget: rung_budget };
    let http = || {
        HttpConn::connect(cluster.http_addr()).map(Client::Http).map_err(|e| format!("http: {e}"))
    };
    let wire = |mode| cluster.wire(mode, OP_TIMEOUT).map(Client::Wire);
    let http_off = ladder.rung("ladder.http_untraced", http()?, None);
    let (http_on, allocs) = alloc::counting(w.value_bytes / 2, || {
        http().map(|client| ladder.rung("ladder.http", client, Some(&mut tracer)))
    });
    let http_on = http_on?;
    let frontend = WireMode::Rest(cluster.frontend());
    let wire_rung = ladder.rung("ladder.wire", wire(frontend)?, Some(&mut tracer));
    let node0 = NodeId(0);
    let coord = ladder.rung("ladder.coord", wire(WireMode::Coord(node0))?, Some(&mut tracer));
    let floor = ladder.rung("ladder.floor", wire(WireMode::Floor(node0))?, Some(&mut tracer));

    // Two closed-loop wire runs: does a deeper window give more, or less?
    let mut sat = Vec::new();
    for window in [16, 4] {
        let conn = cluster.wire(frontend, Duration::from_millis(100))?;
        let judge = Judge { w, keys: &cluster.keys, verify: true };
        let mut stream = OpStream::new(w, seed ^ window as u64, 0, 1);
        let rec = std::thread::scope(|scope| {
            let next_op = || Some(stream.next_op(&cluster.keys));
            Pipelined::start(scope, conn, judge).run(
                Pace::Closed(window),
                sat_budget,
                &cluster.bodies,
                next_op,
            )
        });
        sat.push(ops_per_second(&rec));
        total.merge(&rec);
    }
    let mut lost = cluster.stop(w)?;

    // The same ops on in-process channels: the gateway hop is what differs.
    let touched = {
        let scratch = KeyState::new(w.keys);
        let mut stream = OpStream::new(w, seed, 0, 1);
        let mut keys: Vec<u32> = (0..TRACE_OPS).map(|_| stream.next_op(&scratch).key).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    };
    let inproc_cluster = Cluster::start(w, seed, false, touched.into_iter())?;
    let inproc = Ladder { cluster: &inproc_cluster, w, seed, budget: rung_budget }.rung(
        "ladder.inproc",
        inproc_cluster.wire(WireMode::Coord(node0), OP_TIMEOUT).map(Client::Wire)?,
        Some(&mut tracer),
    );
    lost += inproc_cluster.stop(w)?;
    total.attempted += lost;
    total.failed += lost;

    for r in [&http_off, &http_on, &wire_rung, &coord, &inproc, &floor] {
        total.merge(&r.rec);
    }
    let step = |name, upper: &Rung, lower: &Rung| {
        metric(name, upper.p50_us - lower.p50_us, upper.n.min(lower.n))
    };
    out.push(step("http.self_us", &http_off, &wire_rung));
    out.push(step("frontend.self_us", &wire_rung, &coord));
    out.push(step("gateway.hop_us", &coord, &inproc));
    out.push(step("coordinator.self_us", &inproc, &floor));
    out.push(metric("gateway.rtt_floor_us", floor.p50_us, floor.n));
    out.push(metric("gateway.sat_ratio_w16_w4", fraction(sat[0], sat[1]), 2));
    out.push(metric("ladder.http_p50_us", http_off.p50_us, http_off.n));
    out.push(metric("ladder.wire_p50_us", wire_rung.p50_us, wire_rung.n));
    out.push(metric("ladder.coord_p50_us", coord.p50_us, coord.n));
    out.push(metric("ladder.inproc_p50_us", inproc.p50_us, inproc.n));
    out.push(metric("trace.overhead_ratio", fraction(http_on.p50_us, http_off.p50_us), http_on.n));
    let rung_bytes = http_on.rec.put_bytes + http_on.rec.get_bytes;
    out.push(metric("alloc.count_per_op", ratio(allocs.count, http_on.n), http_on.n));
    out.push(metric("alloc.payload_allocs_per_op", ratio(allocs.big, http_on.n), http_on.n));
    out.push(metric("alloc.bytes_per_user_byte", ratio(allocs.bytes, rung_bytes), http_on.n));

    // (A) the layer replay.
    let bytes = replay(w, seed, TRACE_OPS, Duration::from_secs_f64(seconds / 10.0), &mut tracer)?;
    let mean = |name: &'static str, span: &str, per: f64| {
        let (ns, n) = tracer.mean_ns(span);
        metric(name, ns / per, n as u64)
    };
    let encode = mean("codec.encode_ns", "codec.encode", 1.0);
    let decode = mean("codec.decode_ns", "codec.decode", 1.0);
    // `write_frame`/`read_frame` call the codec inside: their own share is
    // what is left of their spans.
    let own = |name, span, inner: &Metric| {
        let whole = mean(name, span, 1.0);
        Metric { value: (whole.value - inner.value).max(0.0), ..whole }
    };
    out.push(own("frame.write_ns", "frame.write", &encode));
    out.push(own("frame.read_ns", "frame.read", &decode));
    out.push(encode);
    out.push(decode);
    let replayed = bytes.ops as u64;
    out.push(metric("codec.wire_bytes_per_user_byte", ratio(bytes.wire, bytes.user), replayed));
    out.push(mean("ring.key_point_ns", "ring.key_point", 1.0));
    out.push(mean("ring.preference_list_ns", "ring.preference_list", 1.0));
    out.push(mean("bson.encode_ns", "bson.encode", 1.0));
    out.push(mean("bson.decode_ns", "bson.decode", 1.0));
    out.push(metric("bson.bytes_per_user_byte", ratio(bytes.bson, bytes.put_user), bytes.puts));
    out.push(mean("engine.put_record_us", "engine.put_record", 1000.0));
    out.push(mean("engine.get_record_us", "engine.get_record", 1000.0));
    out.push(mean("wal.append_us", "wal.append", 1000.0));
    out.push(mean("wal.sync_us", "wal.sync", 1000.0));

    let Recorder { attempted, failed, failures, .. } = total;
    out.push(metric("client.error_ratio", ratio(failed, attempted), attempted));

    std::fs::create_dir_all(out_dir()).map_err(|e| format!("out dir: {e}"))?;
    let path = out_dir().join(format!("trace_{}.json", w.name));
    tracer.write(&path, w.name).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("{} spans written to {}", tracer.spans.len(), path.display());

    Ok(PassResult { attempted, failed, failures, validity: validity.text, metrics: out })
}
