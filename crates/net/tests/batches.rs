//! The end-of-batch hook (`Process::on_batch_end`) in both runtimes: a
//! burst queued behind a busy node runs the hook once, after the burst's
//! sends (i); a node fed faster than it drains still ends every batch (ii);
//! and a process without the hook behaves exactly as before batches
//! existed (iii).

use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Duration;

use mystore_net::{
    Context, FaultPlan, LinkFaultRule, NetConfig, NodeConfig, NodeId, Process, Sim, SimConfig,
    SimTime, ThreadedClusterBuilder, ThreadedConfig, TimerToken, Trace,
};

fn instant_config(seed: u64) -> SimConfig {
    SimConfig { net: NetConfig::instant(), faults: FaultPlan::none(), seed }
}

// ---- simulator ------------------------------------------------------------

/// Echoes every message back to its sender after consuming a fixed
/// service time (the simulator unit tests' `Echo`).
struct Echo {
    service_us: u64,
}

impl Process<u64> for Echo {
    fn on_start(&mut self, _ctx: &mut Context<'_, u64>) {}
    fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: NodeId, msg: u64) {
        ctx.consume(self.service_us);
        if from != NodeId::EXTERNAL {
            ctx.send(from, msg + 1);
        }
        ctx.record("echoed", msg as f64);
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_, u64>, _token: TimerToken) {}
}

/// Sends `count` messages to a target at start, records replies.
struct Pinger {
    target: NodeId,
    count: u64,
}

impl Process<u64> for Pinger {
    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        for i in 0..self.count {
            ctx.send(self.target, i);
        }
    }
    fn on_message(&mut self, ctx: &mut Context<'_, u64>, _from: NodeId, _msg: u64) {
        ctx.record("reply_at_us", ctx.now().as_micros() as f64);
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_, u64>, _token: TimerToken) {}
}

/// A periodic timer that pokes `target` on every tick (timers and
/// messages interleaving in one node's queue).
struct Poker {
    target: NodeId,
    period_us: u64,
    left: u64,
}

impl Process<u64> for Poker {
    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        ctx.set_timer(self.period_us, 1);
    }
    fn on_message(&mut self, ctx: &mut Context<'_, u64>, _from: NodeId, msg: u64) {
        ctx.record("poker_reply", msg as f64);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, u64>, _token: TimerToken) {
        ctx.consume(30);
        for i in 0..3 {
            ctx.send(self.target, 1_000 * self.left + i);
        }
        self.left -= 1;
        if self.left > 0 {
            ctx.set_timer(self.period_us, 1);
        }
    }
}

/// Renders a run's trace — queueing on a two-server node, bursts,
/// timers, jitter, link chaos, and a crash/restart — as text lines.
fn hookless_trace() -> String {
    let mut cfg = SimConfig { net: NetConfig::gigabit_lan(), faults: FaultPlan::none(), seed: 31 };
    cfg.net.jitter_us = 300;
    let mut sim = Sim::new(cfg);
    let echo = sim.add_node(Echo { service_us: 70 }, NodeConfig { concurrency: 2 });
    sim.add_node(Pinger { target: echo, count: 25 }, NodeConfig::default());
    let poker = sim
        .add_node(Poker { target: echo, period_us: 900, left: 40 }, NodeConfig { concurrency: 1 });
    sim.schedule_chaos(
        SimTime(0),
        echo,
        poker,
        LinkFaultRule {
            p_dup: 0.3,
            p_delay: 0.3,
            delay_range_us: (10, 400),
            ..LinkFaultRule::none()
        },
    );
    sim.schedule_crash(SimTime(12_000), echo, Some(3_000));
    sim.start();
    sim.run_until(SimTime::from_millis(60));
    let mut out = String::new();
    for e in sim.trace().events() {
        out.push_str(&format!("{} {} {} {:x}\n", e.time.0, e.node.0, e.name, e.value.to_bits()));
    }
    out
}

/// Hook contract (iii): a process that does not implement
/// `on_batch_end` and never syncs replays the exact trace it produced
/// before batches and the disk model existed — the digest below was taken
/// before either.
#[test]
fn sim_processes_without_the_hook_replay_the_pre_hook_trace() {
    let text = hookless_trace();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    assert_eq!((text.lines().count(), h), (382, 0x522d_3ffc_a988_5ab8));
}

/// Reports every handled message to `sink`, and at each batch end how
/// many messages the batch held (as `MARK + count`).
struct Batcher {
    sink: NodeId,
    service_us: u64,
    since: u64,
}

const MARK: u64 = 1_000_000;

impl Process<u64> for Batcher {
    fn on_start(&mut self, _ctx: &mut Context<'_, u64>) {}
    fn on_message(&mut self, ctx: &mut Context<'_, u64>, _from: NodeId, msg: u64) {
        self.since += 1;
        ctx.consume(self.service_us);
        ctx.send(self.sink, msg);
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_, u64>, _token: TimerToken) {}
    fn on_batch_end(&mut self, ctx: &mut Context<'_, u64>) {
        ctx.record("batch", self.since as f64);
        ctx.send(self.sink, MARK + self.since);
        self.since = 0;
    }
}

/// Records every arrival, in order.
struct Sink {
    seen: Vec<u64>,
}

impl Process<u64> for Sink {
    fn on_start(&mut self, _ctx: &mut Context<'_, u64>) {}
    fn on_message(&mut self, _ctx: &mut Context<'_, u64>, _from: NodeId, msg: u64) {
        self.seen.push(msg);
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_, u64>, _token: TimerToken) {}
}

/// Hook contract (i): five messages queued behind a busy server form
/// one batch — the hook runs once for them, not five times, and only
/// after all five have run and sent.
#[test]
fn sim_queued_burst_runs_the_hook_once_after_its_sends() {
    let mut sim = Sim::new(instant_config(40));
    let sink = sim.add_node(Sink { seen: Vec::new() }, NodeConfig::default());
    let node =
        sim.add_node(Batcher { sink, service_us: 100, since: 0 }, NodeConfig { concurrency: 1 });
    sim.start();
    sim.inject(SimTime(0), node, 0); // busies the server until t = 100
    for i in 1..=5 {
        sim.inject(SimTime(10 + i), node, i);
    }
    sim.run_until(SimTime::from_millis(10));
    let seen = &sim.process::<Sink>(sink).unwrap().seen;
    assert_eq!(seen, &[0, MARK + 1, 1, 2, 3, 4, 5, MARK + 5]);
    let hooks: Vec<(u64, f64)> = sim
        .trace()
        .events()
        .iter()
        .filter(|e| e.name == "batch")
        .map(|e| (e.time.0, e.value))
        .collect();
    // The burst's hook runs when its last item completes (100 + 5 × 100).
    assert_eq!(hooks, vec![(100, 1.0), (600, 5.0)]);
}

/// Hook contract (ii): a node fed faster than it drains never sees an
/// empty queue, yet every batch still ends in the hook — a batch is
/// bounded by what was queued when it started, so acks cannot starve.
#[test]
fn sim_node_fed_faster_than_it_drains_still_ends_every_batch() {
    let mut sim = Sim::new(instant_config(41));
    let sink = sim.add_node(Sink { seen: Vec::new() }, NodeConfig::default());
    let node =
        sim.add_node(Batcher { sink, service_us: 100, since: 0 }, NodeConfig { concurrency: 1 });
    sim.start();
    // One arrival every 50 µs against 100 µs of service, for 20 ms.
    for i in 0..400 {
        sim.inject(SimTime(i * 50), node, i);
    }
    sim.run_until(SimTime::from_millis(20));
    let sizes: Vec<u64> =
        sim.trace().events().iter().filter(|e| e.name == "batch").map(|e| e.value as u64).collect();
    let handled = sim.process::<Sink>(sink).unwrap().seen.iter().filter(|&&m| m < MARK).count();
    assert!(sizes.len() >= 5, "hook starved under backlog: batches {sizes:?}");
    assert!(sizes.windows(2).all(|w| w[1] > 1), "backlog never batched: {sizes:?}");
    // Every handled message belongs to exactly one closed batch, except
    // the ones still in the batch open at the horizon.
    let closed: u64 = sizes.iter().sum();
    assert!(closed <= handled as u64 && handled as u64 - closed < 200);
}

// ---- threaded runtime ------------------------------------------------------

const BLOCK: u64 = 999;

/// Echoes every message to EXTERNAL; `BLOCK` parks the handler on a
/// gate the test opens, so the test can queue work behind a busy node.
/// With `hook` set, every batch end reports `MARK + messages in batch`.
struct Gated {
    entered: Sender<()>,
    gate: Receiver<()>,
    hook: bool,
    since: u64,
}
impl Process<u64> for Gated {
    fn on_start(&mut self, _ctx: &mut Context<'_, u64>) {}
    fn on_message(&mut self, ctx: &mut Context<'_, u64>, _f: NodeId, msg: u64) {
        if msg == BLOCK {
            let _ = self.entered.send(());
            let _ = self.gate.recv_timeout(Duration::from_secs(5));
        }
        self.since += 1;
        ctx.record("msg", msg as f64);
        ctx.send(NodeId::EXTERNAL, msg);
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_, u64>, _t: TimerToken) {}
    fn on_batch_end(&mut self, ctx: &mut Context<'_, u64>) {
        if self.hook {
            ctx.send(NodeId::EXTERNAL, MARK + self.since);
        }
        self.since = 0;
    }
}

/// Blocks node 0 on `BLOCK`, queues `burst` behind it, opens the gate
/// and returns everything the node sent until it went quiet.
fn gated_run(hook: bool, burst: u64) -> (Vec<u64>, Trace) {
    let (entered_tx, entered_rx) = channel();
    let (gate_tx, gate_rx) = channel();
    let cluster = ThreadedClusterBuilder::new(ThreadedConfig::default())
        .add_node(Gated { entered: entered_tx, gate: gate_rx, hook, since: 0 })
        .build();
    cluster.send(NodeId(0), BLOCK);
    entered_rx.recv_timeout(Duration::from_secs(5)).expect("node took BLOCK");
    for i in 1..=burst {
        cluster.send(NodeId(0), i);
    }
    gate_tx.send(()).unwrap();
    let mut out = Vec::new();
    while let Ok((_, v)) = cluster.recv_timeout(Duration::from_millis(300)) {
        out.push(v);
    }
    let trace = cluster.trace_snapshot();
    cluster.shutdown();
    (out, trace)
}

/// Hook contract (i): sixteen messages queued behind a busy handler
/// form one batch — one hook, after all sixteen sends.
#[test]
fn threaded_queued_burst_runs_the_hook_once_after_its_sends() {
    let (out, _) = gated_run(true, 16);
    let mut want = vec![BLOCK, MARK + 1];
    want.extend(1..=16);
    want.push(MARK + 16);
    assert_eq!(out, want);
}

/// Hook contract (iii): a process without the hook sees exactly the
/// messages, order, and records it did before batches existed.
#[test]
fn threaded_processes_without_the_hook_are_unaffected_by_batching() {
    let (out, trace) = gated_run(false, 16);
    let mut want = vec![BLOCK];
    want.extend(1..=16);
    assert_eq!(out, want);
    let recorded: Vec<u64> = trace.events().iter().map(|e| e.value as u64).collect();
    assert_eq!(recorded, want);
}

/// Re-sends every message to itself twice until it has handled `cap`, so
/// its inbox never empties and doubles every batch; reports each batch's
/// size at the batch's end.
struct SelfFeeder {
    cap: u64,
    handled: u64,
    since: u64,
}
impl Process<u64> for SelfFeeder {
    fn on_start(&mut self, _ctx: &mut Context<'_, u64>) {}
    fn on_message(&mut self, ctx: &mut Context<'_, u64>, _f: NodeId, m: u64) {
        self.handled += 1;
        self.since += 1;
        if self.handled < self.cap {
            ctx.send(ctx.id(), m);
            ctx.send(ctx.id(), m);
        }
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_, u64>, _t: TimerToken) {}
    fn on_batch_end(&mut self, ctx: &mut Context<'_, u64>) {
        ctx.send(NodeId::EXTERNAL, self.since);
        self.since = 0;
    }
}

/// Hook contract (ii): fed faster than it drains — every handled message
/// queues two more — the node's inbox never empties, yet every batch ends
/// in the hook, and each batch is exactly what was queued when it began.
#[test]
fn threaded_node_fed_faster_than_it_drains_still_ends_every_batch() {
    let cluster = ThreadedClusterBuilder::new(ThreadedConfig::default())
        .add_node(SelfFeeder { cap: 500, handled: 0, since: 0 })
        .build();
    cluster.send(NodeId(0), 1);
    let mut sizes = Vec::new();
    while let Ok((_, size)) = cluster.recv_timeout(Duration::from_millis(300)) {
        sizes.push(size);
    }
    cluster.shutdown();
    // Batches of 1, 2, …, 256 handle 511 messages; the 244 of the ninth
    // batch handled below the cap queue the tenth.
    let mut want: Vec<u64> = (0..9).map(|k| 1 << k).collect();
    want.push(488);
    assert_eq!(sizes, want);
}
