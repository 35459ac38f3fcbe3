//! Deterministic discrete-event cluster simulator.
//!
//! Drives [`Process`] state machines in virtual time with:
//!
//! * a **network model** (per-message latency, jitter, and gigabit-style
//!   transmission delay — [`NetConfig`]),
//! * a **queueing model**: each node is a FIFO queue served by `concurrency`
//!   servers; handler-charged service time ([`Context::consume`]) keeps a
//!   server busy, which is what produces the saturation knees the paper
//!   measures in Figs. 13–14,
//! * a **fault model** (paper Table 2 — [`FaultPlan`]): short faults are
//!   either surfaced to the process (network exception, disk error) or
//!   applied by the runtime (blocked process), and node breakdown takes the
//!   node offline,
//! * a **batch model**: the work already queued at a node when one item
//!   is taken forms a batch, and [`Process::on_batch_end`] runs once its
//!   last item has run (a lone arrival at an idle node is its own batch).
//!   The hook is invoked in event order as the last item is dispatched,
//!   but time-stamped at the batch's latest completion time,
//! * a **disk model**: each node has one disk, which runs the syncs its
//!   process starts ([`Context::start_sync`]) one at a time, each lasting
//!   the disk's `slow-fsync` penalty (zero when healthy). A sync's
//!   completion is its own event, queued to the node like a message; a
//!   crash processed before it drops it, so the sync never happened
//!   (DESIGN.md §9),
//! * **crash/partition control** for scripted failure drills,
//! * a **trace** collecting every `ctx.record(...)` measurement.
//!
//! Everything is driven by one seeded RNG, so a run is a pure function of
//! (processes, config, seed).

// Exempt from the 600-line file budget: see `LONG_FILES` in
// tests/source_rules.rs for why this module stays whole.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};

use crate::faults::{
    FaultEvent, FaultMetrics, FaultPlan, FaultSchedule, LinkFaultRule, LinkOutcome, OpFault,
};
use crate::netmodel::NetConfig;
use crate::process::{Action, Context, NodeId, Process, SyncJob, TimerToken, WireSized};
use crate::rng::Rng;
use crate::time::SimTime;
use crate::trace::{Trace, TraceEvent};

/// Simulator-wide configuration.
#[derive(Debug, Clone, Default)]
pub struct SimConfig {
    /// Network latency/bandwidth model.
    pub net: NetConfig,
    /// Fault-injection plan (applied per handled message).
    pub faults: FaultPlan,
    /// Master RNG seed.
    pub seed: u64,
}

/// Per-node configuration.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Number of work items the node can process concurrently (its server
    /// count — e.g. worker threads / cores).
    pub concurrency: usize,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig { concurrency: 1 }
    }
}

/// Why [`Sim::run_until`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The virtual-time limit was reached with events still pending.
    TimeLimit,
    /// No events remain (the system went quiescent).
    Idle,
}

enum Work<M> {
    Msg { from: NodeId, msg: M },
    Timer(TimerToken),
    SyncDone(bool),
}

enum EventKind<M> {
    Arrive { to: NodeId, from: NodeId, msg: M },
    TimerFire { node: NodeId, token: TimerToken },
    SyncDone { node: NodeId, life: u64, ok: bool },
    Dispatch { node: NodeId },
    Recover { node: NodeId },
    Crash { node: NodeId, down_for_us: Option<u64> },
    SetLink { a: NodeId, b: NodeId, up: bool },
    SetLinkDir { from: NodeId, to: NodeId, up: bool },
    SetLinkRule { from: NodeId, to: NodeId, rule: Option<LinkFaultRule> },
    HealAllLinks,
    SetDiskPenalty { node: NodeId, extra_us: u64 },
}

struct Event<M> {
    time: u64,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

trait AnyProcess<M>: Process<M> {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<M, T: Process<M> + Any> AnyProcess<M> for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

struct NodeSlot<M> {
    process: Box<dyn AnyProcess<M>>,
    /// Per-server next-free time (µs).
    servers: Vec<u64>,
    queue: VecDeque<Work<M>>,
    up: bool,
    rng: Rng,
    /// Earliest time a Dispatch event is already scheduled for, if any —
    /// avoids flooding the event queue.
    dispatch_at: Option<u64>,
    /// Total busy time accumulated across servers (for utilization stats).
    busy_us: u64,
    /// Messages dropped because the node was down.
    dropped: u64,
    /// How long one sync takes on this node's disk (µs); `0` is a
    /// healthy disk. Set by the `slow-fsync` fault, cleared by `heal-disk`.
    /// Survives crashes — it models the hardware, not the process.
    disk_penalty_us: u64,
    /// When the disk finishes the last sync queued on it (µs).
    disk_free_at: u64,
    /// Crashes so far: a sync completion for an earlier incarnation is
    /// dropped.
    life: u64,
    /// Items still to be taken in the open batch (`0` = no batch open). A
    /// batch is the work already queued when its first item is taken; the
    /// process's [`Process::on_batch_end`] runs once its last item has.
    batch_left: usize,
    /// Latest completion time of the open batch's items (µs).
    batch_until: u64,
}

/// Predicate selecting which messages draw per-operation faults.
type FaultFilter<M> = Box<dyn Fn(&M) -> bool>;

/// The deterministic simulator. `M` is the cluster message type.
pub struct Sim<M: WireSized> {
    config: SimConfig,
    nodes: Vec<NodeSlot<M>>,
    events: BinaryHeap<Reverse<Event<M>>>,
    seq: u64,
    now: u64,
    rng: Rng,
    trace: Trace,
    /// Links currently forced down (unordered pairs).
    down_links: BTreeSet<(NodeId, NodeId)>,
    /// Directions currently forced down (`(from, to)` ordered pairs) — the
    /// asymmetric half of a partition: `from`'s messages to `to` vanish while
    /// the reverse direction still works.
    down_links_dir: BTreeSet<(NodeId, NodeId)>,
    /// Per-direction chaos rules applied to every message crossing the link.
    link_rules: BTreeMap<(NodeId, NodeId), LinkFaultRule>,
    /// Counters for injected faults (defaults to detached counters; attach a
    /// registry-backed set with [`Sim::set_fault_metrics`]).
    fault_metrics: FaultMetrics,
    started: bool,
    /// When set, only messages satisfying the predicate draw per-operation
    /// faults. The paper's Table 2 probabilities are per *operation*, so
    /// experiment harnesses restrict sampling to operation-level messages
    /// rather than every ack and gossip frame.
    fault_filter: Option<FaultFilter<M>>,
}

impl<M: WireSized + Clone + 'static> Sim<M> {
    /// Creates a simulator.
    pub fn new(config: SimConfig) -> Self {
        let rng = Rng::new(config.seed);
        Sim {
            config,
            nodes: Vec::new(),
            events: BinaryHeap::new(),
            seq: 0,
            now: 0,
            rng,
            trace: Trace::new(),
            down_links: BTreeSet::new(),
            down_links_dir: BTreeSet::new(),
            link_rules: BTreeMap::new(),
            fault_metrics: FaultMetrics::default(),
            started: false,
            fault_filter: None,
        }
    }

    /// Restricts fault sampling to messages satisfying `pred` (see the
    /// `fault_filter` field). Call before [`Sim::start`].
    pub fn set_fault_filter(&mut self, pred: impl Fn(&M) -> bool + 'static) {
        self.fault_filter = Some(Box::new(pred));
    }

    /// Adds a node running `process`. Returns its id. Must be called before
    /// [`Sim::start`].
    pub fn add_node<P: Process<M> + Any>(&mut self, process: P, cfg: NodeConfig) -> NodeId {
        assert!(!self.started, "add_node after start");
        assert!(cfg.concurrency >= 1, "a node needs at least one server");
        let id = NodeId(self.nodes.len() as u32);
        let rng = self.rng.fork();
        self.nodes.push(NodeSlot {
            process: Box::new(process),
            servers: vec![0; cfg.concurrency],
            queue: VecDeque::new(),
            up: true,
            rng,
            dispatch_at: None,
            busy_us: 0,
            dropped: 0,
            disk_penalty_us: 0,
            disk_free_at: 0,
            life: 0,
            batch_left: 0,
            batch_until: 0,
        });
        id
    }

    /// Calls every process's `on_start` at time zero.
    pub fn start(&mut self) {
        assert!(!self.started, "start called twice");
        self.started = true;
        for i in 0..self.nodes.len() {
            self.invoke(NodeId(i as u32), 0, |p, ctx| p.on_start(ctx), None);
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime(self.now)
    }

    /// The experiment trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Network model accessor (for computing e.g. transfer components of a
    /// measured latency).
    pub fn net(&self) -> &NetConfig {
        &self.config.net
    }

    /// Whether the node is currently up.
    pub fn is_up(&self, id: NodeId) -> bool {
        self.nodes.get(id.0 as usize).map(|n| n.up).unwrap_or(false)
    }

    /// Accumulated busy time of a node's servers (µs).
    pub fn busy_us(&self, id: NodeId) -> u64 {
        self.nodes[id.0 as usize].busy_us
    }

    /// Messages dropped at a node because it was down.
    pub fn dropped_at(&self, id: NodeId) -> u64 {
        self.nodes[id.0 as usize].dropped
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to a node's process, downcast to its concrete type.
    pub fn process<P: 'static>(&self, id: NodeId) -> Option<&P> {
        self.nodes.get(id.0 as usize)?.process.as_any().downcast_ref::<P>()
    }

    /// Mutable access to a node's process, downcast to its concrete type.
    ///
    /// Intended for test harnesses that need to inspect or tweak state
    /// between runs — never call this from inside the simulation.
    pub fn process_mut<P: 'static>(&mut self, id: NodeId) -> Option<&mut P> {
        self.nodes.get_mut(id.0 as usize)?.process.as_any_mut().downcast_mut::<P>()
    }

    /// Injects a message from outside the cluster, arriving at `at`.
    pub fn inject(&mut self, at: SimTime, to: NodeId, msg: M) {
        self.push(at.0, EventKind::Arrive { to, from: NodeId::EXTERNAL, msg });
    }

    /// Schedules a crash of `node` at `at`; `down_for_us: None` keeps it down
    /// until [`Sim::schedule_restart`].
    pub fn schedule_crash(&mut self, at: SimTime, node: NodeId, down_for_us: Option<u64>) {
        self.push(at.0, EventKind::Crash { node, down_for_us });
    }

    /// Schedules a restart of `node` at `at`.
    pub fn schedule_restart(&mut self, at: SimTime, node: NodeId) {
        self.push(at.0, EventKind::Recover { node });
    }

    /// Schedules degrading (`extra_us > 0`) or healing (`extra_us == 0`)
    /// `node`'s disk at `at`. While degraded, every sync the node starts
    /// ([`Context::start_sync`]) occupies its disk for `extra_us`.
    pub fn schedule_disk_penalty(&mut self, at: SimTime, node: NodeId, extra_us: u64) {
        self.push(at.0, EventKind::SetDiskPenalty { node, extra_us });
    }

    /// The node's current degraded-disk penalty (µs); `0` when healthy.
    pub fn disk_penalty_us(&self, id: NodeId) -> u64 {
        self.nodes.get(id.0 as usize).map(|n| n.disk_penalty_us).unwrap_or(0)
    }

    /// Schedules taking the `a`↔`b` link down (`up = false`) or up.
    pub fn schedule_link(&mut self, at: SimTime, a: NodeId, b: NodeId, up: bool) {
        self.push(at.0, EventKind::SetLink { a, b, up });
    }

    /// Schedules cutting (`up = false`) or healing only the `from → to`
    /// direction of a link. The reverse direction is untouched, modelling
    /// asymmetric partitions (e.g. a one-way firewall rule).
    pub fn schedule_link_oneway(&mut self, at: SimTime, from: NodeId, to: NodeId, up: bool) {
        self.push(at.0, EventKind::SetLinkDir { from, to, up });
    }

    /// Schedules installing `rule` on both directions of the `a`↔`b` link.
    pub fn schedule_chaos(&mut self, at: SimTime, a: NodeId, b: NodeId, rule: LinkFaultRule) {
        self.push(at.0, EventKind::SetLinkRule { from: a, to: b, rule: Some(rule) });
        self.push(at.0, EventKind::SetLinkRule { from: b, to: a, rule: Some(rule) });
    }

    /// Schedules removing any chaos rule from the `a`↔`b` link.
    pub fn schedule_chaos_clear(&mut self, at: SimTime, a: NodeId, b: NodeId) {
        self.push(at.0, EventKind::SetLinkRule { from: a, to: b, rule: None });
        self.push(at.0, EventKind::SetLinkRule { from: b, to: a, rule: None });
    }

    /// Attaches registry-backed fault counters so injected faults show up in
    /// `/_stats` under `fault.*` / `partition.*`.
    pub fn set_fault_metrics(&mut self, metrics: FaultMetrics) {
        self.fault_metrics = metrics;
    }

    /// Queues every event of a [`FaultSchedule`] at its scripted virtual
    /// time. Partitions expand to symmetric cuts of every cross-group link.
    pub fn apply_schedule(&mut self, schedule: &FaultSchedule) {
        for scheduled in &schedule.events {
            let at = SimTime(scheduled.at_us);
            match &scheduled.event {
                FaultEvent::Crash { node, down_for_us } => {
                    self.schedule_crash(at, *node, *down_for_us);
                }
                FaultEvent::Restart { node } => self.schedule_restart(at, *node),
                FaultEvent::CutLink { a, b } => self.schedule_link(at, *a, *b, false),
                FaultEvent::CutOneWay { from, to } => {
                    self.schedule_link_oneway(at, *from, *to, false);
                }
                FaultEvent::HealLink { a, b } => self.schedule_link(at, *a, *b, true),
                FaultEvent::HealOneWay { from, to } => {
                    self.schedule_link_oneway(at, *from, *to, true);
                }
                FaultEvent::Partition { left, right } => {
                    for &a in left {
                        for &b in right {
                            self.schedule_link(at, a, b, false);
                        }
                    }
                }
                FaultEvent::HealAll => self.push(at.0, EventKind::HealAllLinks),
                FaultEvent::Chaos { a, b, rule } => self.schedule_chaos(at, *a, *b, *rule),
                FaultEvent::ChaosClear { a, b } => self.schedule_chaos_clear(at, *a, *b),
                FaultEvent::SlowFsync { node, extra_us } => {
                    self.schedule_disk_penalty(at, *node, *extra_us);
                }
                FaultEvent::HealDisk { node } => self.schedule_disk_penalty(at, *node, 0),
            }
        }
    }

    /// Runs until the given virtual time, or until idle, whichever first.
    ///
    /// **Clock contract:** on return, `now() == max(now, limit)` — virtual
    /// time always advances to `limit`, even when the event queue drains
    /// early. A quiescent system still experiences the passage of time, so
    /// back-to-back `run_until`/[`Sim::run_for`] calls cover disjoint,
    /// contiguous windows of virtual time. [`StopReason::Idle`] means the
    /// queue drained somewhere inside the window; [`StopReason::TimeLimit`]
    /// means events at times `> limit` remain pending.
    pub fn run_until(&mut self, limit: SimTime) -> StopReason {
        assert!(self.started, "call start() before run_until");
        loop {
            let Some(Reverse(head)) = self.events.peek() else {
                // Queue drained: fast-forward the clock through the rest of
                // the window. (The old `limit.0.min(self.now)` here was a
                // no-op that left `now` stuck at the last event, silently
                // compressing virtual time across consecutive `run_for`s.)
                self.now = self.now.max(limit.0);
                return StopReason::Idle;
            };
            if head.time > limit.0 {
                self.now = limit.0;
                return StopReason::TimeLimit;
            }
            let Reverse(event) = self.events.pop().expect("peeked");
            self.now = event.time;
            self.handle(event);
        }
    }

    /// Runs for `us` more microseconds of virtual time.
    ///
    /// Same contract as [`Sim::run_until`]: on return `now()` has advanced
    /// by exactly `us`, whether or not the queue drained along the way.
    pub fn run_for(&mut self, us: u64) -> StopReason {
        let t = SimTime(self.now + us);
        self.run_until(t)
    }

    /// Runs until no events remain, with a hard safety cap on virtual time.
    ///
    /// Unlike [`Sim::run_until`], the clock is **not** fast-forwarded to the
    /// cap on [`StopReason::Idle`]: `now()` is left at the last executed
    /// event, i.e. the moment the system actually went quiescent — that is
    /// the value callers use this method to learn. [`StopReason::TimeLimit`]
    /// means events beyond `cap` remain; then `now() == cap` as usual.
    pub fn run_until_idle(&mut self, cap: SimTime) -> StopReason {
        assert!(self.started, "call start() before run_until_idle");
        loop {
            let Some(Reverse(head)) = self.events.peek() else {
                return StopReason::Idle;
            };
            if head.time > cap.0 {
                self.now = cap.0;
                return StopReason::TimeLimit;
            }
            let Reverse(event) = self.events.pop().expect("peeked");
            self.now = event.time;
            self.handle(event);
        }
    }

    fn push(&mut self, time: u64, kind: EventKind<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Reverse(Event { time: time.max(self.now), seq, kind }));
    }

    fn link_down(&self, from: NodeId, to: NodeId) -> bool {
        let key = if from.0 <= to.0 { (from, to) } else { (to, from) };
        self.down_links.contains(&key) || self.down_links_dir.contains(&(from, to))
    }

    fn handle(&mut self, event: Event<M>) {
        match event.kind {
            EventKind::Arrive { to, from, msg } => {
                let link_cut = from != NodeId::EXTERNAL && from != to && self.link_down(from, to);
                let Some(slot) = self.nodes.get_mut(to.0 as usize) else { return };
                if !slot.up || link_cut {
                    slot.dropped += 1;
                    if link_cut {
                        self.fault_metrics.partition_dropped.inc();
                    }
                    return;
                }
                slot.queue.push_back(Work::Msg { from, msg });
                self.dispatch(to);
            }
            EventKind::TimerFire { node, token } => {
                let Some(slot) = self.nodes.get_mut(node.0 as usize) else { return };
                if !slot.up {
                    return;
                }
                slot.queue.push_back(Work::Timer(token));
                self.dispatch(node);
            }
            EventKind::SyncDone { node, life, ok } => {
                let Some(slot) = self.nodes.get_mut(node.0 as usize) else { return };
                // The node crashed since the sync started: it never finished.
                if !slot.up || slot.life != life {
                    return;
                }
                slot.queue.push_back(Work::SyncDone(ok));
                self.dispatch(node);
            }
            EventKind::Dispatch { node } => {
                if let Some(slot) = self.nodes.get_mut(node.0 as usize) {
                    slot.dispatch_at = None;
                }
                self.dispatch(node);
            }
            EventKind::Recover { node } => {
                let slot = &mut self.nodes[node.0 as usize];
                if slot.up {
                    return;
                }
                slot.up = true;
                let now = self.now;
                for s in &mut slot.servers {
                    *s = now;
                }
                self.fault_metrics.restarts.inc();
                self.invoke(node, now, |p, ctx| p.on_restart(ctx), None);
            }
            EventKind::Crash { node, down_for_us } => {
                self.crash(node, down_for_us);
            }
            EventKind::SetLink { a, b, up } => {
                let key = if a.0 <= b.0 { (a, b) } else { (b, a) };
                if up {
                    if self.down_links.remove(&key) {
                        self.fault_metrics.partition_heals.inc();
                    }
                } else if self.down_links.insert(key) {
                    self.fault_metrics.partition_cuts.inc();
                }
            }
            EventKind::SetLinkDir { from, to, up } => {
                if up {
                    if self.down_links_dir.remove(&(from, to)) {
                        self.fault_metrics.partition_heals.inc();
                    }
                } else if self.down_links_dir.insert((from, to)) {
                    self.fault_metrics.partition_cuts.inc();
                }
            }
            EventKind::SetLinkRule { from, to, rule } => match rule {
                Some(r) if !r.is_none() => {
                    self.link_rules.insert((from, to), r);
                }
                _ => {
                    self.link_rules.remove(&(from, to));
                }
            },
            EventKind::HealAllLinks => {
                let healed = self.down_links.len() + self.down_links_dir.len();
                self.fault_metrics.partition_heals.add(healed as u64);
                self.down_links.clear();
                self.down_links_dir.clear();
            }
            EventKind::SetDiskPenalty { node, extra_us } => {
                let Some(slot) = self.nodes.get_mut(node.0 as usize) else { return };
                if extra_us > 0 && slot.disk_penalty_us == 0 {
                    self.fault_metrics.disk_degraded.inc();
                }
                slot.disk_penalty_us = extra_us;
            }
        }
    }

    fn crash(&mut self, node: NodeId, down_for_us: Option<u64>) {
        let now = self.now;
        let slot = &mut self.nodes[node.0 as usize];
        if !slot.up {
            return;
        }
        slot.up = false;
        slot.life += 1;
        slot.queue.clear();
        slot.dispatch_at = None;
        slot.batch_left = 0;
        self.fault_metrics.crashes.inc();
        if let Some(d) = down_for_us {
            self.push(now + d, EventKind::Recover { node });
        }
    }

    /// Starts as much queued work as servers allow at the current time.
    fn dispatch(&mut self, node: NodeId) {
        loop {
            let now = self.now;
            let slot = &mut self.nodes[node.0 as usize];
            if !slot.up || slot.queue.is_empty() {
                return;
            }
            // Earliest-free server.
            let (sidx, free_at) = slot
                .servers
                .iter()
                .copied()
                .enumerate()
                .min_by_key(|&(_, t)| t)
                .expect("at least one server");
            if free_at > now {
                // All servers busy: wake up when the earliest frees.
                if slot.dispatch_at.map(|t| t > free_at).unwrap_or(true) {
                    slot.dispatch_at = Some(free_at);
                    self.push(free_at, EventKind::Dispatch { node });
                }
                return;
            }
            if slot.batch_left == 0 {
                slot.batch_left = slot.queue.len();
                slot.batch_until = now;
            }
            let work = slot.queue.pop_front().expect("non-empty");
            // Sample a per-operation fault for message work (Table 2).
            let fault = match &work {
                Work::Msg { msg, .. } if !self.config.faults.is_none() => {
                    let eligible = self.fault_filter.as_ref().map(|f| f(msg)).unwrap_or(true);
                    if eligible {
                        self.config.faults.sample(&mut self.nodes[node.0 as usize].rng)
                    } else {
                        None
                    }
                }
                _ => None,
            };
            // Runtime-applied faults.
            let mut extra_stall = 0u64;
            let mut ctx_fault = None;
            match fault {
                Some(OpFault::BlockedProcess) => {
                    extra_stall =
                        self.config.faults.sample_block_us(&mut self.nodes[node.0 as usize].rng);
                }
                Some(OpFault::NodeBreakdown) => {
                    self.crash(node, None);
                    return;
                }
                Some(f) => ctx_fault = Some(f),
                None => {}
            }
            // A blocked process stalls *before* the work runs, so the stall
            // delays both this operation's effects and everything queued
            // behind it.
            let run_at = now + extra_stall;
            let consumed = match work {
                Work::Msg { from, msg } => {
                    self.invoke(node, run_at, |p, ctx| p.on_message(ctx, from, msg), ctx_fault)
                }
                Work::Timer(token) => {
                    self.invoke(node, run_at, |p, ctx| p.on_timer(ctx, token), ctx_fault)
                }
                Work::SyncDone(ok) => {
                    self.invoke(node, run_at, |p, ctx| p.on_sync_done(ctx, ok), ctx_fault)
                }
            };
            let total = consumed + extra_stall;
            let slot = &mut self.nodes[node.0 as usize];
            if slot.up {
                slot.servers[sidx] = now + total;
                slot.busy_us += total;
                slot.batch_until = slot.batch_until.max(now + total);
                slot.batch_left -= 1;
                if slot.batch_left == 0 {
                    self.end_batch(node, sidx);
                }
            }
        }
    }

    /// Runs the end-of-batch hook once every item of the batch has run and
    /// dispatched its actions: at the batch's latest completion time, with
    /// its service time charged to the server that ran the last item.
    fn end_batch(&mut self, node: NodeId, sidx: usize) {
        let at = self.nodes[node.0 as usize].batch_until;
        let spent = self.invoke(node, at, |p, ctx| p.on_batch_end(ctx), None);
        let slot = &mut self.nodes[node.0 as usize];
        if slot.up && spent > 0 {
            slot.servers[sidx] = slot.servers[sidx].max(at + spent);
            slot.busy_us += spent;
        }
    }

    /// Runs a handler at virtual time `at`, then applies its actions at
    /// `at + consumed`. Returns the consumed service time.
    fn invoke(
        &mut self,
        node: NodeId,
        at: u64,
        f: impl FnOnce(&mut dyn AnyProcess<M>, &mut Context<'_, M>),
        fault: Option<OpFault>,
    ) -> u64 {
        let mut actions: Vec<Action<M>> = Vec::new();
        let slot = &mut self.nodes[node.0 as usize];
        let mut rng = slot.rng.clone();
        let consumed = {
            let mut ctx = Context::new(SimTime(at), node, &mut actions, &mut rng, fault);
            f(slot.process.as_mut(), &mut ctx);
            ctx.consumed()
        };
        self.nodes[node.0 as usize].rng = rng;
        let effect_time = at + consumed;
        for action in actions {
            match action {
                Action::Send { to, msg } => {
                    let bytes = msg.wire_size();
                    if to == node {
                        let delay = self.config.net.sample_loopback_us(bytes);
                        self.push(effect_time + delay, EventKind::Arrive { to, from: node, msg });
                        continue;
                    }
                    // Per-link chaos: the message may be dropped, duplicated,
                    // or held back before the network model even sees it.
                    let outcome = match self.link_rules.get(&(node, to)).copied() {
                        Some(rule) => rule.sample(&mut self.rng),
                        None => LinkOutcome::default(),
                    };
                    if outcome.dropped {
                        self.fault_metrics.msg_dropped.inc();
                        continue;
                    }
                    if outcome.duplicated {
                        self.fault_metrics.msg_duplicated.inc();
                    }
                    if outcome.delayed {
                        self.fault_metrics.msg_delayed.inc();
                    }
                    if outcome.reordered {
                        self.fault_metrics.msg_reordered.inc();
                    }
                    // Each copy draws its own base latency; the injected
                    // extra delay rides on top of every copy.
                    if outcome.duplicated {
                        let delay = self.config.net.sample_delay_us(bytes, &mut self.rng)
                            + outcome.extra_delay_us;
                        let dup = msg.clone();
                        self.push(
                            effect_time + delay,
                            EventKind::Arrive { to, from: node, msg: dup },
                        );
                    }
                    let delay = self.config.net.sample_delay_us(bytes, &mut self.rng)
                        + outcome.extra_delay_us;
                    self.push(effect_time + delay, EventKind::Arrive { to, from: node, msg });
                }
                Action::SetTimer { delay_us, token } => {
                    self.push(effect_time + delay_us, EventKind::TimerFire { node, token });
                }
                Action::Record { name, value } => {
                    self.trace.push(TraceEvent { time: SimTime(effect_time), node, name, value });
                }
                Action::CrashSelf { down_for_us } => {
                    self.crash(node, down_for_us);
                }
                Action::Sync { job } => self.start_sync(node, effect_time, job),
            }
        }
        consumed
    }

    /// Queues a sync on `node`'s disk from `at`: the job's I/O runs now
    /// (virtual time does not pass during it), and its completion is
    /// scheduled for when the disk has finished the syncs ahead of it plus
    /// this one's penalty.
    fn start_sync(&mut self, node: NodeId, at: u64, job: Option<SyncJob>) {
        let ok = job.is_none_or(SyncJob::run);
        let slot = &mut self.nodes[node.0 as usize];
        let done_at = at.max(slot.disk_free_at) + slot.disk_penalty_us;
        slot.disk_free_at = done_at;
        let life = slot.life;
        self.push(done_at, EventKind::SyncDone { node, life, ok });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echoes every message back to its sender after consuming a fixed
    /// service time.
    struct Echo {
        service_us: u64,
        handled: u64,
    }

    impl Process<u64> for Echo {
        fn on_start(&mut self, _ctx: &mut Context<'_, u64>) {}
        fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: NodeId, msg: u64) {
            self.handled += 1;
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
        replies: u64,
    }

    impl Process<u64> for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            for i in 0..self.count {
                ctx.send(self.target, i);
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, u64>, _from: NodeId, _msg: u64) {
            self.replies += 1;
            ctx.record("reply_at_us", ctx.now().as_micros() as f64);
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, u64>, _token: TimerToken) {}
    }

    /// Forwards every externally-injected message to `target` — lets tests
    /// originate node-to-node traffic *after* t = 0, when scheduled link
    /// rules are already in place (rules apply at send time, so messages
    /// already in flight are unaffected).
    struct Relay {
        target: NodeId,
    }

    impl Process<u64> for Relay {
        fn on_start(&mut self, _ctx: &mut Context<'_, u64>) {}
        fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: NodeId, msg: u64) {
            if from == NodeId::EXTERNAL {
                ctx.send(self.target, msg);
            }
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, u64>, _token: TimerToken) {}
    }

    fn instant_config(seed: u64) -> SimConfig {
        SimConfig { net: NetConfig::instant(), faults: FaultPlan::none(), seed }
    }

    #[test]
    fn ping_pong_round_trips() {
        let mut sim = Sim::new(instant_config(1));
        let echo = sim.add_node(Echo { service_us: 10, handled: 0 }, NodeConfig::default());
        let pinger =
            sim.add_node(Pinger { target: echo, count: 5, replies: 0 }, NodeConfig::default());
        assert_eq!(pinger, NodeId(1));
        sim.start();
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.process::<Echo>(echo).unwrap().handled, 5);
        assert_eq!(sim.process::<Pinger>(pinger).unwrap().replies, 5);
        assert_eq!(sim.trace().count("echoed"), 5);
    }

    /// The idle-clock regression (PR 7): once the event queue drains,
    /// `run_for` must still advance `now` through the whole window. The
    /// pre-fix idle branch (`self.now.max(limit.0.min(self.now))`) was a
    /// no-op that left the clock stuck at the last event, so back-to-back
    /// `run_for` calls silently compressed virtual time.
    #[test]
    fn run_for_after_drained_queue_still_advances_virtual_time() {
        let mut sim = Sim::new(instant_config(17));
        let echo = sim.add_node(Echo { service_us: 1, handled: 0 }, NodeConfig::default());
        sim.start();
        sim.inject(SimTime(10), echo, 1);
        // The only event is at t=10; the window runs to t=1000.
        assert_eq!(sim.run_for(1_000), StopReason::Idle);
        assert_eq!(sim.now(), SimTime(1_000), "idle run_for must land on its limit");
        // A second window starts where the first ended, not at the stale
        // event time.
        assert_eq!(sim.run_for(500), StopReason::Idle);
        assert_eq!(sim.now(), SimTime(1_500));
        // Work injected relative to the advanced clock lands inside the
        // next window — virtual time is contiguous across idle stretches.
        sim.inject(SimTime(1_600), echo, 2);
        assert_eq!(sim.run_for(500), StopReason::Idle);
        assert_eq!(sim.now(), SimTime(2_000));
        assert_eq!(sim.process::<Echo>(echo).unwrap().handled, 2);
    }

    #[test]
    fn run_until_idle_reports_quiescence_time_or_cap() {
        let mut sim = Sim::new(instant_config(18));
        let echo = sim.add_node(Echo { service_us: 1, handled: 0 }, NodeConfig::default());
        sim.start();
        // Queue drains at t=10, well before the cap: Idle, clock left at
        // the moment the system went quiescent (not fast-forwarded).
        sim.inject(SimTime(10), echo, 1);
        assert_eq!(sim.run_until_idle(SimTime(1_000)), StopReason::Idle);
        assert_eq!(sim.now(), SimTime(10), "Idle leaves now at the last executed event");
        // An event beyond the cap: TimeLimit, clock pinned to the cap.
        sim.inject(SimTime(5_000), echo, 2);
        assert_eq!(sim.run_until_idle(SimTime(2_000)), StopReason::TimeLimit);
        assert_eq!(sim.now(), SimTime(2_000));
        assert_eq!(sim.process::<Echo>(echo).unwrap().handled, 1);
    }

    /// Starts a sync with nothing to run on every message and records how
    /// long each one took to come back.
    struct DiskProbe {
        started_at: u64,
    }
    impl Process<u64> for DiskProbe {
        fn on_start(&mut self, _ctx: &mut Context<'_, u64>) {}
        fn on_message(&mut self, ctx: &mut Context<'_, u64>, _from: NodeId, _msg: u64) {
            self.started_at = ctx.now().as_micros();
            ctx.start_sync(None);
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, u64>, _token: TimerToken) {}
        fn on_sync_done(&mut self, ctx: &mut Context<'_, u64>, ok: bool) {
            assert!(ok);
            ctx.record("sync_us", (ctx.now().as_micros() - self.started_at) as f64);
        }
    }

    #[test]
    fn slow_fsync_schedule_sets_and_heals_the_sync_penalty() {
        let mut sim = Sim::new(instant_config(19));
        let node = sim.add_node(DiskProbe { started_at: 0 }, NodeConfig::default());
        let schedule =
            FaultSchedule::parse("100 slow-fsync 0 2500\n300 heal-disk 0").expect("parse");
        sim.start();
        sim.apply_schedule(&schedule);
        sim.inject(SimTime(50), node, 1); // healthy
        sim.inject(SimTime(200), node, 2); // degraded
        sim.inject(SimTime(3_000), node, 3); // healed
        sim.run_for(10_000);
        assert_eq!(sim.trace().values("sync_us"), vec![0.0, 2_500.0, 0.0]);
        assert_eq!(sim.disk_penalty_us(node), 0);
    }

    /// The disk runs one sync at a time: back-to-back syncs complete in
    /// start order, each a penalty after the one before.
    #[test]
    fn syncs_queue_on_the_disk_in_start_order() {
        struct Burst;
        impl Process<u64> for Burst {
            fn on_start(&mut self, _ctx: &mut Context<'_, u64>) {}
            fn on_message(&mut self, ctx: &mut Context<'_, u64>, _from: NodeId, _msg: u64) {
                ctx.start_sync(Some(SyncJob::new(|| false)));
                ctx.start_sync(None);
                ctx.start_sync(Some(SyncJob::new(|| true)));
            }
            fn on_timer(&mut self, _ctx: &mut Context<'_, u64>, _token: TimerToken) {}
            fn on_sync_done(&mut self, ctx: &mut Context<'_, u64>, ok: bool) {
                ctx.record(if ok { "ok" } else { "failed" }, ctx.now().as_micros() as f64);
            }
        }
        let mut sim = Sim::new(instant_config(23));
        let node = sim.add_node(Burst, NodeConfig::default());
        sim.schedule_disk_penalty(SimTime(0), node, 300);
        sim.start();
        sim.inject(SimTime(10), node, 1);
        sim.run_for(10_000);
        let done: Vec<(&str, f64)> =
            sim.trace().events().iter().map(|e| (e.name, e.value)).collect();
        assert_eq!(done, vec![("failed", 310.0), ("ok", 610.0), ("ok", 910.0)]);
    }

    /// The disk survives a crash: the penalty models hardware, so a
    /// restarted process still sees it.
    #[test]
    fn disk_penalty_survives_crash_and_restart() {
        let mut sim = Sim::new(instant_config(20));
        let node = sim.add_node(Echo { service_us: 1, handled: 0 }, NodeConfig::default());
        sim.start();
        sim.schedule_disk_penalty(SimTime(10), node, 900);
        sim.schedule_crash(SimTime(20), node, Some(30));
        sim.run_for(100);
        assert!(sim.is_up(node));
        assert_eq!(sim.disk_penalty_us(node), 900);
    }

    #[test]
    fn single_server_fifo_queueing_serializes_service() {
        let mut sim = Sim::new(instant_config(2));
        let echo =
            sim.add_node(Echo { service_us: 100, handled: 0 }, NodeConfig { concurrency: 1 });
        let pinger =
            sim.add_node(Pinger { target: echo, count: 10, replies: 0 }, NodeConfig::default());
        sim.start();
        sim.run_until(SimTime::from_secs(1));
        // All ten arrive at t≈0; the k=1 server finishes them at 100, 200, ... 1000.
        let replies = sim.trace().values("reply_at_us");
        assert_eq!(replies.len(), 10);
        let last = replies.iter().cloned().fold(0.0f64, f64::max);
        assert!((999.0..=1001.0).contains(&last), "last reply at {last}");
        let _ = pinger;
    }

    #[test]
    fn multi_server_cuts_queueing_proportionally() {
        let mut sim = Sim::new(instant_config(2));
        let echo =
            sim.add_node(Echo { service_us: 100, handled: 0 }, NodeConfig { concurrency: 5 });
        sim.add_node(Pinger { target: echo, count: 10, replies: 0 }, NodeConfig::default());
        sim.start();
        sim.run_until(SimTime::from_secs(1));
        let last = sim.trace().values("reply_at_us").iter().cloned().fold(0.0f64, f64::max);
        // 10 jobs over 5 servers = 2 serial rounds of 100 µs.
        assert!((199.0..=201.0).contains(&last), "last reply at {last}");
    }

    #[test]
    fn identical_seeds_reproduce_identical_traces() {
        let run = |seed| {
            let mut cfg =
                SimConfig { net: NetConfig::gigabit_lan(), faults: FaultPlan::none(), seed };
            cfg.net.jitter_us = 300;
            let mut sim = Sim::new(cfg);
            let echo = sim.add_node(Echo { service_us: 50, handled: 0 }, NodeConfig::default());
            sim.add_node(Pinger { target: echo, count: 20, replies: 0 }, NodeConfig::default());
            sim.start();
            sim.run_until(SimTime::from_secs(2));
            sim.trace().values("reply_at_us")
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should differ (jitter)");
    }

    #[test]
    fn crashed_node_drops_messages_until_recovery() {
        let mut sim = Sim::new(instant_config(3));
        let echo = sim.add_node(Echo { service_us: 1, handled: 0 }, NodeConfig::default());
        sim.start();
        sim.schedule_crash(SimTime(10), echo, None);
        sim.inject(SimTime(20), echo, 99);
        sim.run_until(SimTime(50));
        assert!(!sim.is_up(echo));
        assert_eq!(sim.process::<Echo>(echo).unwrap().handled, 0);
        assert_eq!(sim.dropped_at(echo), 1);
        sim.schedule_restart(SimTime(60), echo);
        sim.inject(SimTime(70), echo, 100);
        sim.run_until(SimTime(100));
        assert!(sim.is_up(echo));
        assert_eq!(sim.process::<Echo>(echo).unwrap().handled, 1);
    }

    #[test]
    fn auto_recovery_after_short_crash() {
        let mut sim = Sim::new(instant_config(4));
        let echo = sim.add_node(Echo { service_us: 1, handled: 0 }, NodeConfig::default());
        sim.start();
        sim.schedule_crash(SimTime(10), echo, Some(100));
        sim.run_until(SimTime(50));
        assert!(!sim.is_up(echo));
        sim.run_until(SimTime(200));
        assert!(sim.is_up(echo));
    }

    #[test]
    fn partition_drops_messages_between_pair() {
        let mut sim = Sim::new(instant_config(5));
        let echo = sim.add_node(Echo { service_us: 1, handled: 0 }, NodeConfig::default());
        let pinger =
            sim.add_node(Pinger { target: echo, count: 3, replies: 0 }, NodeConfig::default());
        sim.schedule_link(SimTime(0), echo, pinger, false);
        sim.start();
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.process::<Echo>(echo).unwrap().handled, 0);
        // Heal and resend.
        sim.schedule_link(sim.now(), echo, pinger, true);
        sim.inject(sim.now() + 1, echo, 42);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.process::<Echo>(echo).unwrap().handled, 1);
    }

    #[test]
    fn breakdown_fault_takes_node_down() {
        let mut cfg = instant_config(6);
        cfg.faults = FaultPlan {
            p_network: 0.0,
            p_disk: 0.0,
            p_block: 0.0,
            p_breakdown: 1.0,
            block_range_us: (1, 2),
        };
        let mut sim = Sim::new(cfg);
        let echo = sim.add_node(Echo { service_us: 1, handled: 0 }, NodeConfig::default());
        sim.start();
        sim.inject(SimTime(1), echo, 1);
        sim.run_until(SimTime(100));
        assert!(!sim.is_up(echo));
        assert_eq!(sim.process::<Echo>(echo).unwrap().handled, 0);
    }

    #[test]
    fn blocked_process_fault_stalls_the_server() {
        let mut cfg = instant_config(7);
        cfg.faults = FaultPlan {
            p_network: 0.0,
            p_disk: 0.0,
            p_block: 1.0,
            p_breakdown: 0.0,
            block_range_us: (10_000, 10_001),
        };
        let mut sim = Sim::new(cfg);
        let echo = sim.add_node(Echo { service_us: 10, handled: 0 }, NodeConfig::default());
        sim.add_node(Pinger { target: echo, count: 2, replies: 0 }, NodeConfig::default());
        sim.start();
        sim.run_until(SimTime::from_secs(1));
        // Each message stalls ~10 ms: second reply lands after ~20 ms.
        let last = sim.trace().values("reply_at_us").iter().cloned().fold(0.0f64, f64::max);
        assert!(last >= 20_000.0, "last reply at {last}");
    }

    #[test]
    fn network_fault_is_surfaced_to_process() {
        struct FaultSeer {
            saw: bool,
        }
        impl Process<u64> for FaultSeer {
            fn on_start(&mut self, _ctx: &mut Context<'_, u64>) {}
            fn on_message(&mut self, ctx: &mut Context<'_, u64>, _f: NodeId, _m: u64) {
                if ctx.take_op_fault() == Some(OpFault::NetworkException) {
                    self.saw = true;
                }
            }
            fn on_timer(&mut self, _ctx: &mut Context<'_, u64>, _t: TimerToken) {}
        }
        let mut cfg = instant_config(8);
        cfg.faults = FaultPlan {
            p_network: 1.0,
            p_disk: 0.0,
            p_block: 0.0,
            p_breakdown: 0.0,
            block_range_us: (1, 2),
        };
        let mut sim = Sim::new(cfg);
        let n = sim.add_node(FaultSeer { saw: false }, NodeConfig::default());
        sim.start();
        sim.inject(SimTime(1), n, 1);
        sim.run_until(SimTime(10));
        assert!(sim.process::<FaultSeer>(n).unwrap().saw);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerBox {
            fired: Vec<TimerToken>,
        }
        impl Process<u64> for TimerBox {
            fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
                ctx.set_timer(300, 3);
                ctx.set_timer(100, 1);
                ctx.set_timer(200, 2);
            }
            fn on_message(&mut self, _ctx: &mut Context<'_, u64>, _f: NodeId, _m: u64) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, u64>, token: TimerToken) {
                self.fired.push(token);
                ctx.record("t", token as f64);
            }
        }
        let mut sim = Sim::new(instant_config(9));
        let n = sim.add_node(TimerBox { fired: vec![] }, NodeConfig::default());
        sim.start();
        sim.run_until(SimTime(1_000));
        assert_eq!(sim.process::<TimerBox>(n).unwrap().fired, vec![1, 2, 3]);
    }

    #[test]
    fn busy_accounting_accumulates() {
        let mut sim = Sim::new(instant_config(10));
        let echo = sim.add_node(Echo { service_us: 100, handled: 0 }, NodeConfig::default());
        sim.add_node(Pinger { target: echo, count: 4, replies: 0 }, NodeConfig::default());
        sim.start();
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.busy_us(echo), 400);
    }

    #[test]
    fn bandwidth_model_delays_large_messages() {
        #[derive(Clone)]
        struct Big;
        impl WireSized for Big {
            fn wire_size(&self) -> usize {
                1_250_000 // 10 ms at 125 B/µs
            }
        }
        struct Sender {
            to: NodeId,
        }
        impl Process<Big> for Sender {
            fn on_start(&mut self, ctx: &mut Context<'_, Big>) {
                ctx.send(self.to, Big);
            }
            fn on_message(&mut self, _c: &mut Context<'_, Big>, _f: NodeId, _m: Big) {}
            fn on_timer(&mut self, _c: &mut Context<'_, Big>, _t: TimerToken) {}
        }
        struct Receiver {
            at: Option<u64>,
        }
        impl Process<Big> for Receiver {
            fn on_start(&mut self, _ctx: &mut Context<'_, Big>) {}
            fn on_message(&mut self, ctx: &mut Context<'_, Big>, _f: NodeId, _m: Big) {
                self.at = Some(ctx.now().as_micros());
            }
            fn on_timer(&mut self, _c: &mut Context<'_, Big>, _t: TimerToken) {}
        }
        let mut sim: Sim<Big> = Sim::new(SimConfig {
            net: NetConfig::gigabit_lan(),
            faults: FaultPlan::none(),
            seed: 11,
        });
        let rx = sim.add_node(Receiver { at: None }, NodeConfig::default());
        sim.add_node(Sender { to: rx }, NodeConfig::default());
        sim.start();
        sim.run_until(SimTime::from_secs(1));
        let at = sim.process::<Receiver>(rx).unwrap().at.unwrap();
        assert!(at >= 10_000, "arrival at {at} must include 10 ms transfer");
        assert!(at <= 11_000, "arrival at {at} unexpectedly late");
    }

    #[test]
    fn oneway_cut_is_asymmetric() {
        // Cut only pinger → echo: pings vanish before the echo sees them.
        let mut sim = Sim::new(instant_config(12));
        let echo = sim.add_node(Echo { service_us: 1, handled: 0 }, NodeConfig::default());
        let pinger =
            sim.add_node(Pinger { target: echo, count: 3, replies: 0 }, NodeConfig::default());
        sim.schedule_link_oneway(SimTime(0), pinger, echo, false);
        sim.start();
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.process::<Echo>(echo).unwrap().handled, 0);
        assert_eq!(sim.dropped_at(echo), 3);
        assert_eq!(sim.process::<Pinger>(pinger).unwrap().replies, 0);

        // Cut only the reverse direction in a fresh sim: pings get through,
        // replies vanish.
        let mut sim = Sim::new(instant_config(12));
        let echo = sim.add_node(Echo { service_us: 1, handled: 0 }, NodeConfig::default());
        let pinger =
            sim.add_node(Pinger { target: echo, count: 3, replies: 0 }, NodeConfig::default());
        sim.schedule_link_oneway(SimTime(0), echo, pinger, false);
        sim.start();
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.process::<Echo>(echo).unwrap().handled, 3);
        assert_eq!(sim.process::<Pinger>(pinger).unwrap().replies, 0);
        assert_eq!(sim.dropped_at(pinger), 3);
    }

    #[test]
    fn chaos_drop_rule_kills_all_messages_and_counts_them() {
        let mut sim = Sim::new(instant_config(13));
        let echo = sim.add_node(Echo { service_us: 1, handled: 0 }, NodeConfig::default());
        let relay = sim.add_node(Relay { target: echo }, NodeConfig::default());
        let metrics = FaultMetrics::default();
        sim.set_fault_metrics(metrics.clone());
        sim.schedule_chaos(
            SimTime(0),
            relay,
            echo,
            LinkFaultRule { p_drop: 1.0, ..LinkFaultRule::none() },
        );
        sim.start();
        for i in 0..10 {
            sim.inject(SimTime(10 + i), relay, i);
        }
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.process::<Echo>(echo).unwrap().handled, 0);
        assert_eq!(metrics.msg_dropped.get(), 10);

        // Clearing the rule restores delivery.
        sim.schedule_chaos_clear(sim.now(), relay, echo);
        sim.inject(sim.now() + 1_000, relay, 42);
        sim.run_until(sim.now() + 1_000_000);
        assert_eq!(sim.process::<Echo>(echo).unwrap().handled, 1);
    }

    #[test]
    fn chaos_duplication_delivers_twice() {
        let mut sim = Sim::new(instant_config(14));
        let echo = sim.add_node(Echo { service_us: 1, handled: 0 }, NodeConfig::default());
        let relay = sim.add_node(Relay { target: echo }, NodeConfig::default());
        let metrics = FaultMetrics::default();
        sim.set_fault_metrics(metrics.clone());
        // Both directions duplicate: the relay ignores the echo's replies.
        sim.schedule_chaos(
            SimTime(0),
            relay,
            echo,
            LinkFaultRule { p_dup: 1.0, ..LinkFaultRule::none() },
        );
        sim.start();
        for i in 0..4 {
            sim.inject(SimTime(10 + i), relay, i);
        }
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.process::<Echo>(echo).unwrap().handled, 8);
        // Four requests and the echo's eight replies, each sent twice.
        assert_eq!(metrics.msg_duplicated.get(), 12);
    }

    #[test]
    fn chaos_delay_defers_delivery_and_determinism_holds() {
        let run = |seed| {
            let mut sim = Sim::new(instant_config(seed));
            let echo = sim.add_node(Echo { service_us: 1, handled: 0 }, NodeConfig::default());
            sim.add_node(Pinger { target: echo, count: 5, replies: 0 }, NodeConfig::default());
            sim.schedule_chaos(
                SimTime(0),
                NodeId(0),
                NodeId(1),
                LinkFaultRule {
                    p_delay: 1.0,
                    delay_range_us: (50_000, 100_000),
                    ..LinkFaultRule::none()
                },
            );
            sim.start();
            sim.run_until(SimTime::from_secs(2));
            sim.trace().values("reply_at_us")
        };
        let a = run(21);
        assert!(a.iter().all(|&t| t >= 50_000.0), "delays not applied: {a:?}");
        assert_eq!(a, run(21), "chaos runs must be deterministic per seed");
    }

    #[test]
    fn schedule_script_drives_partition_and_heal() {
        let text = "\
# cut the pinger off, then heal everything
0 partition 0|1
500000 heal-all
";
        let schedule = FaultSchedule::parse(text).expect("parse");
        let mut sim = Sim::new(instant_config(15));
        let echo = sim.add_node(Echo { service_us: 1, handled: 0 }, NodeConfig::default());
        let pinger =
            sim.add_node(Pinger { target: echo, count: 2, replies: 0 }, NodeConfig::default());
        let metrics = FaultMetrics::default();
        sim.set_fault_metrics(metrics.clone());
        sim.apply_schedule(&schedule);
        sim.start();
        sim.run_until(SimTime(400_000));
        assert_eq!(sim.process::<Echo>(echo).unwrap().handled, 0);
        sim.run_until(SimTime(600_000));
        sim.inject(sim.now() + 1, echo, 5);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.process::<Echo>(echo).unwrap().handled, 1);
        assert_eq!(metrics.partition_cuts.get(), 1);
        assert_eq!(metrics.partition_heals.get(), 1);
        assert!(metrics.partition_dropped.get() >= 2);
        let _ = pinger;
    }

    #[test]
    fn schedule_crash_and_restart_counts_fault_metrics() {
        let schedule = FaultSchedule::new()
            .at(10, FaultEvent::Crash { node: NodeId(0), down_for_us: None })
            .at(500, FaultEvent::Restart { node: NodeId(0) });
        let mut sim = Sim::new(instant_config(16));
        let echo = sim.add_node(Echo { service_us: 1, handled: 0 }, NodeConfig::default());
        let metrics = FaultMetrics::default();
        sim.set_fault_metrics(metrics.clone());
        sim.apply_schedule(&schedule);
        sim.start();
        sim.run_until(SimTime(100));
        assert!(!sim.is_up(echo));
        sim.run_until(SimTime(1_000));
        assert!(sim.is_up(echo));
        assert_eq!(metrics.crashes.get(), 1);
        assert_eq!(metrics.restarts.get(), 1);
    }
}
