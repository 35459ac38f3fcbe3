//! Threaded real-time runtime.
//!
//! Drives the same [`Process`] state machines as the simulator, but with
//! real time: one OS thread, the *host loop*, runs every process the
//! builder was given, with a crossbeam channel as its inbox and
//! `recv_timeout` as its timer wheel. `mystore-serverd` runs one loop per
//! host; examples and integration tests use it too. Fault injection, the
//! bandwidth model and the event trace are simulator-only;
//! [`Context::consume`](crate::process::Context::consume) charges nothing
//! (the real work already took real time), and
//! [`Context::record`](crate::process::Context::record) keeps nothing (the
//! live numbers are the registry's).
//!
//! # Routing
//!
//! A send to a hosted id goes on the loop's local FIFO: no channel and no
//! wake-up; one to a hosted process that has stopped is dropped. A send to
//! any other id (an external client, [`NodeId::EXTERNAL`], or a peer
//! hosted elsewhere) goes to the cluster's [`Route`], called as
//! `route(from, to, msg)` on the loop's thread. A production gateway
//! installs one with [`ThreadedClusterBuilder::route_external`] that puts
//! the frame straight on a peer host's writer queue or a client
//! connection's reply queue. A route must not block: it runs in the loop,
//! between one handler and the next.
//!
//! Without a route, the route is the sender of the *external stream*, and
//! a harness consumes the `(from, to, msg)` triples with
//! [`ThreadedCluster::recv_timeout`] or
//! [`ThreadedCluster::recv_routed_timeout`].
//!
//! # Batches
//!
//! The loop takes its work in batches: what was queued when the batch
//! began, that is the local FIFO, the inbox envelopes and the due timers.
//! A send made during a batch, even to a co-located process or to the
//! sender itself, goes to the next batch. The loop blocks on its inbox only
//! when the FIFO is empty and no timer is due. Once the batch's handlers
//! have run, the loop calls [`Process::on_batch_end`] once for each process
//! that handled an input in it, in id order, as the simulator does per
//! node. A sync a handler starts runs on its process's syncer thread
//! (`syncer.rs`) meanwhile; if the batch sent messages, the syncer lets
//! their delivery go first.
//!
//! # Shutdown
//!
//! [`ThreadedCluster::stop_node`] stops one process and
//! [`ThreadedCluster::shutdown`] all of them, promptly;
//! [`ThreadedCluster::shutdown_graceful`] first *drains*: the loop keeps
//! processing messages and timers until every live process reports
//! [`Process::quiescent`] (in-flight quorum ops finished) or the grace
//! deadline passes. Each path runs the process's [`Process::on_shutdown`]
//! before removing it — that is where a storage node issues its final WAL
//! fsync — while an [`Action::CrashSelf`] removes only its own process and
//! deliberately skips it (a crash must not get an orderly goodbye).
//! Removing a process stops its syncer thread once the jobs it has queued
//! (such as that final fsync) are done, without waiting for them; the loop
//! exits when its last process is gone, after joining every syncer.

#![allow(
    clippy::disallowed_methods,
    reason = "this runtime exists to drive real OS time; the determinism contract applies to the sim runtime only"
)]

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::process::{Action, Context, NodeId, Process, TimerToken};
use crate::rng::Rng;
use crate::syncer::Syncs;
use crate::time::SimTime;

/// Why a receive on the external stream returned no message.
///
/// The distinction matters: a [`RecvError::Timeout`] means "nothing arrived
/// yet — maybe wait longer", while [`RecvError::Disconnected`] means the
/// host loop has exited and nothing will *ever* arrive. Callers that
/// conflate the two retry forever against a dead cluster or, worse, report
/// a misleading "timed out" after a node crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No message arrived within the timeout; the cluster is still running.
    Timeout,
    /// The host loop has exited, its last process gone (or the cluster was
    /// built with a [`Route`] of its own, so it has no external stream); no
    /// further message can arrive on this handle.
    Disconnected,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Timeout => write!(f, "timed out waiting for a cluster message"),
            RecvError::Disconnected => write!(f, "cluster is down: every process stopped"),
        }
    }
}

/// An inbox item, tagged with the hosted process it is for.
enum Envelope<M> {
    /// `(from, to, msg)`: a message for hosted process `to`.
    Msg(NodeId, NodeId, M),
    /// The process's syncer finished a job: did it succeed?
    SyncDone(NodeId, bool),
    /// Stop the process promptly (still runs [`Process::on_shutdown`]).
    Stop(NodeId),
    /// Keep serving until every process is quiescent or the deadline
    /// passes, then shut them all down.
    Drain(Instant),
}

/// Where the loop's sends to ids it does not host go, as
/// `route(from, to, msg)`, called on the loop's thread (see the module
/// docs, "Routing").
pub type Route<M> = Arc<dyn Fn(NodeId, NodeId, M) + Send + Sync>;

/// Builds a [`ThreadedCluster`].
pub struct ThreadedClusterBuilder<M: Send + 'static> {
    processes: Vec<(NodeId, Box<dyn Process<M> + Send>)>,
    route: Option<Route<M>>,
}

impl<M: Send + 'static> Default for ThreadedClusterBuilder<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Send + 'static> ThreadedClusterBuilder<M> {
    /// Creates a builder.
    pub fn new() -> Self {
        ThreadedClusterBuilder { processes: Vec::new(), route: None }
    }

    /// Sends every message addressed to an id the cluster does not host to
    /// `route`, on the loop's thread, instead of to the external stream;
    /// the cluster then has no external stream, and
    /// [`ThreadedCluster::recv_timeout`] reports [`RecvError::Disconnected`].
    pub fn route_external(mut self, route: Route<M>) -> Self {
        self.route = Some(route);
        self
    }

    /// Adds a node; ids are assigned in insertion order starting at 0.
    pub fn add_node(self, process: impl Process<M> + Send + 'static) -> Self {
        let id = NodeId(self.processes.len() as u32);
        self.add_node_as(id, process)
    }

    /// Adds a node under an explicit id. A multi-process deployment hosts
    /// only a slice of the cluster locally, so hosted ids must be the
    /// node's *cluster* id, not its insertion index.
    pub fn add_node_as(mut self, id: NodeId, process: impl Process<M> + Send + 'static) -> Self {
        assert!(
            !self.processes.iter().any(|(existing, _)| *existing == id),
            "duplicate node id {id}"
        );
        self.processes.push((id, Box::new(process)));
        self
    }

    /// Spawns the host loop, named after the lowest hosted id, and returns
    /// the running cluster.
    pub fn build(self) -> ThreadedCluster<M> {
        let (route, external_rx) = match self.route {
            Some(route) => (route, None),
            None => {
                let (tx, rx) = unbounded::<(NodeId, NodeId, M)>();
                let route: Route<M> = Arc::new(move |from, to, msg| {
                    let _ = tx.send((from, to, msg));
                });
                (route, Some(rx))
            }
        };
        let start = Instant::now();
        let anchor_us = SystemTime::now()
            .duration_since(UNIX_EPOCH + Duration::from_secs(CLOCK_EPOCH_UNIX_S))
            .map_or(0, |d| d.as_micros() as u64);
        // Each process forks its RNG from seed 0, in insertion order.
        let mut seed_rng = Rng::new(0);
        let hosted: Arc<BTreeSet<NodeId>> =
            Arc::new(self.processes.iter().map(|(id, _)| *id).collect());
        let procs = self
            .processes
            .into_iter()
            .map(|(id, process)| {
                let rng = seed_rng.fork();
                (id, Hosted { process, rng, syncs: Syncs::default(), sent: false })
            })
            .collect();
        let (inbox, rx) = unbounded();
        let host = HostLoop {
            procs,
            hosted: Arc::clone(&hosted),
            rx,
            inbox: inbox.clone(),
            local: VecDeque::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            batch: Vec::new(),
            actions: Vec::new(),
            drain_deadline: None,
            route,
            start,
            anchor_us,
            stopped: Vec::new(),
        };
        let handle = std::thread::Builder::new()
            .name(format!("mystore-node-{}", hosted.first().map_or(0, |id| id.0)))
            .spawn(move || host.run_loop())
            .expect("spawn host loop thread");
        ThreadedCluster { injector: Injector { inbox, hosted }, handle, external_rx, start }
    }
}

/// A running cluster: one host loop driving every hosted process.
pub struct ThreadedCluster<M: Send + 'static> {
    injector: Injector<M>,
    handle: JoinHandle<()>,
    external_rx: Option<Receiver<(NodeId, NodeId, M)>>,
    start: Instant,
}

impl<M: Send + 'static> ThreadedCluster<M> {
    /// Number of nodes hosted here.
    pub fn len(&self) -> usize {
        self.injector.hosted.len()
    }

    /// True if the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.injector.hosted.is_empty()
    }

    /// Ids of the locally hosted nodes.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.injector.hosted.iter().copied().collect()
    }

    /// Sends `msg` to `to` as [`NodeId::EXTERNAL`] (e.g. a test harness or a
    /// CLI acting as the client).
    pub fn send(&self, to: NodeId, msg: M) {
        self.send_from(NodeId::EXTERNAL, to, msg);
    }

    /// Sends `msg` to local node `to` with an explicit sender identity.
    /// Gateways use this to inject traffic on behalf of remote peers and
    /// external client connections; replies addressed to `from` then go to
    /// the cluster's [`Route`].
    pub fn send_from(&self, from: NodeId, to: NodeId, msg: M) {
        self.injector.send_from(from, to, msg);
    }

    /// Receives the next externally addressed message, with a timeout.
    /// Returns `(sender, message)`; the destination id is dropped (a plain
    /// harness only ever addresses [`NodeId::EXTERNAL`]). Use
    /// [`ThreadedCluster::recv_routed_timeout`] to keep the destination.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<(NodeId, M), RecvError> {
        self.recv_routed_timeout(timeout).map(|(from, _to, msg)| (from, msg))
    }

    /// Receives the next externally addressed message as a full
    /// `(from, to, message)` triple, with a timeout.
    pub fn recv_routed_timeout(&self, timeout: Duration) -> Result<(NodeId, NodeId, M), RecvError> {
        let Some(rx) = &self.external_rx else {
            return Err(RecvError::Disconnected);
        };
        rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => RecvError::Timeout,
            RecvTimeoutError::Disconnected => RecvError::Disconnected,
        })
    }

    /// A cheap clonable handle for injecting messages into the running
    /// cluster from other threads (a gateway's per-connection readers).
    /// Holding an injector does not keep the cluster alive: sends to
    /// stopped nodes are dropped, like sends to unknown ids.
    pub fn injector(&self) -> Injector<M> {
        self.injector.clone()
    }

    /// Elapsed run time as a [`SimTime`] (µs since cluster start).
    pub fn elapsed(&self) -> SimTime {
        SimTime(self.start.elapsed().as_micros() as u64)
    }

    /// Stops a single node (prompt stop, after which the node is gone until
    /// the whole cluster is rebuilt). Used by tests and drills that kill a
    /// node mid-run; the rest of the cluster keeps serving.
    pub fn stop_node(&self, id: NodeId) {
        let _ = self.injector.inbox.send(Envelope::Stop(id));
    }

    /// Stops every node promptly and joins the loop. Each process still
    /// gets its [`Process::on_shutdown`] call (final WAL sync), but
    /// in-flight operations are abandoned; use
    /// [`ThreadedCluster::shutdown_graceful`] to drain them first.
    pub fn shutdown(self) {
        for &id in self.injector.hosted.iter() {
            self.stop_node(id);
        }
        let _ = self.handle.join();
    }

    /// Drains and stops: the loop keeps serving messages and timers until
    /// every process reports [`Process::quiescent`] (or `grace` expires),
    /// runs each [`Process::on_shutdown`], and exits; then it is joined.
    /// Callers should stop injecting new external work first.
    pub fn shutdown_graceful(self, grace: Duration) {
        let _ = self.injector.inbox.send(Envelope::Drain(Instant::now() + grace));
        let _ = self.handle.join();
    }
}

/// Clonable ingress handle into a [`ThreadedCluster`]; see
/// [`ThreadedCluster::injector`].
pub struct Injector<M: Send + 'static> {
    inbox: Sender<Envelope<M>>,
    hosted: Arc<BTreeSet<NodeId>>,
}

impl<M: Send + 'static> Clone for Injector<M> {
    fn clone(&self) -> Self {
        Injector { inbox: self.inbox.clone(), hosted: Arc::clone(&self.hosted) }
    }
}

impl<M: Send + 'static> Injector<M> {
    /// Delivers `msg` to local node `to` as coming from `from`; a message
    /// for an id the cluster does not host, or for a stopped node, is
    /// dropped.
    pub fn send_from(&self, from: NodeId, to: NodeId, msg: M) {
        if self.hosted.contains(&to) {
            let _ = self.inbox.send(Envelope::Msg(from, to, msg));
        }
    }
}

/// [`Context::now`] on this runtime counts µs from 2025-01-01T00:00:00Z,
/// this many Unix seconds: the wall clock read once at build plus the
/// monotonic time since, so versions compare across boots and hosts (to
/// clock-sync accuracy). `pack_version`'s 48 bits of µs last until late
/// 2033. A wall clock before the epoch reads as the epoch.
const CLOCK_EPOCH_UNIX_S: u64 = 1_735_689_600;

/// The timer heap: `Reverse((deadline, seq, node, token))` for a min-heap.
/// The monotonic `seq`, shared by every hosted process, breaks
/// equal-deadline ties in insertion order, matching the simulator's FIFO
/// firing for same-instant timers — without it, `BinaryHeap` would order
/// equal-instant timers by node and token, a schedule the deterministic
/// oracle can never produce.
type TimerHeap = BinaryHeap<Reverse<(Instant, u64, NodeId, TimerToken)>>;

/// What the loop keeps for one hosted process.
struct Hosted<M> {
    process: Box<dyn Process<M> + Send>,
    rng: Rng,
    syncs: Syncs,
    /// Whether the open batch has sent a message (a sync it starts lets
    /// those go first, `syncer.rs`).
    sent: bool,
}

struct HostLoop<M: Send + 'static> {
    /// The live processes; a stopped or crashed one is removed.
    procs: BTreeMap<NodeId, Hosted<M>>,
    /// Every id the builder was given, live or not.
    hosted: Arc<BTreeSet<NodeId>>,
    rx: Receiver<Envelope<M>>,
    /// The inbox's own sender, which each syncer thread clones.
    inbox: Sender<Envelope<M>>,
    /// Sends between hosted processes, as `(from, to, msg)`.
    local: VecDeque<(NodeId, NodeId, M)>,
    timers: TimerHeap,
    timer_seq: u64,
    /// The processes that handled an input in the open batch.
    batch: Vec<NodeId>,
    actions: Vec<Action<M>>,
    /// Set once a `Drain` envelope arrives.
    drain_deadline: Option<Instant>,
    route: Route<M>,
    start: Instant,
    /// Wall-clock µs since [`CLOCK_EPOCH_UNIX_S`] at `start`.
    anchor_us: u64,
    /// The syncer threads of removed processes, joined on exit.
    stopped: Vec<JoinHandle<()>>,
}

enum Input<M> {
    Start,
    Msg { from: NodeId, msg: M },
    Timer(TimerToken),
    SyncDone(bool),
    BatchEnd,
    Shutdown,
}

impl<M: Send + 'static> HostLoop<M> {
    /// Runs one handler of process `id`, if it is live, and carries out its
    /// actions.
    fn run(&mut self, id: NodeId, input: Input<M>) {
        let Some(p) = self.procs.get_mut(&id) else { return };
        if matches!(input, Input::Msg { .. } | Input::Timer(_) | Input::SyncDone(_)) {
            self.batch.push(id);
        }
        let ends_batch = matches!(input, Input::BatchEnd);
        let now = SimTime(self.anchor_us + self.start.elapsed().as_micros() as u64);
        {
            let mut ctx = Context::new(now, id, &mut self.actions, &mut p.rng, None);
            match input {
                Input::Start => p.process.on_start(&mut ctx),
                Input::Msg { from, msg } => p.process.on_message(&mut ctx, from, msg),
                Input::Timer(token) => p.process.on_timer(&mut ctx, token),
                Input::SyncDone(ok) => p.process.on_sync_done(&mut ctx, ok),
                Input::BatchEnd => p.process.on_batch_end(&mut ctx),
                Input::Shutdown => p.process.on_shutdown(&mut ctx),
            }
        }
        // All timers armed by one handler share a base taken after it ran:
        // equal delays get equal deadlines (resolved by seq), and no timer
        // fires before its handler's `now` plus its delay.
        let timer_base = Instant::now();
        let mut crashed = false;
        for action in self.actions.drain(..) {
            match action {
                Action::Send { to, msg } => {
                    p.sent = true;
                    if self.hosted.contains(&to) {
                        self.local.push_back((id, to, msg));
                    } else {
                        (self.route)(id, to, msg);
                    }
                }
                Action::SetTimer { delay_us, token } => {
                    self.timer_seq += 1;
                    let at = timer_base + Duration::from_micros(delay_us);
                    self.timers.push(Reverse((at, self.timer_seq, id, token)));
                }
                // Records are the simulator's; see the module docs.
                Action::Record { .. } => {}
                // A crash removes the process; scripted recovery is a
                // simulator feature.
                Action::CrashSelf { .. } => crashed = true,
                Action::Sync { job } => {
                    let done = move |ok| Envelope::SyncDone(id, ok);
                    p.syncs.start(job, p.sent, id, &self.inbox, done);
                }
            }
        }
        if ends_batch {
            p.sent = false;
        }
        if crashed {
            self.remove(id, true);
        }
    }

    /// Removes process `id`, after its `on_shutdown` unless it crashed,
    /// and stops its syncer thread once the jobs queued are done; the loop
    /// joins it on exit, so the other processes keep serving meanwhile.
    fn remove(&mut self, id: NodeId, crashed: bool) {
        if !crashed {
            self.run(id, Input::Shutdown);
        }
        let syncer = self.procs.remove(&id).and_then(|p| p.syncs.stop());
        self.stopped.extend(syncer);
    }

    fn envelope(&mut self, env: Envelope<M>) {
        match env {
            Envelope::Msg(from, to, msg) => self.run(to, Input::Msg { from, msg }),
            Envelope::SyncDone(node, ok) => {
                if let Some(p) = self.procs.get_mut(&node) {
                    p.syncs.arrived();
                }
                self.run(node, Input::SyncDone(ok));
            }
            Envelope::Stop(id) => self.remove(id, false),
            // `shutdown_graceful` consumes the cluster: one drain at most.
            Envelope::Drain(deadline) => self.drain_deadline = Some(deadline),
        }
    }

    /// Runs `on_batch_end` once for each process that handled an input in
    /// the batch, in id order.
    fn end_batch(&mut self) {
        let mut ids = std::mem::take(&mut self.batch);
        ids.sort_unstable();
        ids.dedup();
        ids.drain(..).for_each(|id| self.run(id, Input::BatchEnd));
        self.batch = ids;
    }

    /// True when a drain is pending and every live process has nothing in
    /// flight, or the drain's deadline has passed.
    fn drained(&self) -> bool {
        self.drain_deadline.is_some_and(|d| {
            Instant::now() >= d || self.procs.values().all(|p| p.process.quiescent())
        })
    }

    /// Pops the earliest timer due at `now`, if any.
    fn pop_due(&mut self, now: Instant) -> Option<(NodeId, TimerToken)> {
        let Reverse((at, ..)) = self.timers.peek()?;
        if *at > now {
            return None;
        }
        self.timers.pop().map(|Reverse((_, _, id, token))| (id, token))
    }

    /// How long to block for the next envelope: until the next timer (or
    /// 100 ms with none armed), and while draining at most 10 ms and never
    /// past the drain deadline, so quiescence is noticed promptly even when
    /// the processes go idle with long-period timers armed.
    fn wait_timeout(&self, now: Instant) -> Duration {
        let next = self.timers.peek().map_or(Duration::from_millis(100), |Reverse((at, ..))| {
            at.saturating_duration_since(now)
        });
        self.drain_deadline.map_or(next, |d| {
            next.min(d.saturating_duration_since(now)).min(Duration::from_millis(10))
        })
    }

    /// The host loop; returns when its last process is gone.
    fn run_loop(mut self) {
        let hosted = Arc::clone(&self.hosted);
        for &id in hosted.iter() {
            self.run(id, Input::Start);
        }
        loop {
            // Syncs with nothing to run complete, each as a batch of its
            // own, before the next batch.
            while let Some(id) =
                self.procs.iter_mut().find_map(|(id, p)| p.syncs.take_inline().then_some(*id))
            {
                self.run(id, Input::SyncDone(true));
                self.end_batch();
            }
            if self.drained() {
                for id in self.procs.keys().copied().collect::<Vec<_>>() {
                    self.remove(id, false);
                }
            }
            if self.procs.is_empty() {
                // A panic inside a sync job is re-raised here, once every
                // process is gone.
                for syncer in self.stopped.drain(..) {
                    syncer.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                }
                return;
            }
            // Block until there is work: a local send, a due timer or an
            // envelope. The loop holds an inbox sender itself, so the
            // inbox never disconnects.
            let now = Instant::now();
            let idle = self.timers.peek().is_none_or(|Reverse((at, ..))| *at > now);
            let first = if self.local.is_empty() && idle {
                match self.rx.recv_timeout(self.wait_timeout(now)) {
                    Ok(env) => Some(env),
                    Err(_) => continue,
                }
            } else {
                None
            };
            // The batch is the work queued now; sizing it up front bounds it.
            let (now, local, queued) = (Instant::now(), self.local.len(), self.rx.len());
            if let Some(env) = first {
                self.envelope(env);
            }
            while let Some((id, token)) = self.pop_due(now) {
                self.run(id, Input::Timer(token));
            }
            for _ in 0..local {
                let Some((from, to, msg)) = self.local.pop_front() else { break };
                self.run(to, Input::Msg { from, msg });
            }
            for _ in 0..queued {
                let Ok(env) = self.rx.try_recv() else { break };
                self.envelope(env);
            }
            self.end_batch();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl Process<u64> for Echo {
        fn on_start(&mut self, _ctx: &mut Context<'_, u64>) {}
        fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: NodeId, msg: u64) {
            ctx.send(from, msg + 1);
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, u64>, _t: TimerToken) {}
    }

    struct Forwarder {
        next: NodeId,
    }
    impl Process<u64> for Forwarder {
        fn on_start(&mut self, _ctx: &mut Context<'_, u64>) {}
        fn on_message(&mut self, ctx: &mut Context<'_, u64>, _from: NodeId, msg: u64) {
            ctx.send(self.next, msg * 2);
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, u64>, _t: TimerToken) {}
    }

    /// Re-arms its timer until it has ticked three times, reporting (and
    /// recording, which this runtime drops) every tick.
    struct Ticker {
        period_us: u64,
        ticks: u64,
        report_to: NodeId,
    }
    impl Process<u64> for Ticker {
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            ctx.set_timer(self.period_us, 1);
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, u64>, _f: NodeId, _m: u64) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, u64>, _t: TimerToken) {
            self.ticks += 1;
            ctx.record("tick", self.ticks as f64);
            ctx.send(self.report_to, self.ticks);
            if self.ticks < 3 {
                ctx.set_timer(self.period_us, 1);
            }
        }
    }

    #[test]
    fn external_round_trip() {
        let cluster = ThreadedClusterBuilder::new().add_node(Echo).build();
        cluster.send(NodeId(0), 41);
        let (from, reply) = cluster.recv_timeout(Duration::from_secs(2)).expect("reply");
        assert_eq!(from, NodeId(0));
        assert_eq!(reply, 42);
        cluster.shutdown();
    }

    #[test]
    fn inter_node_forwarding_reaches_external() {
        // chain 0 -> 1 -> EXTERNAL via a forwarder pointing at EXTERNAL.
        let cluster = ThreadedClusterBuilder::new()
            .add_node(Forwarder { next: NodeId(1) })
            .add_node(Forwarder { next: NodeId::EXTERNAL })
            .build();
        cluster.send(NodeId(0), 3);
        let (from, v) = cluster.recv_timeout(Duration::from_secs(2)).expect("msg");
        assert_eq!(from, NodeId(1));
        assert_eq!(v, 12);
        cluster.shutdown();
    }

    #[test]
    fn timers_fire_and_rearm() {
        let cluster = ThreadedClusterBuilder::new()
            .add_node(Ticker { period_us: 2_000, ticks: 0, report_to: NodeId::EXTERNAL })
            .build();
        let mut ticks = Vec::new();
        while let Ok((_, tick)) = cluster.recv_timeout(Duration::from_millis(300)) {
            ticks.push(tick);
        }
        assert_eq!(ticks, vec![1, 2, 3]);
        cluster.shutdown();
    }

    /// Arms several timers with the *same* deadline in one handler and
    /// reports the token firing order. Regression test for the heap
    /// tie-break: tokens are deliberately not in sorted order, so a heap
    /// keyed only on `(Instant, TimerToken)` would fire them token-sorted
    /// ([2, 5, 9]) instead of insertion-ordered ([5, 9, 2]) — the sim fires
    /// same-instant timers FIFO, and the threaded runtime must match.
    struct SameInstant {
        fired: Vec<TimerToken>,
        report_to: NodeId,
    }
    impl Process<u64> for SameInstant {
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            ctx.set_timer(1_000, 5);
            ctx.set_timer(1_000, 9);
            ctx.set_timer(1_000, 2);
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, u64>, _f: NodeId, _m: u64) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, u64>, t: TimerToken) {
            self.fired.push(t);
            if self.fired.len() == 3 {
                // Encode the order as a single digit sequence.
                let code = self.fired.iter().fold(0u64, |acc, t| acc * 10 + t);
                ctx.send(self.report_to, code);
            }
        }
    }

    #[test]
    fn equal_deadline_timers_fire_in_insertion_order() {
        let cluster = ThreadedClusterBuilder::new()
            .add_node(SameInstant { fired: Vec::new(), report_to: NodeId::EXTERNAL })
            .build();
        let (_, code) = cluster.recv_timeout(Duration::from_secs(5)).expect("order report");
        assert_eq!(code, 592, "same-instant timers must fire in insertion order (5, 9, 2)");
        cluster.shutdown();
    }

    struct CrashOnMsg;
    impl Process<u64> for CrashOnMsg {
        fn on_start(&mut self, _ctx: &mut Context<'_, u64>) {}
        fn on_message(&mut self, ctx: &mut Context<'_, u64>, _f: NodeId, _m: u64) {
            ctx.crash_self(None);
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, u64>, _t: TimerToken) {}
        fn on_shutdown(&mut self, ctx: &mut Context<'_, u64>) {
            // Must NOT run on a crash exit.
            ctx.send(NodeId::EXTERNAL, 666);
        }
    }

    #[test]
    fn dead_cluster_reports_disconnected_not_timeout() {
        let cluster = ThreadedClusterBuilder::new().add_node(CrashOnMsg).build();
        cluster.send(NodeId(0), 1);
        // The only process crashes, so the loop exits; once its route drops
        // the receive side must say Disconnected, not Timeout — and the
        // crash path must not have emitted the on_shutdown farewell.
        let err = cluster.recv_timeout(Duration::from_secs(5)).expect_err("no reply expected");
        assert_eq!(err, RecvError::Disconnected);
        cluster.shutdown();
    }

    /// Counts messages; quiescent only when `pending == 0`. on_shutdown
    /// reports how many messages it had processed when it ran.
    struct DrainProbe {
        pending: u64,
        processed: u64,
    }
    impl Process<u64> for DrainProbe {
        fn on_start(&mut self, _ctx: &mut Context<'_, u64>) {}
        fn on_message(&mut self, ctx: &mut Context<'_, u64>, _f: NodeId, msg: u64) {
            self.processed += 1;
            if msg == 0 {
                // "work arrived": drain it via a timer chain.
                self.pending += 1;
                ctx.set_timer(5_000, 1);
            }
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, u64>, _t: TimerToken) {
            self.pending -= 1;
        }
        fn quiescent(&self) -> bool {
            self.pending == 0
        }
        fn on_shutdown(&mut self, ctx: &mut Context<'_, u64>) {
            ctx.send(NodeId::EXTERNAL, self.processed);
        }
    }

    #[test]
    fn graceful_shutdown_waits_for_quiescence_and_runs_on_shutdown() {
        // shutdown_graceful consumes the cluster, so the farewell goes to a
        // route that outlives it.
        let (tx, farewells) = unbounded();
        let route: Route<u64> = Arc::new(move |from, to, msg| {
            let _ = tx.send((from, to, msg));
        });
        let cluster = ThreadedClusterBuilder::new()
            .add_node(DrainProbe { pending: 0, processed: 0 })
            .route_external(route)
            .build();
        for _ in 0..3 {
            cluster.send(NodeId(0), 0);
        }
        // Allow the messages to land, then drain. The in-flight "work"
        // (timers 5 ms out) must complete before on_shutdown runs.
        std::thread::sleep(Duration::from_millis(20));
        cluster.shutdown_graceful(Duration::from_secs(5));
        let (from, to, farewell) = farewells.try_recv().expect("farewell");
        assert_eq!((from, to), (NodeId(0), NodeId::EXTERNAL));
        assert_eq!(farewell, 3, "on_shutdown must run after all 3 messages were processed");
    }

    #[test]
    fn a_send_with_no_local_mailbox_is_routed_on_the_senders_thread() {
        let (tx, routed) = unbounded();
        let route: Route<u64> = Arc::new(move |from, to, msg| {
            let thread = std::thread::current().name().map(str::to_string);
            let _ = tx.send((from, to, msg, thread));
        });
        let cluster = ThreadedClusterBuilder::new()
            .add_node_as(NodeId(3), Forwarder { next: NodeId(12) })
            .route_external(route)
            .build();
        cluster.send(NodeId(3), 5);
        let got = routed.recv_timeout(Duration::from_secs(2)).expect("routed");
        assert_eq!(got, (NodeId(3), NodeId(12), 10, Some("mystore-node-3".to_string())));
        assert_eq!(
            cluster.recv_timeout(Duration::from_millis(20)),
            Err(RecvError::Disconnected),
            "a routed cluster has no external stream"
        );
        cluster.shutdown();
    }

    #[test]
    fn stop_node_stops_one_process_and_the_rest_serve() {
        let cluster = ThreadedClusterBuilder::new().add_node(Echo).add_node(Echo).build();
        cluster.stop_node(NodeId(0));
        std::thread::sleep(Duration::from_millis(20));
        cluster.send(NodeId(0), 7); // dead node: no reply
        cluster.send(NodeId(1), 10);
        let (from, reply) = cluster.recv_timeout(Duration::from_secs(2)).expect("live reply");
        assert_eq!(from, NodeId(1));
        assert_eq!(reply, 11);
        assert_eq!(
            cluster.recv_timeout(Duration::from_millis(100)),
            Err(RecvError::Timeout),
            "dead node must not answer"
        );
        cluster.shutdown();
    }

    #[test]
    fn explicit_node_ids_route_by_cluster_id() {
        // A host carrying only nodes 3 and 7 (a multi-process slice): local
        // delivery by cluster id, everything else to the external stream.
        let cluster = ThreadedClusterBuilder::new()
            .add_node_as(NodeId(3), Forwarder { next: NodeId(7) })
            .add_node_as(NodeId(7), Forwarder { next: NodeId(12) })
            .build();
        assert_eq!(cluster.node_ids(), vec![NodeId(3), NodeId(7)]);
        cluster.send(NodeId(3), 5);
        // 3 doubles to 7 (local), 7 doubles to 12 (remote -> external).
        let (from, to, v) = cluster.recv_routed_timeout(Duration::from_secs(2)).expect("routed");
        assert_eq!((from, to, v), (NodeId(7), NodeId(12), 20));
        cluster.shutdown();
    }

    /// A route that forwards every routed send into a channel.
    fn capture() -> (Route<u64>, Receiver<(NodeId, NodeId, u64)>) {
        let (tx, routed) = unbounded();
        let route: Route<u64> = Arc::new(move |from, to, msg| {
            let _ = tx.send((from, to, msg));
        });
        (route, routed)
    }

    /// Passes a counter back to its peer until it reaches `until`, then
    /// reports it to EXTERNAL.
    struct Volley {
        peer: NodeId,
        until: u64,
    }
    impl Process<u64> for Volley {
        fn on_start(&mut self, _ctx: &mut Context<'_, u64>) {}
        fn on_message(&mut self, ctx: &mut Context<'_, u64>, _from: NodeId, n: u64) {
            let to = if n >= self.until { NodeId::EXTERNAL } else { self.peer };
            ctx.send(to, n + 1);
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, u64>, _t: TimerToken) {}
    }

    #[test]
    fn co_located_processes_exchange_messages_without_the_route() {
        let (route, routed) = capture();
        let cluster = ThreadedClusterBuilder::new()
            .add_node_as(NodeId(1), Volley { peer: NodeId(2), until: 100 })
            .add_node_as(NodeId(2), Volley { peer: NodeId(1), until: 100 })
            .route_external(route)
            .build();
        cluster.send(NodeId(1), 0);
        let got = routed.recv_timeout(Duration::from_secs(2)).expect("the final count");
        assert_eq!(got, (NodeId(1), NodeId::EXTERNAL, 101));
        assert!(routed.recv_timeout(Duration::from_millis(50)).is_err(), "the route saw more");
        cluster.shutdown();
    }

    #[test]
    fn crash_self_stops_only_its_own_process() {
        let cluster = ThreadedClusterBuilder::new().add_node(CrashOnMsg).add_node(Echo).build();
        cluster.send(NodeId(0), 1);
        cluster.send(NodeId(1), 10);
        assert_eq!(cluster.recv_timeout(Duration::from_secs(2)), Ok((NodeId(1), 11)));
        assert_eq!(
            cluster.recv_timeout(Duration::from_millis(100)),
            Err(RecvError::Timeout),
            "the crash must run no on_shutdown and stop nothing else"
        );
        cluster.send(NodeId(1), 20);
        assert_eq!(cluster.recv_timeout(Duration::from_secs(2)), Ok((NodeId(1), 21)));
        cluster.shutdown();
    }

    /// Sends every message on to each of `to`, in order.
    struct Fanout {
        to: Vec<NodeId>,
    }
    impl Process<u64> for Fanout {
        fn on_start(&mut self, _ctx: &mut Context<'_, u64>) {}
        fn on_message(&mut self, ctx: &mut Context<'_, u64>, _from: NodeId, msg: u64) {
            for &to in &self.to {
                ctx.send(to, msg);
            }
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, u64>, _t: TimerToken) {}
    }

    #[test]
    fn a_send_to_a_stopped_process_is_dropped_not_routed() {
        let (route, routed) = capture();
        let cluster = ThreadedClusterBuilder::new()
            .add_node_as(NodeId(1), Echo)
            .add_node_as(NodeId(2), Fanout { to: vec![NodeId(1), NodeId::EXTERNAL] })
            .route_external(route)
            .build();
        cluster.stop_node(NodeId(1));
        cluster.send(NodeId(2), 5);
        let got = routed.recv_timeout(Duration::from_secs(2)).expect("the external copy");
        assert_eq!(got, (NodeId(2), NodeId::EXTERNAL, 5));
        assert!(
            routed.recv_timeout(Duration::from_millis(100)).is_err(),
            "a send to the stopped process was routed or delivered"
        );
        cluster.shutdown();
    }

    /// Sends `0` to each of `targets`, in order, when it starts.
    struct Kick {
        targets: Vec<NodeId>,
    }
    impl Process<u64> for Kick {
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            for &to in &self.targets {
                ctx.send(to, 0);
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, u64>, _f: NodeId, _m: u64) {}
        fn on_timer(&mut self, _ctx: &mut Context<'_, u64>, _t: TimerToken) {}
    }

    /// Arms timer `token` 1 ms out on every message and reports it when it
    /// fires.
    struct Alarm {
        token: TimerToken,
    }
    impl Process<u64> for Alarm {
        fn on_start(&mut self, _ctx: &mut Context<'_, u64>) {}
        fn on_message(&mut self, ctx: &mut Context<'_, u64>, _f: NodeId, _m: u64) {
            ctx.set_timer(1_000, self.token);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, u64>, t: TimerToken) {
            ctx.send(NodeId::EXTERNAL, t);
        }
    }

    /// Two processes arm timers with equal deadlines in one batch, the
    /// higher id first: they fire in that order, not in id or token order.
    #[test]
    fn equal_deadline_timers_of_two_processes_fire_in_insertion_order() {
        let cluster = ThreadedClusterBuilder::new()
            .add_node_as(NodeId(1), Kick { targets: vec![NodeId(7), NodeId(3)] })
            .add_node_as(NodeId(3), Alarm { token: 33 })
            .add_node_as(NodeId(7), Alarm { token: 77 })
            .build();
        let mut fired = Vec::new();
        while let Ok((_, token)) = cluster.recv_timeout(Duration::from_millis(300)) {
            fired.push(token);
        }
        assert_eq!(fired, vec![77, 33]);
        cluster.shutdown();
    }

    /// Busy-waits `spin` on every message.
    struct Spin {
        spin: Duration,
    }
    impl Process<u64> for Spin {
        fn on_start(&mut self, _ctx: &mut Context<'_, u64>) {}
        fn on_message(&mut self, _ctx: &mut Context<'_, u64>, _f: NodeId, _m: u64) {
            let until = Instant::now() + self.spin;
            while Instant::now() < until {}
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, u64>, _t: TimerToken) {}
    }

    /// Arms a 1 ms timer on every message, noting `now + 1 ms` as its due
    /// time, and reports `(due, now)` when it fires.
    struct Deadline {
        due_us: u64,
    }
    impl Process<u64> for Deadline {
        fn on_start(&mut self, _ctx: &mut Context<'_, u64>) {}
        fn on_message(&mut self, ctx: &mut Context<'_, u64>, _f: NodeId, _m: u64) {
            self.due_us = ctx.now().0 + 1_000;
            ctx.set_timer(1_000, 1);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, u64>, _t: TimerToken) {
            ctx.send(NodeId::EXTERNAL, self.due_us);
            ctx.send(NodeId::EXTERNAL, ctx.now().0);
        }
    }

    /// A handler that runs late in its batch still never sees its timer
    /// fire before the deadline it computed from its own `now`.
    #[test]
    fn a_timer_armed_late_in_a_batch_never_fires_before_its_handlers_deadline() {
        let cluster = ThreadedClusterBuilder::new()
            .add_node_as(NodeId(0), Kick { targets: vec![NodeId(1), NodeId(2)] })
            .add_node_as(NodeId(1), Spin { spin: Duration::from_millis(2) })
            .add_node_as(NodeId(2), Deadline { due_us: 0 })
            .build();
        let (_, due) = cluster.recv_timeout(Duration::from_secs(2)).expect("the due time");
        let (_, fired) = cluster.recv_timeout(Duration::from_secs(2)).expect("the firing time");
        assert!(fired >= due, "the timer fired at {fired} µs, before its deadline {due} µs");
        cluster.shutdown();
    }

    /// On shutdown, starts a sync that runs until `gate` opens and then
    /// sets `synced`.
    struct SlowGoodbye {
        gate: Option<Receiver<()>>,
        synced: Arc<std::sync::atomic::AtomicBool>,
    }
    impl Process<u64> for SlowGoodbye {
        fn on_start(&mut self, _ctx: &mut Context<'_, u64>) {}
        fn on_message(&mut self, _ctx: &mut Context<'_, u64>, _f: NodeId, _m: u64) {}
        fn on_timer(&mut self, _ctx: &mut Context<'_, u64>, _t: TimerToken) {}
        fn on_shutdown(&mut self, ctx: &mut Context<'_, u64>) {
            let (gate, synced) = (self.gate.take().unwrap(), Arc::clone(&self.synced));
            ctx.start_sync(Some(crate::process::SyncJob::new(move || {
                let _ = gate.recv();
                synced.store(true, std::sync::atomic::Ordering::SeqCst);
                true
            })));
        }
    }

    /// A stopped process's final sync holds up neither its co-hosted
    /// processes nor, once it is done, the cluster's shutdown.
    #[test]
    fn a_stopped_processs_final_sync_stalls_no_other_process() {
        let (open, gate) = unbounded();
        let synced = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let cluster = ThreadedClusterBuilder::new()
            .add_node(SlowGoodbye { gate: Some(gate), synced: Arc::clone(&synced) })
            .add_node(Echo)
            .build();
        cluster.stop_node(NodeId(0));
        cluster.send(NodeId(1), 10);
        assert_eq!(cluster.recv_timeout(Duration::from_secs(2)), Ok((NodeId(1), 11)));
        open.send(()).unwrap();
        cluster.shutdown();
        assert!(synced.load(std::sync::atomic::Ordering::SeqCst), "shutdown returned first");
    }

    /// Counts its messages and reports `id × 1000 + count` at every batch
    /// end.
    struct Tally {
        handled: u64,
    }
    impl Process<u64> for Tally {
        fn on_start(&mut self, _ctx: &mut Context<'_, u64>) {}
        fn on_message(&mut self, _ctx: &mut Context<'_, u64>, _f: NodeId, _m: u64) {
            self.handled += 1;
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, u64>, _t: TimerToken) {}
        fn on_batch_end(&mut self, ctx: &mut Context<'_, u64>) {
            ctx.send(NodeId::EXTERNAL, u64::from(ctx.id().0) * 1000 + self.handled);
            self.handled = 0;
        }
    }

    #[test]
    fn batch_end_runs_once_per_process_that_handled_input_and_never_for_an_idle_one() {
        let cluster = ThreadedClusterBuilder::new()
            .add_node_as(NodeId(1), Kick { targets: vec![NodeId(3), NodeId(2), NodeId(3)] })
            .add_node_as(NodeId(2), Tally { handled: 0 })
            .add_node_as(NodeId(3), Tally { handled: 0 })
            .add_node_as(NodeId(4), Tally { handled: 0 })
            .build();
        let mut ends = Vec::new();
        while let Ok((_, end)) = cluster.recv_timeout(Duration::from_millis(300)) {
            ends.push(end);
        }
        assert_eq!(ends, vec![2001, 3002], "one end each for 2 and 3, in id order; none for 4");
        cluster.shutdown();
    }
}
