//! Threaded real-time runtime.
//!
//! Drives the same [`Process`] state machines as the simulator, but on real
//! OS threads with real time: one thread per node, crossbeam channels as
//! links, `recv_timeout` as the timer wheel. This is the in-process
//! transport of the production runtime (`mystore-serverd` builds its TCP
//! deployment on top of it) as well as the substrate for the examples and
//! integration tests. Fault injection and the bandwidth model are
//! simulator-only; here messages deliver as fast as channels allow, and
//! [`Context::consume`](crate::process::Context::consume) optionally maps to
//! a real `sleep` via [`ThreadedConfig::time_dilation`].
//!
//! # Routing
//!
//! Every node has an id; messages addressed to an id with no local mailbox
//! (an external client id, [`NodeId::EXTERNAL`], or — in a multi-process
//! deployment — a peer hosted elsewhere) are delivered to the *external
//! stream* as `(from, to, msg)` triples. A harness consumes that stream via
//! [`ThreadedCluster::recv_timeout`]; a production gateway takes the raw
//! receiver with [`ThreadedCluster::take_external_rx`] and routes each
//! triple onward (TCP peer link, HTTP response channel, ...).
//!
//! # Batches
//!
//! A node thread takes its work in batches: the first message (or due
//! timer) plus everything already queued behind it at that moment. Once
//! the batch's handlers have run and their actions are sent, the loop
//! calls [`Process::on_batch_end`], as the simulator does. A sync a handler
//! starts runs on the node's syncer thread (`syncer.rs`) meanwhile; if the
//! batch sent messages, the syncer lets their delivery go first.
//!
//! # Shutdown
//!
//! [`ThreadedCluster::shutdown`] stops all nodes promptly;
//! [`ThreadedCluster::shutdown_graceful`] first *drains*: each node keeps
//! processing messages and timers until its process reports
//! [`Process::quiescent`] (in-flight quorum ops finished) or the grace
//! deadline passes. Both paths invoke [`Process::on_shutdown`] before the
//! node thread exits — that is where a storage node issues its final WAL
//! fsync — while a [`Action::CrashSelf`] exit deliberately does not (a
//! crash must not get an orderly goodbye). Every exit joins the node's
//! syncer thread.

// lint:allow-file(no-wall-clock): this runtime exists to drive real OS time;
// the determinism contract applies to the sim runtime only.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use crate::process::{Action, Context, NodeId, Process, TimerToken};
use crate::rng::Rng;
use crate::syncer::Syncs;
use crate::time::SimTime;
use crate::trace::{Trace, TraceEvent};

/// Why a receive on the external stream returned no message.
///
/// The distinction matters: a [`RecvError::Timeout`] means "nothing arrived
/// yet — maybe wait longer", while [`RecvError::Disconnected`] means every
/// node thread has exited and nothing will *ever* arrive. Callers that
/// conflate the two retry forever against a dead cluster or, worse, report
/// a misleading "timed out" after a node crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No message arrived within the timeout; the cluster is still running.
    Timeout,
    /// All node threads have exited (or the external stream was taken by a
    /// gateway); no further message can arrive on this handle.
    Disconnected,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Timeout => write!(f, "timed out waiting for a cluster message"),
            RecvError::Disconnected => write!(f, "cluster is down: all node threads exited"),
        }
    }
}

enum Envelope<M> {
    Msg {
        from: NodeId,
        msg: M,
    },
    /// The node's syncer finished a job: did it succeed?
    SyncDone(bool),
    /// Stop promptly (still runs [`Process::on_shutdown`]).
    Stop,
    /// Keep serving until quiescent or `deadline`, then shut down.
    Drain {
        deadline: Instant,
    },
}

/// Configuration for the threaded runtime.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// RNG seed (per-node generators are forked from it).
    pub seed: u64,
    /// Multiplier applied to `ctx.consume(us)` when converting it into a
    /// real sleep. `0.0` disables sleeping entirely (fastest); `1.0` sleeps
    /// the full consumed time.
    pub time_dilation: f64,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig { seed: 0, time_dilation: 0.0 }
    }
}

/// Builds a [`ThreadedCluster`].
pub struct ThreadedClusterBuilder<M: Send + 'static> {
    processes: Vec<(NodeId, Box<dyn Process<M> + Send>)>,
    config: ThreadedConfig,
}

impl<M: Send + 'static> ThreadedClusterBuilder<M> {
    /// Creates a builder.
    pub fn new(config: ThreadedConfig) -> Self {
        ThreadedClusterBuilder { processes: Vec::new(), config }
    }

    /// Adds a node; ids are assigned in insertion order starting at 0.
    pub fn add_node(self, process: impl Process<M> + Send + 'static) -> Self {
        let id = NodeId(self.processes.len() as u32);
        self.add_node_as(id, process)
    }

    /// Adds a node under an explicit id. A multi-process deployment hosts
    /// only a slice of the cluster locally, so local mailbox ids must be
    /// the node's *cluster* id, not its insertion index.
    pub fn add_node_as(mut self, id: NodeId, process: impl Process<M> + Send + 'static) -> Self {
        assert!(
            !self.processes.iter().any(|(existing, _)| *existing == id),
            "duplicate node id {id}"
        );
        self.processes.push((id, Box::new(process)));
        self
    }

    /// Spawns all node threads and returns the running cluster.
    pub fn build(self) -> ThreadedCluster<M> {
        let mut senders: BTreeMap<u32, Sender<Envelope<M>>> = BTreeMap::new();
        let mut receivers: Vec<(NodeId, Receiver<Envelope<M>>)> = Vec::new();
        for (id, _) in &self.processes {
            let (tx, rx) = unbounded::<Envelope<M>>();
            senders.insert(id.0, tx);
            receivers.push((*id, rx));
        }
        let (external_tx, external_rx) = unbounded::<(NodeId, NodeId, M)>();
        // `trace` is last in the declared lock order
        // (crates/lint/src/policy.rs::LOCK_ORDER): node threads take it
        // briefly per event and never acquire another lock under it.
        let trace = Arc::new(Mutex::new(Trace::new()));
        let start = Instant::now();
        let mut seed_rng = Rng::new(self.config.seed);

        let mut handles = Vec::with_capacity(self.processes.len());
        for ((id, process), (_, rx)) in self.processes.into_iter().zip(receivers) {
            let lp = NodeLoop {
                id,
                senders: senders.clone(),
                external_tx: external_tx.clone(),
                trace: Arc::clone(&trace),
                start,
                dilation: self.config.time_dilation,
                timers: BinaryHeap::new(),
                timer_seq: 0,
                actions: Vec::new(),
                drain_deadline: None,
                syncs: Syncs::default(),
                sent: false,
            };
            let mut rng = seed_rng.fork();
            let handle = std::thread::Builder::new()
                .name(format!("mystore-node-{}", id.0))
                .spawn(move || node_main(lp, process, rx, &mut rng))
                .expect("spawn node thread");
            handles.push(handle);
        }

        ThreadedCluster { senders, handles, trace, external_rx: Some(external_rx), start }
    }
}

/// A running cluster of node threads.
pub struct ThreadedCluster<M: Send + 'static> {
    senders: BTreeMap<u32, Sender<Envelope<M>>>,
    handles: Vec<JoinHandle<()>>,
    trace: Arc<Mutex<Trace>>,
    external_rx: Option<Receiver<(NodeId, NodeId, M)>>,
    start: Instant,
}

impl<M: Send + 'static> ThreadedCluster<M> {
    /// Number of nodes hosted here.
    pub fn len(&self) -> usize {
        self.senders.len()
    }

    /// True if the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.senders.is_empty()
    }

    /// Ids of the locally hosted nodes.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.senders.keys().map(|&id| NodeId(id)).collect()
    }

    /// Sends `msg` to `to` as [`NodeId::EXTERNAL`] (e.g. a test harness or a
    /// CLI acting as the client).
    pub fn send(&self, to: NodeId, msg: M) {
        self.send_from(NodeId::EXTERNAL, to, msg);
    }

    /// Sends `msg` to local node `to` with an explicit sender identity.
    /// Gateways use this to inject traffic on behalf of remote peers and
    /// external client connections; replies addressed to `from` then come
    /// back out on the external stream.
    pub fn send_from(&self, from: NodeId, to: NodeId, msg: M) {
        if let Some(tx) = self.senders.get(&to.0) {
            let _ = tx.send(Envelope::Msg { from, msg });
        }
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

    /// Takes the raw external stream, detaching it from
    /// `recv_timeout`/`recv_routed_timeout` (which then report
    /// [`RecvError::Disconnected`]). A production gateway owns the stream
    /// and routes each `(from, to, msg)` triple to TCP peers or client
    /// connections.
    pub fn take_external_rx(&mut self) -> Option<Receiver<(NodeId, NodeId, M)>> {
        self.external_rx.take()
    }

    /// A cheap clonable handle for injecting messages into the running
    /// cluster from other threads (a gateway's per-connection readers).
    /// Holding an injector does not keep the cluster alive: sends to
    /// stopped nodes are dropped, like sends to unknown ids.
    pub fn injector(&self) -> Injector<M> {
        Injector { senders: self.senders.clone() }
    }

    /// Elapsed run time as a [`SimTime`] (µs since cluster start).
    pub fn elapsed(&self) -> SimTime {
        SimTime(self.start.elapsed().as_micros() as u64)
    }

    /// Snapshot of the recorded trace.
    pub fn trace_snapshot(&self) -> Trace {
        self.trace.lock().clone()
    }

    /// Stops a single node thread (prompt stop, after which the node is
    /// gone until the whole cluster is rebuilt). Used by tests and drills
    /// that kill a node mid-run; the rest of the cluster keeps serving.
    pub fn stop_node(&self, id: NodeId) {
        if let Some(tx) = self.senders.get(&id.0) {
            let _ = tx.send(Envelope::Stop);
        }
    }

    /// Stops all node threads promptly and joins them. Each process still
    /// gets its [`Process::on_shutdown`] call (final WAL sync), but
    /// in-flight operations are abandoned; use
    /// [`ThreadedCluster::shutdown_graceful`] to drain them first.
    pub fn shutdown(self) {
        for tx in self.senders.values() {
            let _ = tx.send(Envelope::Stop);
        }
        for handle in self.handles {
            let _ = handle.join();
        }
    }

    /// Drains and stops: every node keeps serving messages and timers until
    /// its process reports [`Process::quiescent`] (or `grace` expires),
    /// runs [`Process::on_shutdown`], and exits; then all threads are
    /// joined. Callers should stop injecting new external work first.
    pub fn shutdown_graceful(self, grace: Duration) {
        let deadline = Instant::now() + grace;
        for tx in self.senders.values() {
            let _ = tx.send(Envelope::Drain { deadline });
        }
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

/// Clonable ingress handle into a [`ThreadedCluster`]; see
/// [`ThreadedCluster::injector`].
pub struct Injector<M: Send + 'static> {
    senders: BTreeMap<u32, Sender<Envelope<M>>>,
}

impl<M: Send + 'static> Clone for Injector<M> {
    fn clone(&self) -> Self {
        Injector { senders: self.senders.clone() }
    }
}

impl<M: Send + 'static> Injector<M> {
    /// Delivers `msg` to local node `to` as coming from `from`. Returns
    /// false if `to` has no local mailbox (unknown id or stopped cluster).
    pub fn send_from(&self, from: NodeId, to: NodeId, msg: M) -> bool {
        match self.senders.get(&to.0) {
            Some(tx) => tx.send(Envelope::Msg { from, msg }).is_ok(),
            None => false,
        }
    }

    /// True if `to` is hosted by this cluster.
    pub fn is_local(&self, to: NodeId) -> bool {
        self.senders.contains_key(&to.0)
    }
}

/// Per-node timer heap entry: `Reverse((fire_at, seq, token))` for a
/// min-heap. The monotonic `seq` breaks equal-deadline ties in insertion
/// order, matching the simulator's FIFO firing for same-instant timers —
/// without it, `BinaryHeap` would order equal-instant timers by token
/// value, a schedule the deterministic oracle can never produce.
type TimerHeap = BinaryHeap<Reverse<(Instant, u64, TimerToken)>>;

struct NodeLoop<M: Send + 'static> {
    id: NodeId,
    senders: BTreeMap<u32, Sender<Envelope<M>>>,
    external_tx: Sender<(NodeId, NodeId, M)>,
    trace: Arc<Mutex<Trace>>,
    start: Instant,
    dilation: f64,
    timers: TimerHeap,
    timer_seq: u64,
    actions: Vec<Action<M>>,
    /// Set once a `Drain` envelope arrives.
    drain_deadline: Option<Instant>,
    syncs: Syncs,
    /// Whether the open batch has sent a message (a sync it starts lets
    /// those go first, `syncer.rs`).
    sent: bool,
}

enum HandlerInput<M> {
    Start,
    Msg { from: NodeId, msg: M },
    Timer(TimerToken),
    SyncDone(bool),
    BatchEnd,
    Shutdown,
}

/// What the node loop should do after a handler ran.
#[derive(PartialEq)]
enum Flow {
    Continue,
    /// Crash exit: no `on_shutdown`.
    Abort,
}

impl<M: Send + 'static> NodeLoop<M> {
    fn now(&self) -> SimTime {
        SimTime(self.start.elapsed().as_micros() as u64)
    }

    fn run_handler(
        &mut self,
        process: &mut Box<dyn Process<M> + Send>,
        rng: &mut Rng,
        input: HandlerInput<M>,
    ) -> Flow {
        let now = self.now();
        let ends_batch = matches!(input, HandlerInput::BatchEnd);
        let consumed = {
            let mut ctx = Context::new(now, self.id, &mut self.actions, rng, None);
            match input {
                HandlerInput::Start => process.on_start(&mut ctx),
                HandlerInput::Msg { from, msg } => process.on_message(&mut ctx, from, msg),
                HandlerInput::Timer(token) => process.on_timer(&mut ctx, token),
                HandlerInput::SyncDone(ok) => process.on_sync_done(&mut ctx, ok),
                HandlerInput::BatchEnd => process.on_batch_end(&mut ctx),
                HandlerInput::Shutdown => process.on_shutdown(&mut ctx),
            }
            ctx.consumed()
        };
        if self.dilation > 0.0 && consumed > 0 {
            std::thread::sleep(Duration::from_micros((consumed as f64 * self.dilation) as u64));
        }
        // All timers armed by one handler share a base instant, so equal
        // delays produce *equal* deadlines (resolved by seq, i.e. insertion
        // order) rather than deadlines skewed by per-action clock reads.
        let timer_base = Instant::now();
        let mut flow = Flow::Continue;
        for action in self.actions.drain(..) {
            match action {
                Action::Send { to, msg } => {
                    self.sent = true;
                    if let Some(tx) = self.senders.get(&to.0) {
                        let _ = tx.send(Envelope::Msg { from: self.id, msg });
                    } else {
                        // No local mailbox: external client, EXTERNAL, or a
                        // peer hosted in another process — the gateway's
                        // problem, not ours.
                        let _ = self.external_tx.send((self.id, to, msg));
                    }
                }
                Action::SetTimer { delay_us, token } => {
                    self.timer_seq += 1;
                    self.timers.push(Reverse((
                        timer_base + Duration::from_micros(delay_us),
                        self.timer_seq,
                        token,
                    )));
                }
                Action::Record { name, value } => {
                    self.trace.lock().push(TraceEvent {
                        time: SimTime(self.start.elapsed().as_micros() as u64),
                        node: self.id,
                        name,
                        value,
                    });
                }
                Action::CrashSelf { .. } => {
                    // In the threaded runtime a crash simply stops the node
                    // thread; scripted recovery is a simulator feature.
                    flow = Flow::Abort;
                }
                Action::Sync { job } => {
                    let inbox = || self.senders.get(&self.id.0).expect("own mailbox").clone();
                    self.syncs.start(job, self.sent, self.id, inbox, Envelope::SyncDone);
                }
            }
        }
        if ends_batch {
            self.sent = false;
        }
        flow
    }

    /// True when a drain is pending and the process has nothing in flight.
    fn drained(&self, process: &dyn Process<M>) -> bool {
        self.drain_deadline.is_some()
            && (process.quiescent() || self.drain_deadline.is_some_and(|d| Instant::now() >= d))
    }

    /// Pops the earliest timer due at `now`, if any.
    fn pop_due(&mut self, now: Instant) -> Option<TimerToken> {
        let Reverse((at, _, _)) = self.timers.peek()?;
        if *at > now {
            return None;
        }
        self.timers.pop().map(|Reverse((_, _, token))| token)
    }

    /// How long to block for the next envelope: until the next timer (or
    /// 100 ms with none armed), and while draining at most 10 ms and never
    /// past the drain deadline, so quiescence is noticed promptly even when
    /// the process goes idle with long-period timers armed.
    fn wait_timeout(&self) -> Duration {
        let now = Instant::now();
        let next = self.timers.peek().map_or(Duration::from_millis(100), |Reverse((at, _, _))| {
            at.saturating_duration_since(now)
        });
        self.drain_deadline.map_or(next, |d| {
            next.min(d.saturating_duration_since(now)).min(Duration::from_millis(10))
        })
    }
}

fn node_main<M: Send + 'static>(
    mut lp: NodeLoop<M>,
    mut process: Box<dyn Process<M> + Send>,
    rx: Receiver<Envelope<M>>,
    rng: &mut Rng,
) {
    run_node(&mut lp, &mut process, &rx, rng);
    lp.syncs.join();
}

/// The node loop; returns when the node stops or crashes.
fn run_node<M: Send + 'static>(
    lp: &mut NodeLoop<M>,
    process: &mut Box<dyn Process<M> + Send>,
    rx: &Receiver<Envelope<M>>,
    rng: &mut Rng,
) {
    macro_rules! step {
        ($input:expr) => {
            match lp.run_handler(process, rng, $input) {
                Flow::Continue => {}
                Flow::Abort => return,
            }
        };
    }

    macro_rules! stop {
        () => {{
            let _ = lp.run_handler(process, rng, HandlerInput::Shutdown);
            return;
        }};
    }

    step!(HandlerInput::Start);

    macro_rules! envelope {
        ($env:expr) => {
            match $env {
                Envelope::Msg { from, msg } => step!(HandlerInput::Msg { from, msg }),
                Envelope::SyncDone(ok) => {
                    lp.syncs.arrived();
                    step!(HandlerInput::SyncDone(ok));
                }
                Envelope::Stop => stop!(),
                Envelope::Drain { deadline } => {
                    lp.drain_deadline =
                        Some(lp.drain_deadline.map_or(deadline, |d| d.min(deadline)));
                }
            }
        };
    }

    loop {
        // Syncs with nothing to run complete before the next envelope.
        while lp.syncs.take_inline() {
            step!(HandlerInput::SyncDone(true));
            step!(HandlerInput::BatchEnd);
        }
        if lp.drained(process.as_ref()) {
            stop!();
        }
        // Block until there is work: a due timer or an envelope.
        let first = if lp.timers.peek().is_some_and(|Reverse((at, _, _))| *at <= Instant::now()) {
            None
        } else {
            match rx.recv_timeout(lp.wait_timeout()) {
                Ok(env) => Some(env),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => stop!(),
            }
        };
        // The batch is the work already queued now: the envelopes behind
        // the first and the timers due. Sizing it up front bounds it.
        let (now, queued) = (Instant::now(), rx.len());
        if let Some(env) = first {
            envelope!(env);
        }
        while let Some(token) = lp.pop_due(now) {
            step!(HandlerInput::Timer(token));
        }
        for _ in 0..queued {
            let Ok(env) = rx.try_recv() else { break };
            envelope!(env);
        }
        step!(HandlerInput::BatchEnd);
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
            if self.ticks < 3 {
                ctx.set_timer(self.period_us, 1);
            } else {
                ctx.send(self.report_to, self.ticks);
            }
        }
    }

    #[test]
    fn external_round_trip() {
        let cluster = ThreadedClusterBuilder::new(ThreadedConfig::default()).add_node(Echo).build();
        cluster.send(NodeId(0), 41);
        let (from, reply) = cluster.recv_timeout(Duration::from_secs(2)).expect("reply");
        assert_eq!(from, NodeId(0));
        assert_eq!(reply, 42);
        cluster.shutdown();
    }

    #[test]
    fn inter_node_forwarding_reaches_external() {
        // chain 0 -> 1 -> EXTERNAL via a forwarder pointing at EXTERNAL.
        let cluster = ThreadedClusterBuilder::new(ThreadedConfig::default())
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
    fn timers_fire_and_record() {
        let cluster = ThreadedClusterBuilder::new(ThreadedConfig::default())
            .add_node(Ticker { period_us: 2_000, ticks: 0, report_to: NodeId::EXTERNAL })
            .build();
        let (_, ticks) = cluster.recv_timeout(Duration::from_secs(5)).expect("ticks");
        assert_eq!(ticks, 3);
        let trace = cluster.trace_snapshot();
        assert_eq!(trace.count("tick"), 3);
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
        let cluster = ThreadedClusterBuilder::new(ThreadedConfig::default())
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
        let cluster =
            ThreadedClusterBuilder::new(ThreadedConfig::default()).add_node(CrashOnMsg).build();
        cluster.send(NodeId(0), 1);
        // The only node thread crashes; once its channel handles drop the
        // receive side must say Disconnected, not Timeout — and the crash
        // path must not have emitted the on_shutdown farewell.
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
        let cluster = ThreadedClusterBuilder::new(ThreadedConfig::default())
            .add_node(DrainProbe { pending: 0, processed: 0 })
            .build();
        for _ in 0..3 {
            cluster.send(NodeId(0), 0);
        }
        // Allow the messages to land, then drain. The in-flight "work"
        // (timers 5 ms out) must complete before on_shutdown runs.
        std::thread::sleep(Duration::from_millis(20));
        let (tx, rx) = unbounded::<u64>();
        let (from_cluster, farewell) = {
            // shutdown_graceful consumes the cluster, so grab the report
            // inline: spawn a thread that forwards the farewell.
            let probe_rx = {
                let mut c = cluster;
                let ext = c.take_external_rx().expect("external stream");
                std::thread::spawn(move || {
                    if let Ok(triple) = ext.recv_timeout(Duration::from_secs(5)) {
                        let _ = tx.send(triple.2);
                    }
                });
                c.shutdown_graceful(Duration::from_secs(5));
                rx
            };
            (NodeId(0), probe_rx.recv_timeout(Duration::from_secs(5)).expect("farewell"))
        };
        assert_eq!(from_cluster, NodeId(0));
        assert_eq!(farewell, 3, "on_shutdown must run after all 3 messages were processed");
    }

    #[test]
    fn stop_node_kills_one_thread_and_the_rest_serve() {
        let cluster = ThreadedClusterBuilder::new(ThreadedConfig::default())
            .add_node(Echo)
            .add_node(Echo)
            .build();
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
        let cluster = ThreadedClusterBuilder::new(ThreadedConfig::default())
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
}
