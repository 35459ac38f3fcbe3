//! The sans-io process abstraction.
//!
//! Every MyStore component — storage node, cache server, front-end
//! dispatcher, workload client — is a [`Process`]: a state machine that
//! reacts to messages and timers by emitting *actions* into a [`Context`].
//! The process never performs I/O or reads clocks itself; the runtime
//! (the deterministic simulator in [`crate::sim`], or the threaded runtime
//! in [`crate::threaded`]) interprets the actions. That inversion is what
//! lets the same production logic run under property tests, deterministic
//! experiments, and real threads without modification.

use crate::faults::OpFault;
use crate::rng::Rng;
use crate::time::SimTime;
use std::fmt;

/// Identifies a node (process instance) in a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Reserved id for traffic injected from outside the cluster (e.g. a
    /// test harness calling into the threaded runtime).
    pub const EXTERNAL: NodeId = NodeId(u32::MAX);
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == NodeId::EXTERNAL {
            write!(f, "n(ext)")
        } else {
            write!(f, "n{}", self.0)
        }
    }
}

/// Opaque timer token; the process chooses the value and gets it back when
/// the timer fires.
pub type TimerToken = u64;

/// An action emitted by a process for the runtime to perform.
#[derive(Debug)]
pub enum Action<M> {
    /// Send `msg` to `to`. Delivery time/order is up to the runtime.
    Send {
        /// Destination node.
        to: NodeId,
        /// Payload.
        msg: M,
    },
    /// Fire a timer with `token` after `delay_us` microseconds.
    SetTimer {
        /// Delay before firing, in µs.
        delay_us: u64,
        /// Token returned to [`Process::on_timer`].
        token: TimerToken,
    },
    /// Record a named measurement into the experiment trace.
    Record {
        /// Metric name.
        name: &'static str,
        /// Metric value.
        value: f64,
    },
    /// Crash this node. `down_for_us = None` means until explicitly
    /// restarted (the paper's *long failure*); `Some(d)` auto-recovers
    /// (a *short failure* such as a blocked process).
    CrashSelf {
        /// How long the node stays down, or `None` for indefinitely.
        down_for_us: Option<u64>,
    },
    /// Run a log sync off the node's thread and report its outcome to
    /// [`Process::on_sync_done`] (see [`Context::start_sync`]).
    Sync {
        /// The I/O to run; `None` when there is nothing to run.
        job: Option<SyncJob>,
    },
}

/// The I/O half of a log sync — typically `sync_data()` on a cloned file
/// handle — returning whether it succeeded. A runtime runs it on a thread
/// other than the node's, so the node keeps handling messages meanwhile.
pub struct SyncJob(Box<dyn FnOnce() -> bool + Send>);

impl SyncJob {
    /// Wraps the I/O to run.
    pub fn new(run: impl FnOnce() -> bool + Send + 'static) -> Self {
        SyncJob(Box::new(run))
    }

    /// Runs the I/O and returns whether it succeeded.
    pub fn run(self) -> bool {
        (self.0)()
    }
}

impl fmt::Debug for SyncJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SyncJob")
    }
}

/// The per-invocation context handed to a process.
///
/// Collects actions and exposes the virtual clock, the node's own id, the
/// deterministic RNG, and the fault sampler.
pub struct Context<'a, M> {
    now: SimTime,
    self_id: NodeId,
    actions: &'a mut Vec<Action<M>>,
    rng: &'a mut Rng,
    /// Service time consumed by this invocation (µs).
    consumed_us: u64,
    /// Fault sampled for the *current operation*, if the runtime's fault
    /// plan produced one. See [`Context::take_op_fault`].
    op_fault: Option<OpFault>,
}

impl<'a, M> Context<'a, M> {
    /// Creates a context. Used by runtimes; processes only consume it.
    pub fn new(
        now: SimTime,
        self_id: NodeId,
        actions: &'a mut Vec<Action<M>>,
        rng: &'a mut Rng,
        op_fault: Option<OpFault>,
    ) -> Self {
        Context { now, self_id, actions, rng, consumed_us: 0, op_fault }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.self_id
    }

    /// Sends a message.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Arms a timer.
    pub fn set_timer(&mut self, delay_us: u64, token: TimerToken) {
        self.actions.push(Action::SetTimer { delay_us, token });
    }

    /// Records a measurement into the experiment trace.
    pub fn record(&mut self, name: &'static str, value: f64) {
        self.actions.push(Action::Record { name, value });
    }

    /// Charges `us` microseconds of service time to this invocation. The
    /// runtime keeps the node's server busy for the total consumed time,
    /// which is what produces realistic queueing under load.
    pub fn consume(&mut self, us: u64) {
        self.consumed_us = self.consumed_us.saturating_add(us);
    }

    /// Total service time charged so far in this invocation.
    pub fn consumed(&self) -> u64 {
        self.consumed_us
    }

    /// Crashes this node (see [`Action::CrashSelf`]).
    pub fn crash_self(&mut self, down_for_us: Option<u64>) {
        self.actions.push(Action::CrashSelf { down_for_us });
    }

    /// Asks the runtime to run a log sync and to report its outcome to
    /// [`Process::on_sync_done`], delivered as a batch item of its own.
    /// `job` is `None` when there is nothing to run (a log with no file).
    /// Syncs complete in the order they were started.
    ///
    /// The threaded runtime runs a job with I/O on the node's syncer
    /// thread, spawned the first time one arrives, and lets the batch's
    /// sends go first if it sent any; it completes a `None` job before the
    /// node takes its next envelope. The simulator runs a job inline and
    /// completes it on the node's disk — one sync at a time, each lasting
    /// the disk's `slow-fsync` penalty — and drops the completion if the
    /// node crashes first.
    pub fn start_sync(&mut self, job: Option<SyncJob>) {
        self.actions.push(Action::Sync { job });
    }

    /// Deterministic RNG (owned by the runtime; forked per node).
    pub fn rng(&mut self) -> &mut Rng {
        self.rng
    }

    /// Takes the fault the runtime sampled for this operation, if any.
    ///
    /// The fault plan (paper Table 2) draws at most one fault per handled
    /// operation; the component that executes the operation consumes it
    /// here and reacts (fail the op, crash, block) per §5.2.4 semantics.
    pub fn take_op_fault(&mut self) -> Option<OpFault> {
        self.op_fault.take()
    }
}

/// A message- and timer-driven state machine.
///
/// `M` is the cluster's message type. Implementations must be deterministic
/// functions of their inputs (messages, timers, and `ctx.rng()`): no clocks,
/// no threads, no I/O.
pub trait Process<M> {
    /// Called once when the runtime starts (virtual time zero, or thread
    /// spawn in the threaded runtime). Arm initial timers here.
    fn on_start(&mut self, ctx: &mut Context<'_, M>);

    /// Handles a message from `from`.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: M);

    /// Handles a timer armed with `token`.
    fn on_timer(&mut self, ctx: &mut Context<'_, M>, token: TimerToken);

    /// Called at the end of every *batch* — the messages and due timers
    /// already queued when its first item was taken (one item under light
    /// load) — after all its handlers ran and their actions were
    /// dispatched. Work arriving meanwhile starts the next batch, so a node
    /// whose inbox never empties still gets here once per batch. A storage
    /// node starts its WAL sync here. Default: nothing.
    fn on_batch_end(&mut self, _ctx: &mut Context<'_, M>) {}

    /// Called with the outcome of a sync started by
    /// [`Context::start_sync`], once per sync and in the order they were
    /// started, as a batch item of its own (so [`Process::on_batch_end`]
    /// follows). A storage node releases the acks the sync made durable
    /// here. Default: nothing.
    fn on_sync_done(&mut self, _ctx: &mut Context<'_, M>, _ok: bool) {}

    /// Called when the node recovers from a crash. Default: re-run
    /// [`Process::on_start`] (state survives; in-flight work is lost).
    fn on_restart(&mut self, ctx: &mut Context<'_, M>) {
        self.on_start(ctx);
    }

    /// True when the process has no in-flight work (pending quorum ops,
    /// a sync in flight). The threaded runtime's
    /// graceful shutdown drains each node until it reports quiescent before
    /// invoking [`Process::on_shutdown`]. Default: always quiescent, which
    /// is correct for stateless processes. The simulator never calls this.
    fn quiescent(&self) -> bool {
        true
    }

    /// Called once by the threaded runtime immediately before the node's
    /// thread exits on an *orderly* stop (explicit stop, graceful drain, or
    /// channel disconnect) — not on [`Action::CrashSelf`], which models a
    /// crash. Emitted sends and records are still delivered, but a sync
    /// started here never completes: this is where a storage node makes
    /// its WAL durable with a blocking sync. Default: nothing. The
    /// simulator never calls this.
    fn on_shutdown(&mut self, _ctx: &mut Context<'_, M>) {}
}

/// Wire-size accounting for the bandwidth model.
///
/// The simulator charges transmission time `size / bandwidth` per message;
/// implement this to reflect the encoded size of your message type.
pub trait WireSized {
    /// Encoded size in bytes as it would appear on the wire.
    fn wire_size(&self) -> usize;
}

impl WireSized for () {
    fn wire_size(&self) -> usize {
        0
    }
}

impl WireSized for u64 {
    fn wire_size(&self) -> usize {
        8
    }
}

impl WireSized for Vec<u8> {
    fn wire_size(&self) -> usize {
        self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_collects_actions_in_order() {
        let mut actions = Vec::new();
        let mut rng = Rng::new(1);
        {
            let mut ctx: Context<'_, &'static str> =
                Context::new(SimTime::from_millis(5), NodeId(3), &mut actions, &mut rng, None);
            ctx.send(NodeId(4), "hello");
            ctx.set_timer(100, 7);
            ctx.record("m", 1.5);
            ctx.consume(40);
            ctx.consume(2);
            assert_eq!(ctx.consumed(), 42);
            assert_eq!(ctx.now(), SimTime::from_millis(5));
            assert_eq!(ctx.id(), NodeId(3));
        }
        assert_eq!(actions.len(), 3);
        assert!(matches!(actions[0], Action::Send { to: NodeId(4), msg: "hello" }));
        assert!(matches!(actions[1], Action::SetTimer { delay_us: 100, token: 7 }));
        assert!(matches!(actions[2], Action::Record { name: "m", value } if value == 1.5));
    }

    #[test]
    fn op_fault_is_taken_once() {
        let mut actions: Vec<Action<()>> = Vec::new();
        let mut rng = Rng::new(1);
        let mut ctx = Context::new(
            SimTime::ZERO,
            NodeId(0),
            &mut actions,
            &mut rng,
            Some(OpFault::DiskIoError),
        );
        assert_eq!(ctx.take_op_fault(), Some(OpFault::DiskIoError));
        assert_eq!(ctx.take_op_fault(), None);
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(NodeId::EXTERNAL.to_string(), "n(ext)");
    }
}
