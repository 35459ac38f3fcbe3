//! The generic quorum engine.
//!
//! Every coordinated operation — PUT, GET, CAS — is a [`Pending`] entry:
//! op-agnostic bookkeeping in [`Common`], op behaviour behind the
//! [`QuorumOp`] trait. The driver owns the lifecycle that the
//! pre-refactor `PendingPut`/`PendingGet` state machines each duplicated:
//!
//! 1. **start** — the op fans out to its replica targets, then
//!    [`StorageNode::drv_finish_start`] checks for immediate quorum and
//!    arms the soft-retry and hard-deadline timers;
//! 2. **replies** — [`StorageNode::drv_on_reply`] folds each replica reply
//!    in (the op dedups per node), replies to the caller the moment quorum
//!    is met, and retires the entry when every target has answered;
//! 3. **soft retry** — while budget remains, re-send to stragglers and
//!    re-arm with exponential backoff plus jitter; on exhaustion the op
//!    decides (writes divert to hinted handoff, reads park);
//! 4. **hard deadline** — the entry is removed and the op reports
//!    success-so-far or failure to the caller.
//!
//! Adding an operation means implementing [`QuorumOp`] (~50 lines) and a
//! `start_*` entry point — none of the machinery above is repeated. See
//! DESIGN.md §11.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::collections::BTreeMap;

use mystore_engine::Record;
use mystore_net::{Context, NodeId};

use crate::message::Msg;
use crate::storage_node::maintenance::Sent;
use crate::storage_node::{tk, StorageNode, HINTS};

use super::get::ReadOp;
use super::put::WriteOp;

/// How many times a coordinator re-sends a replica op to a straggler
/// before the op decides (writes divert to hinted handoff, reads park).
const REPLICA_RETRY_MAX: u32 = 2;
/// Backoff before retry round `k` is `min(base << (k-1), cap)` plus jitter
/// of up to a quarter of that (µs): 20 ms, then 40 ms, ...
const RETRY_BACKOFF_BASE_US: u64 = 20_000;
/// Upper bound on the exponential backoff between retries (µs).
const RETRY_BACKOFF_CAP_US: u64 = 500_000;

/// One replica-level reply, normalized so the driver has a single entry
/// point ([`StorageNode::drv_on_reply`]) for every ack shape on the wire.
#[derive(Debug)]
pub(crate) enum Reply {
    /// A write acknowledgement (`StoreAck`, or one element of a
    /// `StoreAckBatch`).
    Ack {
        /// Whether the replica applied and persisted the write.
        ok: bool,
    },
    /// A read answer (`FetchAck`).
    Fetch {
        /// The replica's copy, if it holds one.
        found: Option<Record>,
        /// Whether the read itself succeeded.
        ok: bool,
    },
}

/// What the driver should do after an op's retry budget is exhausted.
pub(crate) enum Exhausted {
    /// Keep the entry as-is; only replies or the hard deadline resolve it.
    Park,
    /// The op diverted writes to hinted handoff: re-check
    /// quorum/completion now, and call `on_exhausted` again after another
    /// replica timeout if the entry is still pending.
    Diverted,
}

/// Op-agnostic state of a coordinated operation.
pub(crate) struct Common {
    /// Who asked for the operation (frontend, test probe, peer).
    pub(crate) caller: NodeId,
    /// The caller's correlation id, echoed in the reply.
    pub(crate) caller_req: u64,
    /// Retry rounds already spent on stragglers.
    pub(crate) retry_round: u32,
    /// Whether the caller has been answered (quorum was met).
    pub(crate) replied: bool,
    /// Coordinator clock when the request arrived (latency histograms).
    pub(crate) started_us: u64,
}

/// The behaviour an operation plugs into the driver.
///
/// Methods take the owning [`StorageNode`] explicitly: entries are removed
/// from the pending table before being driven, so the node and the op are
/// disjoint borrows.
pub(crate) trait QuorumOp {
    /// Replica targets still owed a reply, excluding the coordinator
    /// itself (it never messages itself).
    fn targets(&self, node: &StorageNode) -> Vec<NodeId>;
    /// Re-sends the replica-level message to one straggler target.
    fn resend(&self, node: &mut StorageNode, ctx: &mut Context<'_, Msg>, req: u64, to: NodeId);
    /// Folds one replica reply in. Retries and chaotic links duplicate
    /// replies, so an implementation must count each node at most once.
    fn on_reply(&mut self, from: NodeId, reply: Reply);
    /// Whether the op's quorum (`W` for writes, its read quorum for reads)
    /// is satisfied.
    fn quorum_met(&self, node: &StorageNode, common: &Common) -> bool;
    /// Answers the caller; runs exactly once, when quorum is first met.
    fn on_success(&mut self, node: &mut StorageNode, ctx: &mut Context<'_, Msg>, common: &Common);
    /// Whether every target has been accounted for (the entry can retire).
    fn is_complete(&self, common: &Common) -> bool;
    /// Runs when the entry retires (reads push read repair); default no-op.
    fn on_complete(&mut self, node: &mut StorageNode, ctx: &mut Context<'_, Msg>, common: &Common) {
        let _ = (node, ctx, common);
    }
    /// The retry budget ran out; the op picks its exhaustion policy.
    fn on_exhausted(
        &mut self,
        node: &mut StorageNode,
        ctx: &mut Context<'_, Msg>,
        req: u64,
        common: &mut Common,
    ) -> Exhausted;
    /// The hard request deadline fired; the entry has been removed.
    fn on_deadline(&mut self, node: &mut StorageNode, ctx: &mut Context<'_, Msg>, common: &Common);
    /// Timer-token kind for the soft-retry timer (kept per-op so the timer
    /// token layout on the wire-trace is unchanged from before the
    /// refactor).
    fn retry_kind(&self) -> u64;
    /// Timer-token kind for the hard-deadline timer.
    fn hard_kind(&self) -> u64;
}

/// The concrete ops, enum-dispatched so the pending table stays a plain
/// homogeneous map (no boxing on the hot path). Every arm is a one-line
/// delegation to the [`QuorumOp`] implementation in `put.rs` / `get.rs`.
pub(crate) enum OpState {
    /// A quorum write (PUT, DELETE, or the CAS write phase).
    Write(WriteOp),
    /// A quorum read (GET, or the CAS predicate-check phase).
    Read(ReadOp),
}

macro_rules! delegate {
    ($self:ident, $op:ident => $body:expr) => {
        match $self {
            OpState::Write($op) => $body,
            OpState::Read($op) => $body,
        }
    };
}

impl QuorumOp for OpState {
    fn targets(&self, node: &StorageNode) -> Vec<NodeId> {
        delegate!(self, op => op.targets(node))
    }
    fn resend(&self, node: &mut StorageNode, ctx: &mut Context<'_, Msg>, req: u64, to: NodeId) {
        delegate!(self, op => op.resend(node, ctx, req, to))
    }
    fn on_reply(&mut self, from: NodeId, reply: Reply) {
        delegate!(self, op => op.on_reply(from, reply))
    }
    fn quorum_met(&self, node: &StorageNode, common: &Common) -> bool {
        delegate!(self, op => op.quorum_met(node, common))
    }
    fn on_success(&mut self, node: &mut StorageNode, ctx: &mut Context<'_, Msg>, common: &Common) {
        delegate!(self, op => op.on_success(node, ctx, common))
    }
    fn is_complete(&self, common: &Common) -> bool {
        delegate!(self, op => op.is_complete(common))
    }
    fn on_complete(&mut self, node: &mut StorageNode, ctx: &mut Context<'_, Msg>, common: &Common) {
        delegate!(self, op => op.on_complete(node, ctx, common))
    }
    fn on_exhausted(
        &mut self,
        node: &mut StorageNode,
        ctx: &mut Context<'_, Msg>,
        req: u64,
        common: &mut Common,
    ) -> Exhausted {
        delegate!(self, op => op.on_exhausted(node, ctx, req, common))
    }
    fn on_deadline(&mut self, node: &mut StorageNode, ctx: &mut Context<'_, Msg>, common: &Common) {
        delegate!(self, op => op.on_deadline(node, ctx, common))
    }
    fn retry_kind(&self) -> u64 {
        delegate!(self, op => op.retry_kind())
    }
    fn hard_kind(&self) -> u64 {
        delegate!(self, op => op.hard_kind())
    }
}

/// One in-flight coordinated operation.
pub(crate) struct Pending {
    pub(crate) common: Common,
    pub(crate) op: OpState,
}

/// The quorum engine: owns the pending table every coordinated operation
/// lives in. The driving logic is the `drv_*` methods on [`StorageNode`]
/// below (they need the node's config, metrics, and database).
#[derive(Default)]
pub(crate) struct Driver {
    /// In-flight operations keyed by coordinator-scoped request id.
    pub(crate) ops: BTreeMap<u64, Pending>,
}

impl StorageNode {
    /// Backoff before retry round `round` (1-based): exponential in the
    /// round, capped, plus up to 25% jitter so stragglers are not re-hit in
    /// lockstep by every coordinator at once.
    fn backoff_delay(&self, ctx: &mut Context<'_, Msg>, round: u32) -> u64 {
        let base = RETRY_BACKOFF_BASE_US
            .saturating_mul(1u64 << (round.saturating_sub(1)).min(32))
            .min(RETRY_BACKOFF_CAP_US);
        let jitter = ctx.rng().range_u64(0, base / 4 + 1);
        let delay = base + jitter;
        self.metrics.retry_backoff_us.record(delay);
        delay
    }

    /// Quorum/completion check: answers the caller the moment quorum is
    /// met, runs the op's completion hook (read repair) when every target
    /// has been accounted for. Returns true when the entry can retire.
    fn drv_resolve(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        common: &mut Common,
        op: &mut OpState,
    ) -> bool {
        if !common.replied && op.quorum_met(self, common) {
            common.replied = true;
            op.on_success(self, ctx, common);
        }
        if op.is_complete(common) {
            op.on_complete(self, ctx, common);
            return true;
        }
        false
    }

    /// Tail of every `start_*` entry point: immediate-quorum check (the
    /// coordinator may be a replica of the key itself), then park the entry
    /// and arm the soft-retry and hard-deadline timers.
    pub(crate) fn drv_finish_start(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        my_req: u64,
        mut common: Common,
        mut op: OpState,
    ) {
        let done = self.drv_resolve(ctx, &mut common, &mut op);
        if !done {
            let retry_kind = op.retry_kind();
            let hard_kind = op.hard_kind();
            self.quorum.ops.insert(my_req, Pending { common, op });
            ctx.set_timer(self.cfg.replica_timeout_us, tk(retry_kind, my_req));
            ctx.set_timer(self.cfg.request_deadline_us, tk(hard_kind, my_req));
        }
    }

    /// Folds one replica reply into the pending op (if any — late replies
    /// for retired entries are dropped here).
    pub(crate) fn drv_on_reply(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        req: u64,
        from: NodeId,
        reply: Reply,
    ) {
        let Some(mut pending) = self.quorum.ops.remove(&req) else { return };
        pending.op.on_reply(from, reply);
        let Pending { mut common, mut op } = pending;
        let done = self.drv_resolve(ctx, &mut common, &mut op);
        if !done {
            self.quorum.ops.insert(req, Pending { common, op });
        }
    }

    /// A write acknowledgement arrived. Hint replays and migration copies
    /// resolve against the outbound table (they are not quorum traffic);
    /// everything else funnels into the driver.
    pub(crate) fn on_store_ack(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: NodeId,
        req: u64,
        ok: bool,
    ) {
        let Some(out) = self.outbound.remove(&req) else {
            return self.drv_on_reply(ctx, req, from, Reply::Ack { ok });
        };
        match out.kind {
            // The hint is only discharged if its document is still present
            // — a duplicated ack must not double-count a replay or drive
            // the depth gauge negative.
            Sent::Hint(id) => {
                if ok && self.db.remove(HINTS, id).is_ok() {
                    self.metrics.hints_replayed.inc();
                    self.metrics.hint_queue_depth.dec_clamped();
                    ctx.record("hint_replayed", 1.0);
                }
            }
            Sent::Copy(pos) => self.on_copy_ack(out.peer, pos, ok),
            // A fetch's entry: a write ack cannot settle it.
            Sent::Proxy { .. } => {
                self.outbound.insert(req, out);
            }
        }
    }

    /// Per-replica soft deadline: while retry budget remains, re-send to
    /// stragglers with exponential backoff; once exhausted, the op decides
    /// (writes divert to hinted handoff, Fig. 8 — "if one node fails, the
    /// system writes to the next node on the ring" — reads park until the
    /// hard deadline).
    pub(crate) fn drv_on_retry_timeout(&mut self, ctx: &mut Context<'_, Msg>, req: u64) {
        let Some(mut pending) = self.quorum.ops.remove(&req) else { return };
        if pending.common.retry_round < REPLICA_RETRY_MAX {
            pending.common.retry_round += 1;
            let round = pending.common.retry_round;
            for replica in pending.op.targets(self) {
                pending.op.resend(self, ctx, req, replica);
            }
            let delay = self.backoff_delay(ctx, round);
            ctx.set_timer(delay, tk(pending.op.retry_kind(), req));
            self.quorum.ops.insert(req, pending);
            return;
        }
        // Later calls are re-checks of a diverted write, not new exhaustions.
        if pending.common.retry_round == REPLICA_RETRY_MAX {
            pending.common.retry_round += 1;
            self.metrics.retries_exhausted.inc();
        }
        let Pending { mut common, mut op } = pending;
        match op.on_exhausted(self, ctx, req, &mut common) {
            Exhausted::Park => {
                self.quorum.ops.insert(req, Pending { common, op });
            }
            Exhausted::Diverted => {
                let done = self.drv_resolve(ctx, &mut common, &mut op);
                if !done {
                    ctx.set_timer(self.cfg.replica_timeout_us, tk(op.retry_kind(), req));
                    self.quorum.ops.insert(req, Pending { common, op });
                }
            }
        }
    }

    /// Hard request deadline: the entry is removed and the op settles with
    /// the caller (failure if quorum was never met, read repair otherwise).
    pub(crate) fn drv_on_hard_timeout(&mut self, ctx: &mut Context<'_, Msg>, req: u64) {
        let Some(pending) = self.quorum.ops.remove(&req) else { return };
        let Pending { common, mut op } = pending;
        op.on_deadline(self, ctx, &common);
    }
}
