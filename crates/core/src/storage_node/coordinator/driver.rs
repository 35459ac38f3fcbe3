//! The quorum engine.
//!
//! Every coordinated operation — PUT, GET, CAS — is a [`Pending`] entry
//! in the node's pending table: who asked and how far the op got, plus an
//! [`Op`], a quorum write or a quorum read. The driver runs one lifecycle
//! for both and matches on the op only where they differ:
//!
//! 1. **start** — the op fans out to its replica targets, then
//!    [`StorageNode::drv_finish_start`] checks for immediate quorum and
//!    arms the retry and deadline timers;
//! 2. **replies** — [`StorageNode::drv_on_reply`] folds an ack into a
//!    write or a fetch answer into a read (each counts a node once),
//!    answers the caller the moment quorum is met, and retires the entry
//!    when every target has answered (a read then runs read repair);
//! 3. **retry** — while budget remains, re-send to stragglers and re-arm
//!    with exponential backoff plus jitter; on exhaustion a write diverts
//!    its stragglers to hinted handoff and a read waits for the deadline;
//! 4. **deadline** — the entry is removed and the caller, if still
//!    unanswered, is told the op failed.
//!
//! See DESIGN.md §11.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use mystore_engine::Record;
use mystore_net::{Context, NodeId};

use crate::message::Msg;
use crate::storage_node::maintenance::Sent;
use crate::storage_node::{tk, StorageNode, HINTS, TK_DEADLINE, TK_RETRY};

use super::get::ReadOp;
use super::put::WriteOp;

/// How many times a coordinator re-sends a replica op to a straggler
/// before the op decides (writes divert to hinted handoff, reads wait).
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

/// What a coordinated operation does with its replicas.
pub(crate) enum Op {
    /// A quorum write (PUT, DELETE, or the CAS write phase).
    Write(WriteOp),
    /// A quorum read (GET, or the CAS predicate-check phase).
    Read(ReadOp),
}

/// One in-flight coordinated operation, keyed in the pending table by the
/// coordinator-scoped request id its replica messages carry.
pub(crate) struct Pending {
    /// Who asked for the operation (frontend, test probe, peer).
    pub(crate) caller: NodeId,
    /// The caller's correlation id, echoed in the reply.
    pub(crate) caller_req: u64,
    /// Coordinator clock when the request arrived (latency histograms).
    pub(crate) started_us: u64,
    /// Retry rounds already spent on stragglers.
    pub(crate) retry_round: u32,
    /// Whether the caller has been answered (quorum was met).
    pub(crate) replied: bool,
    pub(crate) op: Op,
}

impl Pending {
    /// A fresh entry for `op`, started now on the coordinator's clock.
    pub(crate) fn new(ctx: &Context<'_, Msg>, caller: NodeId, caller_req: u64, op: Op) -> Self {
        let started_us = ctx.now().as_micros();
        Pending { caller, caller_req, started_us, retry_round: 0, replied: false, op }
    }
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
    /// met (`W` distinct acks, or the read's quorum of replies), and
    /// reports whether the entry can retire: a write once every replica
    /// acked, a read once every replica answered, after its read repair.
    fn drv_resolve(&mut self, ctx: &mut Context<'_, Msg>, p: &mut Pending) -> bool {
        let met = match &p.op {
            Op::Write(op) => op.acked.len() >= self.cfg.nwr.w,
            Op::Read(op) => op.replies.len() >= op.read_quorum,
        };
        if !p.replied && met {
            p.replied = true;
            match &p.op {
                Op::Write(op) => self.write_succeeded(ctx, p, op),
                Op::Read(op) => self.read_succeeded(ctx, p, op),
            }
        }
        match &p.op {
            Op::Write(op) => p.replied && op.outstanding.is_empty(),
            Op::Read(op) => {
                let done = op.replies.len() == op.prefs.len();
                if done {
                    self.read_repair(ctx, op);
                }
                done
            }
        }
    }

    /// Tail of every `start_*` entry point: immediate-quorum check (the
    /// coordinator may be a replica of the key itself), then park the entry
    /// and arm the retry and deadline timers.
    pub(crate) fn drv_finish_start(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        my_req: u64,
        mut p: Pending,
    ) {
        if !self.drv_resolve(ctx, &mut p) {
            self.pending.insert(my_req, p);
            ctx.set_timer(self.cfg.replica_timeout_us, tk(TK_RETRY, my_req));
            ctx.set_timer(self.cfg.request_deadline_us, tk(TK_DEADLINE, my_req));
        }
    }

    /// Folds one replica reply into the pending op (if any — late replies
    /// for retired entries are dropped here). A reply whose shape does not
    /// fit the op counts for nothing.
    pub(crate) fn drv_on_reply(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        req: u64,
        from: NodeId,
        reply: Reply,
    ) {
        let Some(mut p) = self.pending.remove(&req) else { return };
        match (&mut p.op, reply) {
            (Op::Write(op), Reply::Ack { ok }) => op.on_ack(from, ok),
            (Op::Read(op), Reply::Fetch { found, ok }) => op.on_fetch(from, found, ok),
            _ => {}
        }
        if !self.drv_resolve(ctx, &mut p) {
            self.pending.insert(req, p);
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
    /// stragglers with exponential backoff. Once it is spent, a write
    /// diverts to hinted handoff (Fig. 8 — "if one node fails, the system
    /// writes to the next node on the ring") and re-checks after another
    /// replica timeout; a read, and a write with nothing left to divert,
    /// waits for replies or the deadline.
    pub(crate) fn drv_on_retry_timeout(&mut self, ctx: &mut Context<'_, Msg>, req: u64) {
        let Some(mut p) = self.pending.remove(&req) else { return };
        if p.retry_round < REPLICA_RETRY_MAX {
            p.retry_round += 1;
            let me = self.id();
            match &p.op {
                Op::Write(op) => {
                    for &to in op.outstanding.iter().filter(|&&r| r != me) {
                        self.send_replica(ctx, to, req, &op.record);
                        self.metrics.put_retries.inc();
                        ctx.record("put_retry", 1.0);
                    }
                }
                Op::Read(op) => {
                    let answered = |n: NodeId| op.replies.iter().any(|&(r, _)| r == n);
                    for &to in op.prefs.iter().filter(|&&n| n != me && !answered(n)) {
                        ctx.send(to, Msg::FetchReplica { req, key: op.key.clone() });
                        self.metrics.get_retries.inc();
                        ctx.record("get_retry", 1.0);
                    }
                }
            }
            let delay = self.backoff_delay(ctx, p.retry_round);
            ctx.set_timer(delay, tk(TK_RETRY, req));
            self.pending.insert(req, p);
            return;
        }
        // Later calls are re-checks of a diverted write, not new exhaustions.
        if p.retry_round == REPLICA_RETRY_MAX {
            p.retry_round += 1;
            self.metrics.retries_exhausted.inc();
        }
        let diverted = match &mut p.op {
            Op::Write(op) => self.divert_to_hints(ctx, req, op),
            Op::Read(_) => false,
        };
        if diverted {
            if self.drv_resolve(ctx, &mut p) {
                return;
            }
            ctx.set_timer(self.cfg.replica_timeout_us, tk(TK_RETRY, req));
        }
        self.pending.insert(req, p);
    }

    /// Hard request deadline: the entry is removed. An unanswered caller
    /// is told the op failed; an answered read settles what its partial
    /// reply set still owes the slow replicas.
    pub(crate) fn drv_on_hard_timeout(&mut self, ctx: &mut Context<'_, Msg>, req: u64) {
        let Some(p) = self.pending.remove(&req) else { return };
        match &p.op {
            Op::Write(op) if !p.replied => self.write_failed(ctx, &p, op),
            Op::Read(op) if !p.replied => self.read_failed(ctx, &p, op),
            Op::Read(op) => self.read_repair(ctx, op),
            Op::Write(_) => {}
        }
    }
}
