//! The quorum write (§5.2.2) — PUT, DELETE, and the write phase of CAS:
//! its fan-out, its ack accounting, its answers, and its diversion of
//! stragglers to hinted handoff.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::sync::Arc;

use mystore_bson::doc;
use mystore_engine::{pack_version, Record};
use mystore_net::{Context, NodeId};
use mystore_ring::HashRing;

use crate::config::COST;
use crate::message::{Body, Msg, StoreError};
use crate::storage_node::{StorageNode, DATA, HINTS};

use super::driver::{Op, Pending};

/// Who gets told about the write's outcome, and how.
pub(crate) enum WriteReply {
    /// A plain PUT/DELETE: reply `PutResp`, count `quorum.write.*`.
    Put,
    /// The write phase of a CAS: reply `CasResp` with the new version,
    /// count `cas.*` with latency from the CAS's arrival (the read phase
    /// is part of the same client operation).
    Cas {
        /// Coordinator clock when the original `Msg::Cas` arrived.
        cas_started_us: u64,
    },
}

/// Op-specific state of an in-flight quorum write.
pub(crate) struct WriteOp {
    /// The versioned record being replicated (shared, never copied).
    pub(crate) record: Arc<Record>,
    /// Replicas that have not acknowledged yet.
    pub(crate) outstanding: Vec<NodeId>,
    /// Nodes whose ack counted towards `W`, each once.
    pub(crate) acked: Vec<NodeId>,
    /// Hints sent, `(fallback, intended)`; a fallback is never reused.
    pub(crate) hints: Vec<(NodeId, NodeId)>,
    /// How the caller is answered.
    pub(crate) reply: WriteReply,
}

impl WriteOp {
    /// Folds in one ack. Retries and chaotic links duplicate acks, so a
    /// node counts once.
    pub(crate) fn on_ack(&mut self, from: NodeId, ok: bool) {
        if !ok {
            // The replica stays in `outstanding`; the retry path re-sends
            // and eventually diverts it to a fallback node.
            return;
        }
        // A fallback's ack settles the replica its hint stands in for.
        let intended = self.hints.iter().find(|&&(f, _)| f == from).map(|&(_, i)| i);
        self.outstanding.retain(|&r| r != from && Some(r) != intended);
        // `W` counts distinct nodes: a coordinator holding a hint itself
        // acks as itself, so its own copy and that hint count once.
        if !self.acked.contains(&from) {
            self.acked.push(from);
        }
    }
}

impl StorageNode {
    /// Coordinator entry point for PUT/DELETE (§5.2.2).
    pub(crate) fn start_put(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        caller: NodeId,
        caller_req: u64,
        key: String,
        value: Body,
        delete: bool,
    ) {
        let n = self.cfg.nwr.n;
        let prefs = self.ring.preference_list(key.as_bytes(), n);
        if prefs.is_empty() {
            ctx.send(caller, Msg::PutResp { req: caller_req, result: Err(StoreError::NoRing) });
            return;
        }
        let record = self.build_record(ctx, key, value, delete);
        self.start_write(ctx, caller, caller_req, prefs, record, WriteReply::Put);
    }

    /// Stamps a fresh LWW version and object id onto a new record. The
    /// shared [`Body`] is materialized into the record's owned payload here
    /// — the single copy point on the write path (and not even a copy when
    /// this coordinator holds the last reference).
    pub(crate) fn build_record(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        key: String,
        value: Body,
        delete: bool,
    ) -> Arc<Record> {
        let version = pack_version(ctx.now().as_micros(), self.id().0 as u16);
        // Deterministic id: sim seconds + node machine id via the Db's
        // OidGen (a raw ObjectId::new here would leak wall clock into the
        // replicated data and break seeded replay).
        self.db.set_oid_secs((ctx.now().as_micros() / 1_000_000) as u32);
        let oid = self.db.fresh_oid(DATA);
        Arc::new(if delete {
            Record::tombstone(oid, key, version)
        } else {
            let owned = Arc::try_unwrap(value).unwrap_or_else(|shared| (*shared).clone());
            Record::new(oid, key, owned, version)
        })
    }

    /// Fans a versioned record out to its preference list and hands the op
    /// to the driver. Shared by PUT/DELETE and the CAS write phase; only
    /// the `reply` policy differs.
    pub(crate) fn start_write(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        caller: NodeId,
        caller_req: u64,
        prefs: Vec<NodeId>,
        record: Arc<Record>,
        reply: WriteReply,
    ) {
        let my_req = self.fresh_req();
        if matches!(reply, WriteReply::Put) {
            self.metrics.quorum_write_started.inc();
        }
        let op = WriteOp {
            record: Arc::clone(&record),
            outstanding: prefs.clone(),
            acked: Vec::new(),
            hints: Vec::new(),
            reply,
        };
        let p = Pending::new(ctx, caller, caller_req, Op::Write(op));
        let me = self.id();
        if prefs.contains(&me) {
            // "The node firstly stores the data records locally" (§5.2.2):
            // staged, it counts toward `W` once its sync completes, while
            // the replica writes below are already on their way.
            ctx.consume(COST.put_us(record.val.len()));
            if self.write_data(&record.self_key, |db| db.put_record(DATA, &record)).is_ok() {
                self.parked_own.push((my_req, self.db.wal_end_pos()));
            }
        }
        self.drv_finish_start(ctx, my_req, p);
        for &replica in prefs.iter().filter(|&&r| r != me) {
            self.send_replica(ctx, replica, my_req, &record);
        }
    }

    /// Sends one replica write of a client write (first send or resend),
    /// counted in `batch.replica_msgs` / `batch.replica_ops`.
    pub(crate) fn send_replica(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        to: NodeId,
        req: u64,
        rec: &Arc<Record>,
    ) {
        self.metrics.batch_msgs.inc();
        self.metrics.batch_ops.inc();
        ctx.send(to, Msg::StoreReplica { req, record: Arc::clone(rec) });
    }

    /// The write reached `W`: answer the caller.
    pub(crate) fn write_succeeded(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        p: &Pending,
        op: &WriteOp,
    ) {
        match op.reply {
            WriteReply::Put => {
                self.metrics.quorum_write_ok.inc();
                self.metrics
                    .quorum_write_latency_us
                    .record(ctx.now().as_micros().saturating_sub(p.started_us));
                ctx.record("put_ok", 1.0);
                ctx.send(p.caller, Msg::PutResp { req: p.caller_req, result: Ok(()) });
            }
            WriteReply::Cas { cas_started_us } => {
                self.cas_write_succeeded(ctx, p, op.record.version, cas_started_us)
            }
        }
    }

    /// The deadline passed before `W`: tell the caller the write failed.
    pub(crate) fn write_failed(&mut self, ctx: &mut Context<'_, Msg>, p: &Pending, op: &WriteOp) {
        let err = StoreError::QuorumWriteFailed;
        match op.reply {
            WriteReply::Put => {
                self.metrics.quorum_write_failed.inc();
                ctx.record("put_fail", 1.0);
                ctx.send(p.caller, Msg::PutResp { req: p.caller_req, result: Err(err) });
            }
            WriteReply::Cas { .. } => self.cas_deadline_failed(ctx, p, err),
        }
    }

    /// Divert-to-handoff (Fig. 8): every straggler gets its write parked on
    /// a fallback node whose ack still counts towards `W`. Gossip relays
    /// liveness, so a fallback may be alive yet unreachable from here: a
    /// straggler whose hint is still unacked at the next call is diverted
    /// to the next fallback, at worst the coordinator itself. Returns
    /// whether any hint went out; with handoff off or no fallback left,
    /// none does and the write waits for the deadline.
    pub(crate) fn divert_to_hints(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        req: u64,
        op: &mut WriteOp,
    ) -> bool {
        if !self.cfg.hinted_handoff {
            return false;
        }
        let me = self.id();
        let hinted = op.hints.len();
        for intended in op.outstanding.clone() {
            if intended == me {
                continue;
            }
            let Some(fallback) = self.pick_fallback(op) else { continue };
            op.hints.push((fallback, intended));
            self.metrics.handoffs.inc();
            ctx.record("handoff", 1.0);
            if fallback != me {
                ctx.send(fallback, Msg::StoreHint { req, intended, record: op.record.clone() });
                continue;
            }
            // The coordinator may be the only node left standing — it
            // holds the hint itself, staged like any local write: once
            // durable it settles `intended`'s slot as an ack from the
            // coordinator.
            ctx.consume(COST.put_us(op.record.val.len()));
            let hint_doc = doc! { "intended": intended.0 as i64, "rec": op.record.to_document() };
            if self.db.insert_doc(HINTS, hint_doc).is_ok() {
                self.metrics.hints_stored.inc();
                self.metrics.hint_queue_depth.add(1);
                self.parked_own.push((req, self.db.wal_end_pos()));
            }
        }
        op.hints.len() > hinted
    }

    /// First alive node clockwise after the preference list that has not
    /// been used as a fallback for this request. The coordinator itself is
    /// eligible (it is alive by definition).
    pub(crate) fn pick_fallback(&self, op: &WriteOp) -> Option<NodeId> {
        let point = HashRing::<NodeId>::key_point(op.record.self_key.as_bytes());
        let walk = self.ring.successors_of_point(point, self.ring.len());
        let prefs = self.ring.preference_list(op.record.self_key.as_bytes(), self.cfg.nwr.n);
        let used = |n: &NodeId| op.hints.iter().any(|(f, _)| f == n);
        walk.into_iter()
            .find(|n| !prefs.contains(n) && !used(n) && self.gossiper.is_alive(*n))
            .or_else(|| {
                // Cluster size == N, or every node beyond the preference
                // list already tried: the coordinator parks the hint itself.
                let me = self.id();
                (!used(&me)).then_some(me)
            })
    }
}
