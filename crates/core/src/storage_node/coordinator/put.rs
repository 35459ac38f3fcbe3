//! The quorum-write operation (§5.2.2) — PUT, DELETE, and the write phase
//! of CAS, as one [`QuorumOp`] over the generic driver.

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
use crate::storage_node::{StorageNode, DATA, HINTS, TK_PUT_HARD, TK_PUT_RETRY};

use super::driver::{Common, Exhausted, OpState, QuorumOp, Reply};

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
    /// Acknowledgements counted towards `W`.
    pub(crate) acks: usize,
    /// Replicas that have not acknowledged yet.
    pub(crate) outstanding: Vec<NodeId>,
    /// Remote nodes whose ack already counted (duplicate-ack dedup).
    pub(crate) acked: Vec<NodeId>,
    /// Hints sent, `(fallback, intended)`; a fallback is never reused.
    pub(crate) hints: Vec<(NodeId, NodeId)>,
    /// How the caller is answered.
    pub(crate) reply: WriteReply,
}

impl QuorumOp for WriteOp {
    fn targets(&self, node: &StorageNode) -> Vec<NodeId> {
        let me = node.id();
        self.outstanding.iter().copied().filter(|&r| r != me).collect()
    }

    fn resend(&self, node: &mut StorageNode, ctx: &mut Context<'_, Msg>, req: u64, to: NodeId) {
        node.send_replica(ctx, to, req, &self.record);
        node.metrics.put_retries.inc();
        ctx.record("put_retry", 1.0);
    }

    fn on_reply(&mut self, from: NodeId, reply: Reply) {
        let Reply::Ack { ok } = reply else { return };
        // Retries and chaotic links can duplicate acks: count each node once.
        // A failed ack leaves the replica in `outstanding`; the retry path
        // re-sends and eventually diverts it to a fallback node. A
        // fallback's ack settles the replica its hint stands in for.
        if ok && !self.acked.contains(&from) {
            self.acked.push(from);
            self.acks += 1;
            let intended = self.hints.iter().find(|&&(f, _)| f == from).map(|&(_, i)| i);
            self.outstanding.retain(|&r| r != from && Some(r) != intended);
        }
    }

    fn quorum_met(&self, node: &StorageNode, _common: &Common) -> bool {
        self.acks >= node.cfg.nwr.w
    }

    fn on_success(&mut self, node: &mut StorageNode, ctx: &mut Context<'_, Msg>, common: &Common) {
        match self.reply {
            WriteReply::Put => {
                node.metrics.quorum_write_ok.inc();
                node.metrics
                    .quorum_write_latency_us
                    .record(ctx.now().as_micros().saturating_sub(common.started_us));
                ctx.record("put_ok", 1.0);
                ctx.send(common.caller, Msg::PutResp { req: common.caller_req, result: Ok(()) });
            }
            WriteReply::Cas { cas_started_us } => {
                node.cas_write_succeeded(ctx, common, self.record.version, cas_started_us)
            }
        }
    }

    fn is_complete(&self, common: &Common) -> bool {
        common.replied && self.outstanding.is_empty()
    }

    /// Divert-to-handoff (Fig. 8): every straggler gets its write parked on
    /// a fallback node whose ack still counts towards `W`. Gossip relays
    /// liveness, so a fallback may be alive yet unreachable from here: a
    /// straggler whose hint is still unacked when the driver calls back is
    /// diverted to the next fallback, at worst the coordinator itself.
    /// With handoff off or no fallback left, the write parks until the
    /// hard deadline decides.
    fn on_exhausted(
        &mut self,
        node: &mut StorageNode,
        ctx: &mut Context<'_, Msg>,
        req: u64,
        _common: &mut Common,
    ) -> Exhausted {
        if !node.cfg.hinted_handoff {
            return Exhausted::Park;
        }
        let me = node.id();
        let hinted = self.hints.len();
        for intended in self.outstanding.clone() {
            if intended == me {
                continue;
            }
            if let Some(fallback) = node.pick_fallback(self) {
                self.hints.push((fallback, intended));
                node.metrics.handoffs.inc();
                ctx.record("handoff", 1.0);
                if fallback == me {
                    // The coordinator may be the only node left standing —
                    // it holds the hint itself, staged like any local
                    // write: once durable it counts for `intended`.
                    ctx.consume(COST.put_us(self.record.val.len()));
                    let hint_doc = doc! {
                        "intended": intended.0 as i64,
                        "rec": self.record.to_document(),
                    };
                    if node.db.insert_doc(HINTS, hint_doc).is_ok() {
                        node.metrics.hints_stored.inc();
                        node.metrics.hint_queue_depth.add(1);
                        node.parked_own.push((req, intended, node.db.wal_end_pos()));
                    }
                } else {
                    ctx.send(
                        fallback,
                        Msg::StoreHint { req, intended, record: self.record.clone() },
                    );
                }
            }
        }
        if self.hints.len() > hinted {
            Exhausted::Diverted
        } else {
            Exhausted::Park
        }
    }

    fn on_deadline(&mut self, node: &mut StorageNode, ctx: &mut Context<'_, Msg>, common: &Common) {
        if common.replied {
            return;
        }
        match self.reply {
            WriteReply::Put => {
                node.metrics.quorum_write_failed.inc();
                ctx.record("put_fail", 1.0);
                ctx.send(
                    common.caller,
                    Msg::PutResp {
                        req: common.caller_req,
                        result: Err(StoreError::QuorumWriteFailed),
                    },
                );
            }
            WriteReply::Cas { .. } => {
                node.cas_deadline_failed(ctx, common, StoreError::QuorumWriteFailed)
            }
        }
    }

    fn retry_kind(&self) -> u64 {
        TK_PUT_RETRY
    }

    fn hard_kind(&self) -> u64 {
        TK_PUT_HARD
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
        let common = Common {
            caller,
            caller_req,
            retry_round: 0,
            replied: false,
            started_us: ctx.now().as_micros(),
        };
        let op = WriteOp {
            record: Arc::clone(&record),
            acks: 0,
            outstanding: prefs.clone(),
            acked: Vec::new(),
            hints: Vec::new(),
            reply,
        };
        let me = self.id();
        if prefs.contains(&me) {
            // "The node firstly stores the data records locally" (§5.2.2):
            // staged, it counts toward `W` once its sync completes, while
            // the replica writes below are already on their way.
            ctx.consume(COST.put_us(record.val.len()));
            if self.write_data(&record.self_key, |db| db.put_record(DATA, &record)).is_ok() {
                self.parked_own.push((my_req, me, self.db.wal_end_pos()));
            }
        }
        self.drv_finish_start(ctx, my_req, common, OpState::Write(op));
        for &replica in prefs.iter().filter(|&&r| r != me) {
            self.send_replica(ctx, replica, my_req, &record);
        }
    }

    /// Sends one replica write of a client write (first send or resend),
    /// counted in `batch.replica_msgs` / `batch.replica_ops`.
    fn send_replica(
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
