//! The quorum read (§5.2.2) — GET and the CAS predicate-check phase: its
//! fan-out, its reply collection, its answers, and the read repair /
//! replica supplementation that runs once every replica answered.

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

use mystore_engine::{lww_winner, Record};
use mystore_net::{Context, NodeId};

use crate::message::{Body, Msg, StoreError};
use crate::storage_node::{StorageNode, DATA};

use super::driver::{Op, Pending};

/// Why the read is running — it decides who is answered, and how.
pub(crate) enum ReadPurpose {
    /// A client GET: reply `GetResp`, count `quorum.read.*`.
    Get,
    /// The predicate-check phase of a CAS: the LWW winner is fed to the
    /// version check, which either rejects with a conflict or chains into
    /// the write phase (see `cas.rs`).
    Cas {
        /// The payload to write when the predicate holds.
        value: Body,
        /// The version the caller last observed (`0` = absent).
        expected: u64,
        /// Coordinator clock when the `Msg::Cas` arrived.
        cas_started_us: u64,
    },
}

/// Op-specific state of an in-flight quorum read.
pub(crate) struct ReadOp {
    /// The key being read.
    pub(crate) key: String,
    /// The key's preference list (the read's target set).
    pub(crate) prefs: Vec<NodeId>,
    /// (replica, its record if any) for successful replies — one per node.
    pub(crate) replies: Vec<(NodeId, Option<Record>)>,
    /// Successful replies needed before answering: `R` for client reads,
    /// `max(R, N-W+1)` for CAS predicate checks.
    pub(crate) read_quorum: usize,
    /// Who is waiting on this read.
    pub(crate) purpose: ReadPurpose,
}

impl ReadOp {
    /// The canonical LWW winner among the replies, via the engine-owned
    /// comparator (ties keep the first reply, so every coordinator resolves
    /// the same winner regardless of reply order).
    pub(crate) fn newest(&self) -> Option<&Record> {
        lww_winner(self.replies.iter().filter_map(|(_, r)| r.as_ref()))
    }

    /// Folds in one replica's answer. Retries and chaotic links duplicate
    /// replies, so a node counts once; a failed read is tolerated (§5.1):
    /// replication covers it.
    pub(crate) fn on_fetch(&mut self, from: NodeId, found: Option<Record>, ok: bool) {
        if ok && !self.replies.iter().any(|(n, _)| *n == from) {
            self.replies.push((from, found));
        }
    }
}

impl StorageNode {
    /// Coordinator entry point for GET (§5.2.2).
    pub(crate) fn start_get(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        caller: NodeId,
        caller_req: u64,
        key: String,
    ) {
        let n = self.cfg.nwr.n;
        let prefs = self.ring.preference_list(key.as_bytes(), n);
        if prefs.is_empty() {
            ctx.send(caller, Msg::GetResp { req: caller_req, result: Err(StoreError::NoRing) });
            return;
        }
        self.metrics.quorum_read_started.inc();
        let read_quorum = self.cfg.nwr.r;
        self.start_read(ctx, caller, caller_req, key, prefs, read_quorum, ReadPurpose::Get);
    }

    /// Fans a read out to the key's preference list and hands the op to the
    /// driver. Shared by GET and the CAS predicate check; only the quorum
    /// size and the `purpose` differ.
    #[allow(
        clippy::too_many_arguments,
        reason = "the op's fields, passed flat: GET and the CAS predicate read share this entry"
    )]
    pub(crate) fn start_read(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        caller: NodeId,
        caller_req: u64,
        key: String,
        prefs: Vec<NodeId>,
        read_quorum: usize,
        purpose: ReadPurpose,
    ) {
        let my_req = self.fresh_req();
        let mut replies = Vec::new();
        let me = self.id();
        for &replica in &prefs {
            if replica == me {
                let found = self.local_fetch(ctx, &key);
                // Dual ownership: a local miss on a still-inbound arc is
                // not authoritative (the record may not have transferred
                // yet). Loop the fetch through our own replica path, which
                // proxies it to the arc's old owner and answers with a
                // normal `FetchAck` — the driver never knows.
                if found.is_none() && self.proxy_source(&key).is_some() {
                    ctx.send(me, Msg::FetchReplica { req: my_req, key: key.clone() });
                } else {
                    replies.push((me, found));
                }
            } else {
                ctx.send(replica, Msg::FetchReplica { req: my_req, key: key.clone() });
            }
        }
        let op = ReadOp { key, prefs, replies, read_quorum, purpose };
        let p = Pending::new(ctx, caller, caller_req, Op::Read(op));
        self.drv_finish_start(ctx, my_req, p);
    }

    /// The read met its quorum: answer a GET with the LWW winner, or hand
    /// a CAS's winner to its version check.
    pub(crate) fn read_succeeded(&mut self, ctx: &mut Context<'_, Msg>, p: &Pending, op: &ReadOp) {
        if let ReadPurpose::Cas { .. } = op.purpose {
            return self.cas_read_decided(ctx, p, op);
        }
        let result = match op.newest() {
            Some(rec) if !rec.is_del => Ok(Some(Arc::new(rec.val.clone()))),
            _ => Ok(None),
        };
        self.metrics.quorum_read_ok.inc();
        self.metrics
            .quorum_read_latency_us
            .record(ctx.now().as_micros().saturating_sub(p.started_us));
        ctx.record("get_ok", 1.0);
        ctx.send(p.caller, Msg::GetResp { req: p.caller_req, result });
    }

    /// The deadline passed before the read's quorum: tell the caller the
    /// read failed.
    pub(crate) fn read_failed(&mut self, ctx: &mut Context<'_, Msg>, p: &Pending, op: &ReadOp) {
        let err = StoreError::QuorumReadFailed;
        if let ReadPurpose::Cas { .. } = op.purpose {
            return self.cas_deadline_failed(ctx, p, err);
        }
        self.metrics.quorum_read_failed.inc();
        ctx.record("get_fail", 1.0);
        ctx.send(p.caller, Msg::GetResp { req: p.caller_req, result: Err(err) });
    }

    /// "The Get operation gets all replications of the specified key, and
    /// checks the number of replication. If replications are less than N
    /// ... some more replications are supplemented" (§5.2.2) — plus classic
    /// read repair of stale copies.
    ///
    /// Only replicas that are actually behind get a push: a replica already
    /// holding the winner is left alone, and a replica missing the key is
    /// only supplemented when the winner is live data — pushing a tombstone
    /// at a node that holds nothing would *create* state for a deleted key,
    /// which the reaper then collects and the next read re-creates.
    pub(crate) fn read_repair(&mut self, ctx: &mut Context<'_, Msg>, op: &ReadOp) {
        let Some(newest) = op.newest() else { return };
        // One shared copy feeds every push, however many replicas are stale.
        let newest = Arc::new(newest.clone());
        let me = self.id();
        for (node, found) in &op.replies {
            let stale = match found {
                None => !newest.is_del,
                Some(r) => newest.wins_over(r),
            };
            if !stale {
                continue;
            }
            self.metrics.read_repair_pushes.inc();
            ctx.record("read_repair", 1.0);
            if *node == me {
                let _ = self.write_data(&newest.self_key, |db| db.put_record(DATA, &newest));
            } else {
                // Fire-and-forget: acks for req 0 are ignored.
                ctx.send(*node, Msg::StoreReplica { req: 0, record: Arc::clone(&newest) });
            }
        }
    }
}
