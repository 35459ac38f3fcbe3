//! The quorum-read operation (§5.2.2) — GET and the CAS predicate-check
//! phase, as one [`QuorumOp`] over the generic driver, including the read
//! repair / replica supplementation that runs once every replica answered.

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
use crate::storage_node::{StorageNode, DATA, TK_GET_HARD, TK_GET_RETRY};

use super::driver::{Common, Exhausted, OpState, QuorumOp, Reply};

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
}

impl QuorumOp for ReadOp {
    fn targets(&self, node: &StorageNode) -> Vec<NodeId> {
        let me = node.id();
        self.prefs
            .iter()
            .copied()
            .filter(|&p| p != me && !self.replies.iter().any(|(n, _)| *n == p))
            .collect()
    }

    fn resend(&self, node: &mut StorageNode, ctx: &mut Context<'_, Msg>, req: u64, to: NodeId) {
        ctx.send(to, Msg::FetchReplica { req, key: self.key.clone() });
        node.metrics.get_retries.inc();
        ctx.record("get_retry", 1.0);
    }

    fn on_reply(&mut self, from: NodeId, reply: Reply) {
        let Reply::Fetch { found, ok } = reply else { return };
        // Retries and chaotic links can duplicate replies: one per node.
        // A failed read is tolerated (§5.1): replication covers it.
        if ok && !self.replies.iter().any(|(n, _)| *n == from) {
            self.replies.push((from, found));
        }
    }

    fn quorum_met(&self, _node: &StorageNode, _common: &Common) -> bool {
        self.replies.len() >= self.read_quorum
    }

    fn on_success(&mut self, node: &mut StorageNode, ctx: &mut Context<'_, Msg>, common: &Common) {
        match self.purpose {
            ReadPurpose::Get => {
                let result = match self.newest() {
                    Some(rec) if !rec.is_del => Ok(Some(Arc::new(rec.val.clone()))),
                    _ => Ok(None),
                };
                node.metrics.quorum_read_ok.inc();
                node.metrics
                    .quorum_read_latency_us
                    .record(ctx.now().as_micros().saturating_sub(common.started_us));
                ctx.record("get_ok", 1.0);
                ctx.send(common.caller, Msg::GetResp { req: common.caller_req, result });
            }
            ReadPurpose::Cas { .. } => node.cas_read_decided(ctx, common, self),
        }
    }

    fn is_complete(&self, _common: &Common) -> bool {
        self.replies.len() == self.prefs.len()
    }

    fn on_complete(
        &mut self,
        node: &mut StorageNode,
        ctx: &mut Context<'_, Msg>,
        _common: &Common,
    ) {
        node.read_repair(ctx, self);
    }

    /// Reads have no handoff to divert to — after the budget, the hard
    /// deadline decides.
    fn on_exhausted(
        &mut self,
        _node: &mut StorageNode,
        _ctx: &mut Context<'_, Msg>,
        _req: u64,
        _common: &mut Common,
    ) -> Exhausted {
        Exhausted::Park
    }

    fn on_deadline(&mut self, node: &mut StorageNode, ctx: &mut Context<'_, Msg>, common: &Common) {
        if common.replied {
            // Quorum was answered; settle what the partial reply set still
            // owes the slow replicas.
            node.read_repair(ctx, self);
            return;
        }
        match self.purpose {
            ReadPurpose::Get => {
                node.metrics.quorum_read_failed.inc();
                ctx.record("get_fail", 1.0);
                ctx.send(
                    common.caller,
                    Msg::GetResp {
                        req: common.caller_req,
                        result: Err(StoreError::QuorumReadFailed),
                    },
                );
            }
            ReadPurpose::Cas { .. } => {
                node.cas_deadline_failed(ctx, common, StoreError::QuorumReadFailed)
            }
        }
    }

    fn retry_kind(&self) -> u64 {
        TK_GET_RETRY
    }

    fn hard_kind(&self) -> u64 {
        TK_GET_HARD
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
        let my_req = self.fresh_req();
        self.metrics.quorum_read_started.inc();
        let read_quorum = self.cfg.nwr.r;
        self.start_read(ctx, my_req, caller, caller_req, key, prefs, read_quorum, ReadPurpose::Get);
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
        my_req: u64,
        caller: NodeId,
        caller_req: u64,
        key: String,
        prefs: Vec<NodeId>,
        read_quorum: usize,
        purpose: ReadPurpose,
    ) {
        let common = Common {
            caller,
            caller_req,
            retry_round: 0,
            replied: false,
            started_us: ctx.now().as_micros(),
        };
        let mut op = ReadOp {
            key: key.clone(),
            prefs: prefs.clone(),
            replies: Vec::new(),
            read_quorum,
            purpose,
        };
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
                    op.replies.push((me, found));
                }
            } else {
                ctx.send(replica, Msg::FetchReplica { req: my_req, key: key.clone() });
            }
        }
        self.drv_finish_start(ctx, my_req, common, OpState::Read(op));
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
                let _ = self.db.put_record(DATA, &newest);
            } else {
                // Fire-and-forget: acks for req 0 are ignored.
                ctx.send(*node, Msg::StoreReplica { req: 0, record: Arc::clone(&newest) });
            }
        }
    }
}
