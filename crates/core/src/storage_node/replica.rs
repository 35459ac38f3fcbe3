//! The replica-level server side of the storage node: applying
//! coordinator-issued stores/fetches/hints, and the group commit that
//! keeps "ack" meaning "durable here" (DESIGN.md §9).

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
use std::sync::Arc;

use mystore_bson::doc;
use mystore_engine::Record;
use mystore_net::{Context, NodeId, OpFault, SyncJob};

use crate::config::COST;
use crate::message::{BatchPut, Msg};
use crate::storage_node::coordinator::quorum::Reply;
use crate::storage_node::{StorageNode, DATA, HINTS};

impl StorageNode {
    /// Acks a write this handler staged: a success waits until the WAL is
    /// durable up to the write (an ack must mean "durable here"); a failure
    /// needs no durability and is answered at once.
    pub(crate) fn park_ack(&mut self, ctx: &mut Context<'_, Msg>, to: NodeId, req: u64, ok: bool) {
        if ok {
            self.parked_acks.push((to, req, self.db.wal_end_pos()));
        } else {
            ctx.send(to, Msg::StoreAck { req, ok });
        }
    }

    /// The group commit, run at the end of every batch and after every
    /// sync: releases the parked acks the durable watermark now covers,
    /// then — if no sync is in flight and frames are staged — starts the
    /// one sync that covers them all, off the node's thread. This is the
    /// only place a sync starts, so at most one is in flight and frames
    /// staged meanwhile ride the next.
    pub(crate) fn commit(&mut self, ctx: &mut Context<'_, Msg>) {
        self.release_parked(ctx, self.db.wal_durable_pos(), true);
        if self.syncing.is_some() || self.db.wal_pending_ops() == 0 {
            return;
        }
        match self.db.begin_wal_sync() {
            Ok((upto, file)) => {
                self.syncing = Some(upto);
                ctx.start_sync(file.map(|f| SyncJob::new(move || f.sync_data().is_ok())));
            }
            // Not even a handle to sync with: as good as a failed sync.
            Err(_) => self.release_parked(ctx, self.db.wal_end_pos(), false),
        }
    }

    /// The sync in flight finished ([`mystore_net::Process::on_sync_done`]):
    /// on success its acks are released, on failure every ack it covered is
    /// answered `ok: false`; then the frames staged meanwhile start the
    /// next sync at once.
    pub(crate) fn sync_done(&mut self, ctx: &mut Context<'_, Msg>, ok: bool) {
        let Some(upto) = self.syncing.take() else { return };
        self.db.finish_wal_sync(ok);
        if !ok {
            self.release_parked(ctx, upto, false);
        }
        self.commit(ctx);
    }

    /// Answers every parked ack whose write is at or below WAL position
    /// `upto`: this node's own copies count toward `W`, remote acks leave
    /// as one `StoreAck` or `StoreAckBatch` per destination.
    pub(crate) fn release_parked(&mut self, ctx: &mut Context<'_, Msg>, upto: u64, ok: bool) {
        let (own, rest): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.parked_own).into_iter().partition(|&(_, _, at)| at <= upto);
        self.parked_own = rest;
        let (acks, rest): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.parked_acks).into_iter().partition(|&(_, _, at)| at <= upto);
        self.parked_acks = rest;
        for (req, slot, _) in own {
            self.drv_on_reply(ctx, req, slot, Reply::Ack { ok });
        }
        let mut by_dest: BTreeMap<NodeId, Vec<(u64, bool)>> = BTreeMap::new();
        for (to, req, _) in acks {
            by_dest.entry(to).or_default().push((req, ok));
        }
        for (to, acks) in by_dest {
            match acks.as_slice() {
                &[(req, ok)] => ctx.send(to, Msg::StoreAck { req, ok }),
                _ => ctx.send(to, Msg::StoreAckBatch { acks }),
            }
        }
    }

    pub(crate) fn on_store_replica(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: NodeId,
        req: u64,
        record: Arc<Record>,
        fault: Option<OpFault>,
    ) {
        match fault {
            Some(OpFault::NetworkException) => return, // message effectively lost
            Some(OpFault::DiskIoError) => {
                if req != 0 {
                    ctx.send(from, Msg::StoreAck { req, ok: false });
                }
                return;
            }
            _ => {}
        }
        ctx.consume(COST.put_us(record.val.len()));
        let ok = self.write_data(&record.self_key, |db| db.put_record(DATA, &record)).is_ok();
        if ok {
            // Dual ownership: a write landing on a still-inbound arc is
            // forwarded to the arc's old owner (no-op outside migrations).
            self.maybe_forward_inbound(ctx, from, &record);
        }
        if req != 0 {
            self.park_ack(ctx, from, req, ok);
        }
    }

    /// A migration batch: each op is a replica write, acked individually
    /// (its message's fault hits every op), so the sender's per-op
    /// bookkeeping is none the wiser.
    pub(crate) fn on_store_replica_batch(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: NodeId,
        ops: Vec<BatchPut>,
        fault: Option<OpFault>,
    ) {
        for op in ops {
            self.on_store_replica(ctx, from, op.req, op.record, fault);
        }
    }

    pub(crate) fn on_fetch_replica(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: NodeId,
        req: u64,
        key: String,
        fault: Option<OpFault>,
    ) {
        match fault {
            Some(OpFault::NetworkException) => return,
            Some(OpFault::DiskIoError) => {
                ctx.send(from, Msg::FetchAck { req, found: None, ok: false });
                return;
            }
            _ => {}
        }
        let found = self.local_fetch(ctx, &key);
        // Dual-ownership reads: a miss on a key whose arc is still inbound
        // is not authoritative — the record may simply not have been
        // transferred yet. Ask the arc's old owner and defer the ack; the
        // `FetchAck` dispatch completes the original request when the
        // source answers (or a sweep expires the proxy with a miss).
        if found.is_none() {
            if let Some(source) = self.proxy_source(&key) {
                let proxy_req = self.fresh_req();
                self.read_proxies.insert(
                    proxy_req,
                    crate::storage_node::migrate::ProxyFetch {
                        requester: from,
                        orig_req: req,
                        sent_at_us: ctx.now().as_micros(),
                    },
                );
                ctx.send(source, Msg::FetchReplica { req: proxy_req, key });
                return;
            }
        }
        ctx.send(from, Msg::FetchAck { req, found, ok: true });
    }

    /// Serves a local read (both the replica side of `FetchReplica` and the
    /// coordinator's own copy during a read fan-out).
    pub(crate) fn local_fetch(&mut self, ctx: &mut Context<'_, Msg>, key: &str) -> Option<Record> {
        let found = self.db.get_record(DATA, key).ok().flatten();
        ctx.consume(COST.get_us(found.as_ref().map(|r| r.val.len()).unwrap_or(0)));
        found
    }

    /// Hinted handoff (Fig. 8), receiving side: park the record durably for
    /// the unreachable `intended` replica.
    pub(crate) fn on_store_hint(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: NodeId,
        req: u64,
        intended: NodeId,
        record: Arc<Record>,
        fault: Option<OpFault>,
    ) {
        match fault {
            Some(OpFault::NetworkException) => return,
            Some(OpFault::DiskIoError) => {
                ctx.send(from, Msg::StoreAck { req, ok: false });
                return;
            }
            _ => {}
        }
        ctx.consume(COST.put_us(record.val.len()));
        // "When C receives the request, it creates an index for the
        // replication" — we persist the hint durably.
        let hint_doc = doc! {
            "intended": intended.0 as i64,
            "rec": record.to_document(),
        };
        let ok = self.db.insert_doc(HINTS, hint_doc).is_ok();
        if ok {
            self.metrics.hints_stored.inc();
            self.metrics.hint_queue_depth.add(1);
        }
        self.park_ack(ctx, from, req, ok);
    }
}
