//! Background maintenance of the storage node: membership/ring upkeep and
//! rebalance (Fig. 9), hint replay (Fig. 8), anti-entropy exchange, the
//! gossip tick, and the outbound table: requests sent to a peer outside
//! the quorum driver (hint replays, migration copies, proxied fetches),
//! each awaiting one reply under one expiry rule (DESIGN.md §16).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::collections::BTreeSet;
use std::sync::Arc;

use mystore_bson::ObjectId;
use mystore_engine::Record;
use mystore_gossip::{keys as gossip_keys, MembershipEvent};
use mystore_net::{Context, NodeId};
use mystore_ring::HashRing;

use crate::message::Msg;
use crate::storage_node::migrate::Pos;
use crate::storage_node::{tk, StorageNode, DATA, HINTS, TK_GOSSIP};

/// A request sent to `peer` at `sent_at_us`, awaiting its reply; the
/// outbound table keys it by the id [`StorageNode::fresh_req`] gave it.
pub(crate) struct Outbound {
    pub(crate) peer: NodeId,
    pub(crate) sent_at_us: u64,
    pub(crate) kind: Sent,
}

/// What an outbound request was for.
pub(crate) enum Sent {
    /// A hint replay (`StoreReplica`) of this hint document.
    Hint(ObjectId),
    /// A migration copy (`StoreReplica`) of the record at this plan
    /// position; copies settle per `(position, peer)`.
    Copy(Pos),
    /// A `FetchReplica` proxied to an inbound arc's old owner on behalf of
    /// `requester`'s fetch `req`.
    Proxy { requester: NodeId, req: u64 },
}

impl StorageNode {
    // ---- membership -----------------------------------------------------

    /// Builds the membership signature from gossiped state: every known,
    /// not-removed endpoint advertising a positive virtual-node count.
    fn membership_signature(&self) -> Vec<(NodeId, u32)> {
        let mut sig: Vec<(NodeId, u32)> = self
            .gossiper
            .known_endpoints()
            .filter(|&ep| !self.gossiper.is_removed(ep))
            .filter_map(|ep| {
                let vn = if ep == self.id() {
                    self.cfg.effective_vnodes()
                } else {
                    self.gossiper.app_state(ep, gossip_keys::VNODES)?.parse().ok()?
                };
                (vn > 0).then_some((ep, vn))
            })
            .collect();
        sig.sort_unstable();
        sig
    }

    /// Rebuilds the ring if membership changed, and plans the migration of
    /// the records the change re-homed (§5.2.4).
    pub(crate) fn refresh_ring(&mut self, ctx: &mut Context<'_, Msg>) {
        let sig = self.membership_signature();
        if sig == self.ring_sig {
            return;
        }
        let mut ring = HashRing::new();
        for &(node, vnodes) in &sig {
            // The signature is deduped by construction; if a duplicate ever
            // slipped through, keeping the first entry beats crashing.
            let _ = ring.add_node(node, format!("node{}", node.0), vnodes);
        }
        let old_ring = std::mem::replace(&mut self.ring, ring);
        self.ring_sig = sig;
        self.replica_arcs = crate::sync::replica_arcs(&self.ring, self.cfg.nwr.n, self.id());
        // Arc boundaries moved: every cached Merkle leaf hash is stale.
        self.sync_tree.clear();
        // DESIGN.md §16: drain the change incrementally under the per-tick
        // budgets.
        self.start_migration(ctx, old_ring);
    }

    pub(crate) fn process_membership(&mut self, ctx: &mut Context<'_, Msg>) {
        let events = self.gossiper.drain_events();
        // The ring is built from the member set and each member's vnode
        // count: besides up/down events, a peer re-advertising a new count
        // (capacity reweight) moves placement with no membership
        // transition. Re-deriving the signature on every gossip message
        // instead costs as much as the rest of a 100-node cell (§16).
        let vnodes_changed = self.gossiper.take_vnodes_changed();
        if events.is_empty() && !vnodes_changed {
            return;
        }
        for ev in &events {
            match ev {
                MembershipEvent::Joined(n) => ctx.record("member_joined", n.0 as f64),
                MembershipEvent::Up(n) => ctx.record("member_up", n.0 as f64),
                MembershipEvent::Down(n) => ctx.record("member_down", n.0 as f64),
                MembershipEvent::Removed(n) => ctx.record("member_removed", n.0 as f64),
            }
        }
        self.refresh_ring(ctx);
    }

    // ---- hinted handoff replay (Fig. 8) ---------------------------------

    /// Periodic probe: for every held hint whose intended node is back
    /// (detected via gossip heartbeats), write the data back (Fig. 8:
    /// "when it finds that the B node is on-line again, the node C would
    /// write the data back to B").
    pub(crate) fn replay_hints(&mut self, ctx: &mut Context<'_, Msg>) {
        // A replay whose ack never arrived within the request deadline is
        // offered again below. Younger ones are skipped, so a slow ack is
        // not raced by a duplicate replay.
        self.expire_outbound(ctx);
        let in_flight: BTreeSet<ObjectId> = self
            .outbound
            .values()
            .filter_map(|out| match out.kind {
                Sent::Hint(id) => Some(id),
                _ => None,
            })
            .collect();
        let Ok(coll) = self.db.collection(HINTS) else { return };
        let mut replays: Vec<(ObjectId, NodeId, Record)> = Vec::new();
        for (id, docu) in coll.iter() {
            if in_flight.contains(id) {
                continue;
            }
            let Some(intended) = docu.get_i64("intended").map(|v| NodeId(v as u32)) else {
                continue;
            };
            let Some(rec_doc) = docu.get_document("rec") else { continue };
            let Ok(record) = Record::from_raw(&rec_doc) else { continue };
            if self.gossiper.is_alive(intended) || self.gossiper.is_removed(intended) {
                replays.push((*id, intended, record));
            }
        }
        for (hint_id, intended, record) in replays {
            // Long failure: the intended node will never return. The
            // migration its removal triggers re-replicates from live
            // copies, so the hint is dropped.
            if self.gossiper.is_removed(intended) {
                if self.db.remove(HINTS, hint_id).is_ok() {
                    self.metrics.hint_queue_depth.dec_clamped();
                }
                continue;
            }
            let req = self.fresh_req();
            self.track(ctx, req, intended, Sent::Hint(hint_id));
            ctx.send(intended, Msg::StoreReplica { req, record: Arc::new(record) });
        }
    }

    // ---- anti-entropy (extension) ---------------------------------------

    /// Per-key reconciliation of a peer's digest (`SyncDigest`, or the
    /// `SyncLeafDigest` the Merkle walk in `storage_node/sync.rs` bottoms out
    /// in): reply with `newer` (records the caller already found the sender
    /// lacks) plus every record we hold strictly newer than the digest, and counter-digest the keys where we are behind
    /// (missing or older) so the sender pushes those back. The
    /// counter-digest cannot loop: the sender is strictly newer for every
    /// key in it, so its handler only produces a `SyncRecords`.
    pub(crate) fn reconcile(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: NodeId,
        entries: Vec<(String, u64)>,
        mut newer: Vec<Record>,
    ) {
        let mut behind: Vec<(String, u64)> = Vec::new();
        // Digests carry bare versions, so both directions route through the
        // engine-owned comparators (`wins_over_version` is exactly what
        // `wins_over` compares: the packed `(timestamp, writer)` stamp).
        // Equal versions are the same write and need no transfer either way.
        for (key, their_version) in entries {
            match self.db.get_record(DATA, &key) {
                Ok(Some(mine)) if mine.wins_over_version(their_version) => newer.push(mine),
                Ok(Some(mine)) if mine.loses_to_version(their_version) => {
                    behind.push((key, mine.version))
                }
                Ok(Some(_)) => {} // equal
                _ => {
                    // A key we hold no copy of — not even a tombstone. If
                    // its version predates our reap floor, the key was
                    // deleted here and the tombstone physically reclaimed;
                    // pulling the peer's stale live copy would resurrect
                    // the delete. Strictly newer versions are genuinely
                    // missing data and are pulled as before.
                    if their_version > self.reap_floor {
                        behind.push((key, 0));
                    } else {
                        self.sync_metrics.resurrections_blocked.inc();
                    }
                }
            }
        }
        if !newer.is_empty() {
            ctx.send(from, Msg::SyncRecords { records: newer });
        }
        if !behind.is_empty() {
            self.sync_metrics.digest_entries.add(behind.len() as u64);
            ctx.send(from, Msg::SyncDigest { entries: behind });
        }
    }

    /// Consecutive idle anti-entropy rounds tolerated before the period
    /// starts doubling.
    const AE_GRACE_ROUNDS: u32 = 2;

    /// The delay before the next anti-entropy round. With
    /// `anti_entropy_idle_backoff_max > 1`, rounds that observe no new
    /// local writes (`Db::last_seq` unchanged) double the period up to
    /// `interval × max`; any write snaps it back to the base interval.
    pub(crate) fn next_anti_entropy_delay_us(&mut self) -> u64 {
        let base = self.cfg.anti_entropy_interval_us;
        if self.cfg.anti_entropy_idle_backoff_max <= 1 {
            return base;
        }
        let seq = self.db.last_seq();
        if seq == self.ae_last_seq {
            self.ae_quiet_rounds = self.ae_quiet_rounds.saturating_add(1);
        } else {
            self.ae_quiet_rounds = 0;
            self.ae_last_seq = seq;
        }
        let cap = base.saturating_mul(self.cfg.anti_entropy_idle_backoff_max);
        let shift = self.ae_quiet_rounds.saturating_sub(Self::AE_GRACE_ROUNDS).min(32);
        base.saturating_mul(1u64 << shift).min(cap)
    }

    // ---- gossip ----------------------------------------------------------

    pub(crate) fn gossip_tick(&mut self, ctx: &mut Context<'_, Msg>) {
        // Publish capacity and load (the vnode count carries the capacity
        // weight already applied). Unchanged values are not re-published, so
        // a steady-state gossip delta is a bare heartbeat.
        self.gossiper
            .set_app_state_if_changed(gossip_keys::VNODES, self.cfg.effective_vnodes().to_string());
        self.gossiper.set_app_state_if_changed(gossip_keys::LOAD, self.record_count().to_string());
        if self.cfg.weight != 1 {
            self.gossiper
                .set_app_state_if_changed(gossip_keys::WEIGHT, self.cfg.weight.to_string());
        }
        if let Some((done, total)) = self.migration_progress() {
            self.gossiper
                .set_app_state_if_changed(gossip_keys::MIGRATION, format!("{done}/{total}"));
        }
        // Dual-ownership hygiene: drop inbound arcs whose source was
        // declared long-failed (its records re-replicate via the ring
        // change that removal triggers) or has been advertising no
        // migration for a failure-detection period (its cutover was lost,
        // or its plan was re-based away from us). Proxied fetches whose
        // source never replied expire with the rest of the outbound table.
        if !self.pending_in.is_empty() {
            let gossiper = &self.gossiper;
            // The failure detector's own staleness horizon, which widens
            // with the idle backoff like the source's publication cadence.
            let horizon =
                self.cfg.gossip.fail_after_us.max(gossiper.current_interval_us().saturating_mul(6));
            let opened_before = ctx.now().as_micros().saturating_sub(horizon);
            self.pending_in.retain(|e| {
                let migrating = gossiper
                    .app_state(e.source, gossip_keys::MIGRATION)
                    .is_some_and(|m| m != "idle");
                !gossiper.is_removed(e.source) && (migrating || e.opened_at_us > opened_before)
            });
        }
        self.expire_outbound(ctx);
        let now = ctx.now();
        let out = {
            let rng = ctx.rng();
            self.gossiper.tick(now, rng)
        };
        for (to, g) in out {
            ctx.send(to, Msg::Gossip(g));
        }
        self.process_membership(ctx);
        // Re-arm at the gossiper's current cadence: with idle backoff on,
        // a quiet ring widens its own rounds (and scales its failure
        // timeouts to match); any membership churn snaps back to the base
        // interval on the next tick.
        ctx.set_timer(self.gossiper.current_interval_us(), tk(TK_GOSSIP, 0));
    }

    // ---- outbound table ---------------------------------------------------

    /// Records a request just sent to `peer`.
    pub(crate) fn track(&mut self, ctx: &Context<'_, Msg>, req: u64, peer: NodeId, kind: Sent) {
        let sent_at_us = ctx.now().as_micros();
        self.outbound.insert(req, Outbound { peer, sent_at_us, kind });
    }

    /// Settles every entry unanswered for a request deadline, by its kind:
    /// a hint replay is counted and offered again by the next replay (the
    /// hint document is untouched, and replays are idempotent under LWW), a
    /// copy goes back to its plan's retry set, and a proxied fetch answers
    /// its requester `ok: false`, so the quorum driver treats the silence
    /// as a replica failure rather than the entrant's miss as an answer.
    pub(crate) fn expire_outbound(&mut self, ctx: &mut Context<'_, Msg>) {
        let now_us = ctx.now().as_micros();
        let deadline = self.cfg.request_deadline_us;
        let mut hints = 0u64;
        let expired =
            |_: &u64, out: &mut Outbound| now_us.saturating_sub(out.sent_at_us) >= deadline;
        for (_, out) in self.outbound.extract_if(.., expired) {
            match out.kind {
                Sent::Hint(_) => hints += 1,
                Sent::Copy(pos) => {
                    self.metrics.migrate_in_flight.dec_clamped();
                    if let Some(plan) =
                        self.migration.as_mut().filter(|p| p.owed.contains_key(&pos))
                    {
                        plan.retry.insert(pos);
                    }
                }
                Sent::Proxy { requester, req } => {
                    ctx.send(requester, Msg::FetchAck { req, found: None, ok: false })
                }
            }
        }
        if hints > 0 {
            self.metrics.hint_replay_expired.add(hints);
            ctx.record("hint_replay_expired", hints as f64);
        }
    }

    /// Drops every migration copy awaiting an ack (a re-plan or a restart
    /// abandons them) and takes them off the `migrate.in_flight` gauge.
    pub(crate) fn drop_copies(&mut self) {
        let before = self.outbound.len();
        self.outbound.retain(|_, out| !matches!(out.kind, Sent::Copy(_)));
        self.metrics.migrate_in_flight.add(-((before - self.outbound.len()) as i64));
    }
}
