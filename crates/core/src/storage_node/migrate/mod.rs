//! The incremental, rate-limited migration engine (DESIGN.md §16).
//!
//! The only rebalance path (§5.2.4: range migration on node addition,
//! re-replication on long failure). A membership change builds a
//! [`MigrationPlan`]: the old-vs-new ring preference diff, cut into arcs,
//! with one work item per locally-held record whose replica set changed. A
//! `TK_MIGRATE` tick drains the work list in key order under the per-tick
//! budgets (`StorageConfig::migrate_max_records_per_tick` and the fixed
//! `MIGRATE_MAX_BYTES_PER_TICK`), shipping records on the acknowledged
//! `StoreReplica`/`StoreReplicaBatch` path; an arc whose items are all
//! acked is *cut over* — entrants are told they are now authoritative
//! ([`crate::message::Msg::MigrateCutover`]) and, when this node left the
//! arc's replica set, its local copies are dropped.
//!
//! Until cutover the cluster is in **dual ownership** for the arc: an
//! entrant that misses a key proxies the fetch to the arc's old primary
//! ([`StorageNode::proxy_source`]), and writes it applies are forwarded to
//! that old owner so a cancelled migration never loses acked data.
//!
//! The acked low-water mark — the longest fully-acknowledged prefix of the
//! (deterministic) work list — is persisted as an `(arc, key)` cursor in
//! the `migrate_state` collection, so a crashed source resumes where it
//! stopped instead of restarting the sweep; at most the in-flight window
//! is re-sent, and LWW application dedups it.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc as StdArc;

use mystore_engine::record::F_SELF_KEY;
use mystore_engine::Record;
use mystore_net::{Context, NodeId};
use mystore_ring::{Arc_, HashRing};

use crate::message::{BatchPut, Msg};
use crate::storage_node::{data, tk, StorageNode, DATA, TK_MIGRATE};

mod cursor;
mod plan;

use plan::covers;
pub(crate) use plan::{
    InboundArc, MigAck, MigrationPlan, PlanArc, ProxyFetch, ResumeCursor, WorkItem,
};

/// Byte budget per migration tick (sum of record value sizes). 1 MiB per
/// 50 ms tick is 20 MiB/s — a quarter of the cost model's log-write
/// bandwidth and a sixth of a gigabit link — and equals 32 records × 32
/// KiB, so the record cap governs small values and this one takes over
/// for large ones.
const MIGRATE_MAX_BYTES_PER_TICK: usize = 1 << 20;

impl StorageNode {
    /// Reweights this node at runtime: republishes the scaled vnode count
    /// so the whole ring (locally at once, peers via gossip) re-derives
    /// placement, which the migration engine then converges on.
    pub fn set_weight(&mut self, ctx: &mut Context<'_, Msg>, weight: u32) {
        if self.set_weight_deferred(weight) {
            self.refresh_ring(ctx);
        }
    }

    /// Context-free half of [`StorageNode::set_weight`]: updates the config
    /// and republishes gossip state, returning whether anything changed.
    /// The local ring refresh then rides the next gossip tick (embedders
    /// and tests without a runtime context in hand use this directly).
    pub fn set_weight_deferred(&mut self, weight: u32) -> bool {
        let weight = weight.max(1);
        if weight == self.cfg.weight {
            return false;
        }
        self.cfg.weight = weight;
        // Rebroadcast the *effective* vnode count immediately — peers build
        // their rings from VNODES alone, so a weight change that did not
        // bump it would never propagate.
        self.gossiper
            .set_app_state(mystore_gossip::keys::VNODES, self.cfg.effective_vnodes().to_string());
        self.gossiper
            .set_app_state_if_changed(mystore_gossip::keys::WEIGHT, self.cfg.weight.to_string());
        true
    }

    /// `<arcs cut over>/<arcs total>` of the active plan, if any.
    pub fn migration_progress(&self) -> Option<(usize, usize)> {
        self.migration.as_ref().map(|p| (p.arcs_done(), p.arcs.len()))
    }

    /// Arcs this node is still receiving (dual-ownership reads active).
    pub fn inbound_arcs(&self) -> usize {
        self.pending_in.len()
    }

    /// The old primary to consult for `key` while its arc is still
    /// inbound, if that source is currently believed alive.
    pub(crate) fn proxy_source(&self, key: &str) -> Option<NodeId> {
        if self.pending_in.is_empty() {
            return None;
        }
        let point = HashRing::<NodeId>::key_point(key.as_bytes());
        self.pending_in
            .iter()
            .find(|e| e.arc.contains(point))
            .map(|e| e.source)
            .filter(|&s| self.gossiper.is_alive(s) && !self.gossiper.is_removed(s))
    }

    /// Forwards a just-applied replica write to the old owner of a still
    /// inbound arc, so a migration cancelled before cutover loses nothing.
    /// No-op outside migration windows (`pending_in` empty).
    pub(crate) fn maybe_forward_inbound(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: NodeId,
        record: &StdArc<Record>,
    ) {
        if self.pending_in.is_empty() {
            return;
        }
        let Some(source) = self.proxy_source(&record.self_key) else { return };
        // The transfer stream itself must not echo back to its sender.
        if source == from || source == self.id() {
            return;
        }
        ctx.send(source, Msg::StoreReplica { req: 0, record: StdArc::clone(record) });
    }

    /// The old owner finished an arc: this node is authoritative for it
    /// now — stop proxying reads and forwarding writes. Scoped to entries
    /// from that owner, so a stale cutover from a superseded plan cannot
    /// close a window another source still has open.
    pub(crate) fn on_migrate_cutover(&mut self, from: NodeId, start: u64, end: u64) {
        let cut = Arc_ { start, end };
        self.pending_in.retain(|e| !(covers(&cut, &e.arc) && e.source == from));
    }

    /// An arc's old primary announced a transfer into this node: open the
    /// dual-ownership window (see [`Msg::MigrateBegin`]).
    pub(crate) fn on_migrate_begin(&mut self, now_us: u64, from: NodeId, start: u64, end: u64) {
        if from == self.id() {
            return;
        }
        self.register_inbound(Arc_ { start, end }, from, now_us);
    }

    /// Records an inbound arc, deduping on the arc bounds: locally-derived
    /// entries (from this node's own ring diff) and announced ones
    /// ([`Msg::MigrateBegin`]) both land here and may describe the same
    /// transfer.
    fn register_inbound(&mut self, arc: Arc_, source: NodeId, now_us: u64) {
        if self.pending_in.iter().any(|e| e.arc.start == arc.start && e.arc.end == arc.end) {
            return;
        }
        self.pending_in.push(InboundArc { arc, source, opened_at_us: now_us });
    }

    /// Builds (or re-bases) the migration plan after a ring change. Called
    /// from `refresh_ring`; `old_ring` is the ring that was just replaced.
    pub(crate) fn start_migration(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        old_ring: HashRing<NodeId>,
    ) {
        // A second membership change mid-flight re-plans from the original
        // base ring: arcs still owed from the previous transition stay in
        // the new diff instead of being silently skipped. A pending resume
        // cursor supplies the base the same way — the ring visible right
        // after a restart is the collapsed single-node one and must not
        // become the diff base, or the whole transfer restarts from zero.
        let had_prev = self.migration.is_some();
        let base_ring = match self.migration.take() {
            Some(prev) => {
                let dropped = self.migrate_acks.len();
                self.migrate_acks.clear();
                for _ in 0..dropped {
                    self.metrics.migrate_in_flight.dec_clamped();
                }
                prev.old_ring
            }
            None => match &self.resume_cursor {
                Some(resume) => {
                    let mut ring = HashRing::new();
                    for &(id, vn) in &resume.sig {
                        let _ = ring.add_node(id, format!("node{}", id.0), vn);
                    }
                    ring
                }
                None => old_ring,
            },
        };
        let base_sig: Vec<(NodeId, u32)> =
            base_ring.nodes().map(|n| (*n, base_ring.vnodes_of(n).unwrap_or(0))).collect();
        let me = self.id();
        let n = self.cfg.nwr.n;
        let mut arcs: Vec<PlanArc> = Vec::new();
        for (arc, old_p, new_p) in base_ring.diff_prefs(&self.ring, n) {
            let entering = new_p.contains(&me) && !old_p.contains(&me);
            if entering {
                if let Some(&source) = old_p.first() {
                    if source != me {
                        self.register_inbound(arc, source, ctx.now().as_micros());
                    }
                }
                continue;
            }
            if !old_p.contains(&me) {
                continue;
            }
            let primary = old_p.first() == Some(&me);
            let keep = new_p.contains(&me);
            let targets: Vec<NodeId> = new_p
                .iter()
                .copied()
                .filter(|&t| t != me && (!keep || !old_p.contains(&t)))
                .collect();
            let entrants: Vec<NodeId> =
                new_p.iter().copied().filter(|t| !old_p.contains(t)).collect();
            if targets.is_empty() && keep {
                continue; // nothing to ship, nothing changes hands
            }
            arcs.push(PlanArc {
                arc,
                targets,
                entrants,
                keep,
                primary,
                end_idx: 0,
                started_at_us: 0,
                cutover: false,
            });
        }
        if arcs.is_empty() {
            // A re-based live plan that diffed to nothing is finished; a
            // pending resume stays parked (the post-restart ring has not
            // re-converged yet — the next refresh tries again). The
            // gossiped progress must go idle here too: the normal idle
            // transition lives on the tick completion path, which this
            // plan will never reach.
            if had_prev {
                self.clear_migrate_state();
                self.gossiper.set_app_state_if_changed(mystore_gossip::keys::MIGRATION, "idle");
            }
            return;
        }
        let work = self.build_work_list(&arcs);
        let mut end = 0usize;
        for (i, arc) in arcs.iter_mut().enumerate() {
            end += work.iter().filter(|(a, _)| *a == i).count();
            arc.end_idx = end;
        }
        // Announce each non-trivial transfer to its entrants. A joining
        // node's own diff base is the collapsed single-node ring, so it
        // cannot derive its inbound arcs locally — without this announce
        // its dual-ownership window never opens and a sparse-quorum read
        // could take its not-yet-authoritative miss at face value. Only
        // the arc's old primary announces, so each entrant tracks exactly
        // one source per arc.
        let mut start_idx = 0usize;
        for arc in &arcs {
            let has_work = arc.end_idx > start_idx;
            start_idx = arc.end_idx;
            if !arc.primary || !has_work {
                continue;
            }
            for &entrant in &arc.entrants {
                ctx.send(entrant, Msg::MigrateBegin { start: arc.arc.start, end: arc.arc.end });
            }
        }
        let mut plan = MigrationPlan {
            old_ring: base_ring,
            from_sig: base_sig,
            arcs,
            work,
            low_water: 0,
            cursor: 0,
            acked: BTreeSet::new(),
            needed: BTreeMap::new(),
            retry: BTreeSet::new(),
            persisted: usize::MAX, // force the first persist
        };
        // Crash resume: fast-forward past the work-list prefix the
        // pre-crash incarnation already had fully acknowledged. Sound when
        // the cluster re-converged on the same target ring (the common
        // case); if it moved on, anti-entropy covers any skipped copies.
        if let Some(resume) = self.resume_cursor.take() {
            if resume.arc >= 0 {
                let pos = (resume.arc as usize, resume.key);
                let skip = plan
                    .work
                    .partition_point(|item| (item.0, item.1.as_str()) <= (pos.0, pos.1.as_str()));
                plan.low_water = skip;
                plan.cursor = skip;
            }
        }
        self.migration = Some(plan);
        self.persist_migrate_cursor();
        if !self.migrate_armed {
            self.migrate_armed = true;
            ctx.set_timer(self.cfg.migrate_tick_us, tk(TK_MIGRATE, 0));
        }
    }

    /// The work list: each plan arc's range of the ring-ordered data
    /// collection, sorted by `(arc index, key)`, the order the persisted
    /// cursor is kept in.
    fn build_work_list(&self, arcs: &[PlanArc]) -> Vec<WorkItem> {
        let data = data(&self.db);
        let mut work: Vec<WorkItem> = Vec::new();
        for (i, a) in arcs.iter().enumerate() {
            let keys =
                data.scan_points(a.arc.start, a.arc.end).filter_map(|d| d.get_str(F_SELF_KEY));
            work.extend(keys.map(|key| (i, key.to_string())));
        }
        work.sort_unstable();
        work
    }

    /// `TK_MIGRATE`: sweep expired acks, advance the acked low-water mark,
    /// cut over finished arcs, persist the cursor, then dispatch the next
    /// budgeted slice of the work list.
    pub(crate) fn migrate_tick(&mut self, ctx: &mut Context<'_, Msg>) {
        self.migrate_armed = false;
        let Some(mut plan) = self.migration.take() else { return };
        let now = ctx.now().as_micros();
        // Acks that never arrived: requeue their items (idempotent LWW).
        let deadline = self.cfg.request_deadline_us;
        let expired: Vec<u64> = self
            .migrate_acks
            .iter()
            .filter(|(_, a)| now.saturating_sub(a.sent_at_us) >= deadline)
            .map(|(&req, _)| req)
            .collect();
        for req in expired {
            if let Some(ack) = self.migrate_acks.remove(&req) {
                self.metrics.migrate_in_flight.dec_clamped();
                if !plan.acked.contains(&ack.idx) && ack.idx >= plan.low_water {
                    // The per-target `needed` entry stays: targets that
                    // already acked are settled for good, and re-dispatch
                    // goes only to the ones still listed.
                    plan.retry.insert(ack.idx);
                }
            }
        }
        plan.advance_low_water();
        self.cutover_ready_arcs(ctx, &mut plan, now);
        self.dispatch_budgeted(ctx, &mut plan, now);
        if plan.done() {
            self.clear_migrate_state();
            ctx.record("migration_done", plan.work.len() as f64);
            self.gossiper.set_app_state_if_changed(mystore_gossip::keys::MIGRATION, "idle");
            return; // plan dropped; timer stays unarmed
        }
        if plan.persisted != plan.low_water {
            self.migration = Some(plan);
            self.persist_migrate_cursor();
        } else {
            self.migration = Some(plan);
        }
        self.migrate_armed = true;
        ctx.set_timer(self.cfg.migrate_tick_us, tk(TK_MIGRATE, 0));
    }

    /// Cuts over every arc whose work is fully acked, in arc order, and
    /// traces how many arcs this tick cut over.
    fn cutover_ready_arcs(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        plan: &mut MigrationPlan,
        now: u64,
    ) {
        let mut prev_end = 0usize;
        let mut cut = 0usize;
        for i in 0..plan.arcs.len() {
            let start_idx = prev_end;
            let Some(arc) = plan.arcs.get_mut(i) else { break };
            prev_end = arc.end_idx;
            if arc.cutover || plan.low_water < arc.end_idx {
                continue;
            }
            arc.cutover = true;
            for &entrant in &arc.entrants {
                ctx.send(entrant, Msg::MigrateCutover { start: arc.arc.start, end: arc.arc.end });
            }
            cut += 1;
            let (keep, end_idx, began) = (arc.keep, arc.end_idx, arc.started_at_us);
            if !keep {
                let keys: Vec<String> = plan
                    .work
                    .get(start_idx..end_idx)
                    .unwrap_or(&[])
                    .iter()
                    .map(|(_, k)| k.clone())
                    .collect();
                for key in keys {
                    if let Ok(Some(rec)) = self.db.get_record(DATA, &key) {
                        let _ = self.write_data(&key, |db| db.remove(DATA, rec.id));
                    }
                }
            }
            self.metrics.migrate_arcs_cutover.inc();
            let began = if began > 0 { began } else { now };
            self.metrics.migrate_arc_duration_us.record(now.saturating_sub(began));
        }
        if cut > 0 {
            ctx.record("migrate_arc_cutover", cut as f64);
        }
    }

    /// Dispatches retries first, then the cursor, until a per-tick budget
    /// is exhausted. One item ships atomically to all its targets; the
    /// first item of a tick always ships even if it alone exceeds either
    /// budget (progress guarantee — a leaving node ships to the whole new
    /// replica set, so one item can carry more copies than a small record
    /// budget allows and must not stall the head of the work list).
    fn dispatch_budgeted(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        plan: &mut MigrationPlan,
        now: u64,
    ) {
        let rec_budget = if self.cfg.migrate_max_records_per_tick > 0 {
            self.cfg.migrate_max_records_per_tick as usize
        } else {
            usize::MAX
        };
        let mut recs_used = 0usize;
        let mut bytes_used = 0usize;
        let mut batches: BTreeMap<NodeId, Vec<BatchPut>> = BTreeMap::new();
        loop {
            let idx = match plan.retry.iter().next().copied() {
                Some(i) => i,
                None if plan.cursor < plan.work.len() => plan.cursor,
                None => break,
            };
            let Some((arc_idx, key)) = plan.work.get(idx).cloned() else {
                // Defensive: a stale retry index past the work list.
                self.settle_item(plan, idx);
                continue;
            };
            let record = match self.db.get_record(DATA, &key) {
                Ok(Some(r)) => StdArc::new(r),
                // Deleted since the scan (reaped tombstone): nothing to
                // ship, the item is settled.
                _ => {
                    self.settle_item(plan, idx);
                    continue;
                }
            };
            let targets = match plan.arcs.get(arc_idx) {
                Some(arc) if !arc.targets.is_empty() => arc.targets.clone(),
                _ => {
                    self.settle_item(plan, idx);
                    continue;
                }
            };
            // A retried item re-dispatches only to the targets that have
            // not acked yet (its `needed` entry); a fresh item owes every
            // target a copy.
            let targets: Vec<NodeId> = match plan.needed.get(&idx) {
                Some(owing) => targets.iter().copied().filter(|t| owing.contains(t)).collect(),
                None => targets,
            };
            if targets.is_empty() {
                self.settle_item(plan, idx);
                continue;
            }
            let copies = targets.len();
            let bytes = record.val.len() * copies;
            if recs_used > 0
                && (recs_used + copies > rec_budget
                    || bytes_used + bytes > MIGRATE_MAX_BYTES_PER_TICK)
            {
                break;
            }
            if let Some(arc) = plan.arcs.get_mut(arc_idx) {
                if arc.started_at_us == 0 {
                    arc.started_at_us = now;
                }
            }
            recs_used += copies;
            bytes_used += bytes;
            plan.needed.insert(idx, targets.iter().copied().collect());
            for &target in &targets {
                let req = self.fresh_req();
                self.migrate_acks.insert(req, MigAck { idx, target, sent_at_us: now });
                batches
                    .entry(target)
                    .or_default()
                    .push(BatchPut { req, record: StdArc::clone(&record) });
            }
            self.metrics.migrate_in_flight.add(copies as i64);
            self.metrics.migrate_records_sent.add(copies as u64);
            self.metrics.migrate_bytes_sent.add(bytes as u64);
            if !plan.retry.remove(&idx) {
                plan.cursor = idx + 1;
            }
        }
        for (target, mut ops) in batches {
            if ops.len() == 1 {
                if let Some(op) = ops.pop() {
                    ctx.send(target, Msg::StoreReplica { req: op.req, record: op.record });
                }
            } else {
                ctx.send(target, Msg::StoreReplicaBatch { ops });
            }
        }
    }

    /// Marks an item acked without a wire exchange (record gone or no
    /// targets) and pops it from the dispatch front.
    fn settle_item(&self, plan: &mut MigrationPlan, idx: usize) {
        plan.acked.insert(idx);
        plan.needed.remove(&idx);
        if !plan.retry.remove(&idx) {
            plan.cursor = idx + 1;
        }
        plan.advance_low_water();
    }

    /// A `StoreAck` for a migration replica-write (routed here before the
    /// quorum driver by the req being in `migrate_acks`).
    pub(crate) fn on_migrate_ack(&mut self, req: u64, ok: bool) {
        let Some(ack) = self.migrate_acks.remove(&req) else { return };
        self.metrics.migrate_in_flight.dec_clamped();
        let Some(plan) = &mut self.migration else { return };
        if ack.idx < plan.low_water || plan.acked.contains(&ack.idx) {
            return; // late duplicate for an already-settled item
        }
        if ok {
            if let Some(owing) = plan.needed.get_mut(&ack.idx) {
                owing.remove(&ack.target);
                if owing.is_empty() {
                    plan.needed.remove(&ack.idx);
                    plan.retry.remove(&ack.idx);
                    plan.acked.insert(ack.idx);
                    plan.advance_low_water();
                }
            }
        } else {
            // The failed target stays in `needed`; the retry re-sends to
            // it (and any other target still owing) only — an ack from a
            // target that already succeeded must not settle the item on
            // another target's behalf.
            plan.retry.insert(ack.idx);
        }
    }
}
