//! The incremental, rate-limited migration engine (DESIGN.md §16).
//!
//! The only rebalance path (§5.2.4: range migration on node addition,
//! re-replication on long failure). A membership change builds a
//! [`MigrationPlan`]: the old-vs-new ring preference diff, cut into arcs
//! whose replica set changed. A `TK_MIGRATE` tick scans those arcs of the
//! ring-ordered store in order, from the plan's scan position, under the
//! per-tick budgets (`StorageConfig::migrate_max_records_per_tick` and the
//! fixed `MIGRATE_MAX_BYTES_PER_TICK`), shipping records on the
//! acknowledged `StoreReplica`/`StoreReplicaBatch` path; an arc the scan
//! has passed that owes no copy is *cut over* — entrants are told they
//! are now authoritative ([`crate::message::Msg::MigrateCutover`]) and,
//! when this node left the arc's replica set, its local copies are
//! dropped.
//!
//! Until cutover the cluster is in **dual ownership** for the arc: an
//! entrant that misses a key proxies the fetch to the arc's old primary
//! ([`StorageNode::proxy_source`]), and writes it applies are forwarded to
//! that old owner so a cancelled migration never loses acked data.
//!
//! The acked prefix — every record before the first position still owed
//! a copy, up to the scan position — is persisted as an `(arc, point,
//! key)` cursor in the `migrate_state` collection, so a crashed source
//! resumes where it stopped instead of restarting the scan; at most the
//! in-flight window is re-sent, and LWW application dedups it.

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

use mystore_bson::RawDocument;
use mystore_engine::record::{F_ID, F_SELF_KEY};
use mystore_engine::{Collection, Db, Record};
use mystore_net::{Context, NodeId};
use mystore_ring::{Arc_, HashRing};

use crate::message::{BatchPut, Msg};
use crate::storage_node::maintenance::Sent;
use crate::storage_node::{data, tk, StorageNode, DATA, TK_MIGRATE};

mod cursor;
mod plan;

use plan::covers;
pub(crate) use plan::{InboundArc, MigrationPlan, PlanArc, Pos, ResumeCursor};

/// Byte budget per migration tick (sum of record value sizes). 1 MiB per
/// 50 ms tick is 20 MiB/s — a quarter of the cost model's log-write
/// bandwidth and a sixth of a gigabit link — and equals 32 records × 32
/// KiB, so the record cap governs small values and this one takes over
/// for large ones.
const MIGRATE_MAX_BYTES_PER_TICK: usize = 1 << 20;

impl StorageNode {
    /// Reweights this node at runtime: updates the config and republishes
    /// the scaled vnode count, returning whether anything changed. Peers
    /// re-derive placement from gossip, this node's ring refresh rides its
    /// next gossip tick, and the migration engine then converges on the
    /// new placement.
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
                self.drop_copies();
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
                started_at_us: None,
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
        // Announce each transfer with records to ship to its entrants. A
        // joining node's own diff base is the collapsed single-node ring, so
        // it cannot derive its inbound arcs locally — without this announce
        // its dual-ownership window never opens and a sparse-quorum read
        // could take its not-yet-authoritative miss at face value. Only the
        // arc's old primary announces, so each entrant tracks exactly one
        // source per arc.
        let data = data(&self.db);
        let has_records = |a: &PlanArc| data.scan_points(a.arc.start, a.arc.end).next().is_some();
        for arc in arcs.iter().filter(|a| a.primary && has_records(a)) {
            for &entrant in &arc.entrants {
                ctx.send(entrant, Msg::MigrateBegin { start: arc.arc.start, end: arc.arc.end });
            }
        }
        // Crash resume: the scan starts at the acked prefix the pre-crash
        // incarnation persisted. Sound when the cluster re-converged on the
        // same target ring (the common case); if it moved on, anti-entropy
        // covers any skipped copies. A cursor this plan cannot place starts
        // over at the first arc: LWW application dedups the re-sends.
        let next = self.resume_cursor.take().and_then(|r| r.at).and_then(|(arc, point, key)| {
            let arc = usize::try_from(arc).ok()?;
            match arcs.get(arc) {
                Some(a) => a.arc.contains(point).then(|| Pos { arc, offset: a.offset(point), key }),
                None => (arc == arcs.len()).then(|| Pos::start(arc)),
            }
        });
        let mut plan = MigrationPlan {
            old_ring: base_ring,
            from_sig: base_sig,
            arcs,
            next: next.unwrap_or_default(),
            owed: BTreeMap::new(),
            retry: BTreeSet::new(),
            persisted: Pos::default(),
            shipped: 0,
        };
        // The scan position starts at the first record (an empty plan's at
        // its end, so its first tick cuts every arc over).
        let found = next_record(data, &mut plan).is_some();
        plan.persisted = plan.next.clone();
        self.migration = Some(plan);
        // Nothing to resume (every boot-time join on an empty store): a
        // cursor would cost a WAL append + fsync now and another to clear
        // it one tick later.
        if found {
            self.persist_migrate_cursor();
        }
        if !self.migrate_armed {
            self.migrate_armed = true;
            ctx.set_timer(self.cfg.migrate_tick_us, tk(TK_MIGRATE, 0));
        }
    }

    /// `TK_MIGRATE`: expire unacked copies, cut over finished arcs,
    /// dispatch the next budgeted slice of the scan, then persist the
    /// cursor.
    pub(crate) fn migrate_tick(&mut self, ctx: &mut Context<'_, Msg>) {
        self.migrate_armed = false;
        // Copies whose ack never arrived go back to the retry set
        // (idempotent LWW). The record's `owed` entry stays: targets that
        // already acked are settled for good, and re-dispatch goes only to
        // the ones listed.
        self.expire_outbound(ctx);
        let Some(mut plan) = self.migration.take() else { return };
        let now = ctx.now().as_micros();
        self.cutover_ready_arcs(ctx, &mut plan, now);
        self.dispatch_budgeted(ctx, &mut plan, now);
        if plan.done() {
            self.clear_migrate_state();
            ctx.record("migration_done", plan.shipped as f64);
            self.gossiper.set_app_state_if_changed(mystore_gossip::keys::MIGRATION, "idle");
            return; // plan dropped; timer stays unarmed
        }
        let moved = *plan.acked_prefix() != plan.persisted;
        self.migration = Some(plan);
        if moved {
            self.persist_migrate_cursor();
        }
        self.migrate_armed = true;
        ctx.set_timer(self.cfg.migrate_tick_us, tk(TK_MIGRATE, 0));
    }

    /// Cuts over every arc the scan has passed that owes no copy, in arc
    /// order, and traces how many arcs this tick cut over.
    fn cutover_ready_arcs(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        plan: &mut MigrationPlan,
        now: u64,
    ) {
        let mut cut = 0usize;
        for i in 0..plan.next.arc {
            let owes = plan.owed.range(Pos::start(i)..Pos::start(i + 1)).next().is_some();
            let Some(arc) = plan.arcs.get_mut(i) else { break };
            if arc.cutover || owes {
                continue;
            }
            arc.cutover = true;
            for &entrant in &arc.entrants {
                ctx.send(entrant, Msg::MigrateCutover { start: arc.arc.start, end: arc.arc.end });
            }
            cut += 1;
            let (keep, range, began) = (arc.keep, arc.arc, arc.started_at_us);
            if !keep {
                // This node left the arc's replica set: every record in the
                // range goes, also one written after the scan passed it
                // (DESIGN.md §16, "Cutover"), first record first.
                let first = |db: &Db| {
                    data(db).scan_points(range.start, range.end).find_map(|d| {
                        Some((d.get_str(F_SELF_KEY)?.to_string(), d.get_object_id(F_ID)?))
                    })
                };
                while let Some((key, id)) = first(&self.db) {
                    if self.write_data(&key, |db| db.remove(DATA, id)).is_err() {
                        break;
                    }
                }
            }
            self.metrics.migrate_arcs_cutover.inc();
            self.metrics.migrate_arc_duration_us.record(now.saturating_sub(began.unwrap_or(now)));
        }
        if cut > 0 {
            ctx.record("migrate_arc_cutover", cut as f64);
        }
    }

    /// Dispatches retries first, then the scan, until a per-tick budget
    /// or a target's window is exhausted. One record ships atomically to
    /// all its targets, and only while each of them has fewer copies
    /// awaiting an ack than the record budget (its window). The first
    /// record of a tick ships even if it alone exceeds either per-tick
    /// budget (progress guarantee — a leaving node ships to the whole new
    /// replica set, so one record can carry more copies than a small
    /// record budget allows and must not stall the scan), but not past a
    /// full window.
    fn dispatch_budgeted(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        plan: &mut MigrationPlan,
        now: u64,
    ) {
        let rec_budget = match self.cfg.migrate_max_records_per_tick {
            0 => usize::MAX,
            n => n as usize,
        };
        let mut in_flight: BTreeMap<NodeId, usize> = BTreeMap::new();
        for out in self.outbound.values().filter(|out| matches!(out.kind, Sent::Copy(_))) {
            *in_flight.entry(out.peer).or_default() += 1;
        }
        let (mut recs_used, mut bytes_used) = (0usize, 0usize);
        let mut fits = |targets: &[NodeId], bytes: usize| {
            let copies = targets.len();
            let open = targets.iter().all(|t| in_flight.get(t).copied().unwrap_or(0) < rec_budget);
            let fits = open
                && (recs_used == 0
                    || (recs_used + copies <= rec_budget
                        && bytes_used + bytes <= MIGRATE_MAX_BYTES_PER_TICK));
            if fits {
                recs_used += copies;
                bytes_used += bytes;
                for &t in targets {
                    *in_flight.entry(t).or_default() += 1;
                }
            }
            fits
        };
        let mut picked: Vec<(Pos, Vec<NodeId>, StdArc<Record>)> = Vec::new();
        let mut full = false;
        for pos in plan.retry.clone() {
            // A retried record re-dispatches only to the targets that have
            // not acked yet; one deleted since (a reaped tombstone) is
            // settled.
            let targets: Vec<NodeId> =
                plan.owed.get(&pos).map(|t| t.iter().copied().collect()).unwrap_or_default();
            let record = self.db.get_record(DATA, &pos.key).ok().flatten();
            let Some(record) = record.filter(|_| !targets.is_empty()) else {
                plan.owed.remove(&pos);
                plan.retry.remove(&pos);
                continue;
            };
            if !fits(&targets, record.val.len() * targets.len()) {
                full = true;
                break;
            }
            plan.retry.remove(&pos);
            picked.push((pos, targets, StdArc::new(record)));
        }
        // The scan stops at the first record that does not fit, so between
        // ticks the scan position is a record's (or the plan's end).
        let data = data(&self.db);
        while let Some(doc) = next_record(data, plan) {
            let pos = plan.next.clone();
            let targets = plan.arcs.get(pos.arc).map(|a| a.targets.clone()).unwrap_or_default();
            let Ok(record) = Record::from_raw(&doc) else {
                plan.next = pos.successor();
                continue;
            };
            if full || !fits(&targets, record.val.len() * targets.len()) {
                break;
            }
            plan.next = pos.clone().successor();
            plan.shipped += 1;
            picked.push((pos, targets, StdArc::new(record)));
        }
        let mut batches: BTreeMap<NodeId, Vec<BatchPut>> = BTreeMap::new();
        for (pos, targets, record) in picked {
            if let Some(arc) = plan.arcs.get_mut(pos.arc) {
                arc.started_at_us.get_or_insert(now);
            }
            let copies = targets.len();
            for &target in &targets {
                let req = self.fresh_req();
                self.track(ctx, req, target, Sent::Copy(pos.clone()));
                batches
                    .entry(target)
                    .or_default()
                    .push(BatchPut { req, record: StdArc::clone(&record) });
            }
            self.metrics.migrate_in_flight.add(copies as i64);
            self.metrics.migrate_records_sent.add(copies as u64);
            self.metrics.migrate_bytes_sent.add((record.val.len() * copies) as u64);
            plan.owed.insert(pos, targets.into_iter().collect());
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

    /// A `StoreAck` for the copy of the record at `pos` sent to `target`
    /// (its outbound entry already taken).
    pub(crate) fn on_copy_ack(&mut self, target: NodeId, pos: Pos, ok: bool) {
        self.metrics.migrate_in_flight.dec_clamped();
        let Some(plan) = &mut self.migration else { return };
        // A late duplicate for a settled record finds no `owed` entry.
        let Some(owing) = plan.owed.get_mut(&pos) else { return };
        if ok {
            owing.remove(&target);
            if owing.is_empty() {
                plan.owed.remove(&pos);
                plan.retry.remove(&pos);
            }
        } else {
            // The failed target stays owed; the retry re-sends to it (and
            // any other target still owing) only — an ack from a target
            // that already succeeded must not settle the record on another
            // target's behalf.
            plan.retry.insert(pos);
        }
    }
}

/// Moves the plan's scan position to the first record at or after it,
/// read from the ring-ordered store, and returns that record. The scan
/// passes every arc it finds nothing left in (and arcs with no target).
fn next_record<'a>(data: &'a Collection, plan: &mut MigrationPlan) -> Option<RawDocument<'a>> {
    while let Some(arc) = plan.arcs.get(plan.next.arc) {
        if !arc.targets.is_empty() {
            let from = &plan.next;
            // Scan from the point just before the position's own point.
            let after = arc.point(from.offset).wrapping_sub(1);
            let found = data.scan_points(after, arc.arc.end).find_map(|doc| {
                let key = doc.get_str(F_SELF_KEY)?;
                let offset = arc.offset(HashRing::<NodeId>::key_point(key.as_bytes()));
                let at_or_after = (offset, key) >= (from.offset, from.key.as_str());
                at_or_after.then(|| (Pos { arc: from.arc, offset, key: key.to_string() }, doc))
            });
            if let Some((pos, doc)) = found {
                plan.next = pos;
                return Some(doc);
            }
        }
        plan.next = Pos::start(plan.next.arc + 1);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use mystore_bson::{doc, ObjectId};
    use mystore_engine::pack_version;
    use mystore_net::{FaultPlan, NetConfig, Sim, SimConfig, SimTime};

    /// A 3-node cluster whose node 2 is down from the start, with `total`
    /// records on node 0 only: when node 2 joins, node 0 ships every one
    /// of them to it (each node replicates every key on three nodes).
    fn join_source(budget: u32, seed: u64, total: u32) -> Sim<Msg> {
        let mut spec = ClusterSpec::small(3);
        spec.storage.migrate_max_records_per_tick = budget;
        spec.storage.anti_entropy_interval_us = 0;
        let config = SimConfig { net: NetConfig::gigabit_lan(), faults: FaultPlan::none(), seed };
        let mut sim = spec.build_sim(config);
        sim.schedule_crash(SimTime(0), NodeId(2), None);
        sim.start();
        sim.run_for(spec.warmup_us() + 3_000_000);
        let node = sim.process_mut::<StorageNode>(NodeId(0)).unwrap();
        for i in 0..total {
            let id = ObjectId::from_parts(1, 16, i);
            let version = pack_version(1_000_000 + u64::from(i), 0);
            node.preload_record(&Record::new(id, key(i), b"payload".to_vec(), version));
        }
        sim
    }

    fn key(i: u32) -> String {
        format!("mv-{i:05}")
    }

    fn joiner_holds_all(sim: &Sim<Msg>, total: u32) {
        let joiner = sim.process::<StorageNode>(NodeId(2)).unwrap();
        for i in 0..total {
            assert!(joiner.db.get_record(DATA, &key(i)).unwrap().is_some(), "{} missing", key(i));
        }
        let source = sim.process::<StorageNode>(NodeId(0)).unwrap();
        assert!(source.migration.is_none(), "the plan never finished");
        assert!(source.db.collection("migrate_state").map_or(true, |c| c.is_empty()));
    }

    /// A join moves 2 400 records at a 4-record budget, and the plan holds
    /// only what is in flight: at every sample each position it keeps is
    /// owed a copy, with an ack outstanding or queued for retry. A one-way
    /// cut loses the joiner's acks for a second, so retries are covered,
    /// and the joiner's window holds the plan to 4 positions throughout.
    #[test]
    fn plan_holds_only_positions_in_flight() {
        let total = 2_400;
        let mut sim = join_source(4, 91, total);
        let t_join = sim.now() + 1;
        sim.schedule_restart(t_join, NodeId(2));
        sim.schedule_link_oneway(t_join + 4_000_000, NodeId(2), NodeId(0), false);
        sim.schedule_link_oneway(t_join + 5_000_000, NodeId(2), NodeId(0), true);
        // The joiner is the only target: at most one window of copies
        // awaits acks, and a retried position is one no longer in flight.
        let window = 4;
        let (mut samples, mut peak) = (0usize, 0usize);
        for _ in 0..20_000 {
            sim.run_for(5_000);
            let node = sim.process::<StorageNode>(NodeId(0)).unwrap();
            let Some(plan) = &node.migration else {
                if samples > 0 {
                    break;
                }
                continue;
            };
            for pos in plan.owed.keys() {
                let acking =
                    node.outbound.values().any(|o| matches!(&o.kind, Sent::Copy(p) if p == pos));
                assert!(acking || plan.retry.contains(pos), "{pos:?} neither acking nor retried");
            }
            assert!(plan.retry.iter().all(|p| plan.owed.contains_key(p)), "retry not owed");
            assert!(plan.owed.len() <= window, "{} positions held", plan.owed.len());
            samples += 1;
            peak = peak.max(plan.owed.len());
        }
        assert!(samples > 600 && peak == window, "{samples} samples, peak {peak}: window unused");
        joiner_holds_all(&sim, total);
    }

    /// A cursor written before positions carried a ring point (`{from_sig,
    /// arc, key}`) cannot be placed in the scan. Resuming from it neither
    /// panics nor skips records: the plan starts over at the first arc.
    #[test]
    fn cursor_without_a_point_starts_the_scan_over() {
        let total = 300;
        let mut sim = join_source(32, 92, total);
        let node = sim.process_mut::<StorageNode>(NodeId(0)).unwrap();
        let sig: Vec<String> = node
            .ring
            .nodes()
            .map(|n| format!("{}:{}", n.0, node.ring.vnodes_of(n).unwrap_or(0)))
            .collect();
        let cursor = doc! { "from_sig": sig.join(","), "arc": 5i64, "key": key(total / 2) };
        node.db.insert_doc("migrate_state", cursor).unwrap();
        node.db.sync_wal().unwrap();
        // The restart reads the cursor back from the log; the join comes
        // once the restarted node sees its old peer again.
        sim.schedule_crash(sim.now() + 1, NodeId(0), Some(500_000));
        sim.schedule_restart(sim.now() + 4_000_000, NodeId(2));
        sim.run_for(20_000_000);
        joiner_holds_all(&sim, total);
    }
}
