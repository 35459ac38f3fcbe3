//! Merkle-tree anti-entropy driver (DESIGN.md §14).
//!
//! The round initiator sends one [`Msg::SyncTreeRequest`] carrying the
//! root hash of a tree built over the arcs both peers replicate. Equal
//! roots end the exchange in two messages; unequal roots start a stateless
//! ping-pong walk ([`Msg::SyncTreeLevel`]) that descends only mismatched
//! subtrees, bottoming out in per-key digests ([`Msg::SyncLeafDigest`])
//! for just the divergent leaves. Both digest handlers settle each key in
//! one per-key pass (`reconcile`), and the repairs travel as
//! `SyncRecords`/`SyncDigest`, so repair application (LWW, reap-floor
//! guard) has exactly one code path.
//!
//! Every handler re-derives the shared-arc layout from its own ring view
//! and checks the exchange's [`ring_hash`] guard: when the peers' views
//! disagree, heap indices would address different key ranges, so the
//! message is dropped (`sync.ring_mismatch`) and the next round retries.

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

use mystore_engine::record::F_SELF_KEY;
use mystore_engine::Record;
use mystore_net::{Context, NodeId};
use mystore_ring::Arc_;

use crate::config::COST;
use crate::message::Msg;
use crate::storage_node::{data, StorageNode};
use crate::sync::{ring_hash, TreeHeap};

/// Wire bytes a root-match exchange costs (one `SyncTreeRequest`); what a
/// flat digest of every shared key would have cost beyond this is counted
/// as saved.
const ROOT_EXCHANGE_BYTES: u64 = 16;

impl StorageNode {
    /// While a migration is still shipping arcs into this node, a tree
    /// exchange would find exactly the records still in flight and pull
    /// them as "repairs" — around the migration's rate limit, and digest by
    /// digest. The node neither opens nor answers one until its
    /// dual-ownership windows have closed; the next round retries.
    fn receiving_migration(&self) -> bool {
        !self.pending_in.is_empty()
    }

    /// The arcs this node shares with `peer` plus the exchange guard hash.
    fn shared_view(&self, peer: NodeId) -> (Vec<Arc_>, u64) {
        let arcs: Vec<Arc_> = self
            .replica_arcs
            .iter()
            .filter(|(_, replicas)| replicas.contains(&peer))
            .map(|(arc, _)| *arc)
            .collect();
        let hash = ring_hash(self.id(), peer, self.sync_tree.splits(), &arcs);
        (arcs, hash)
    }

    /// One anti-entropy round (`TK_ANTI_ENTROPY`): pick the next alive
    /// replica peer in rotation and offer it our root hash over the arcs we
    /// share (§7 future work: "solving problems on data's consistency" —
    /// this bounds divergence even for keys that are never read).
    pub(crate) fn merkle_round(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.receiving_migration() {
            return;
        }
        let me = self.id();
        // Replica peers: every node co-listed with us in some arc's
        // preference list, deduped in node-id order.
        let candidates: BTreeSet<NodeId> =
            self.replica_arcs.iter().flat_map(|(_, replicas)| replicas.iter().copied()).collect();
        let peers: Vec<NodeId> =
            candidates.into_iter().filter(|&p| p != me && self.gossiper.is_alive(p)).collect();
        self.sync_round += 1;
        let Some(&peer) = peers.get(self.sync_round as usize % peers.len().max(1)) else {
            return;
        };
        let (arcs, hash) = self.shared_view(peer);
        if arcs.is_empty() {
            return;
        }
        self.sync_metrics.rounds.inc();
        let root = self.sync_tree.heap(data(&self.db), &arcs).root();
        ctx.send(peer, Msg::SyncTreeRequest { ring_hash: hash, root });
    }

    /// Peer side of a round opening: equal roots settle the exchange,
    /// unequal roots start the walk from the root's children.
    pub(crate) fn on_sync_tree_request(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: NodeId,
        their_hash: u64,
        their_root: u64,
    ) {
        if self.receiving_migration() {
            return;
        }
        ctx.consume(COST.gossip_us);
        let (arcs, hash) = self.shared_view(from);
        if hash != their_hash || arcs.is_empty() {
            self.sync_metrics.ring_mismatch.inc();
            return;
        }
        let heap = self.sync_tree.heap(data(&self.db), &arcs);
        if heap.root() == their_root {
            self.sync_metrics.root_match.inc();
            let flat_bytes = self.sync_tree.flat_cost(data(&self.db), &arcs);
            self.sync_metrics.bytes_saved.add(flat_bytes.saturating_sub(ROOT_EXCHANGE_BYTES));
            return;
        }
        self.descend(ctx, from, hash, &heap, &[0]);
    }

    /// Walk step: compare the peer's hashes against ours and descend the
    /// subtrees that differ.
    pub(crate) fn on_sync_tree_level(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: NodeId,
        their_hash: u64,
        their_nodes: Vec<(u32, u64)>,
    ) {
        ctx.consume(COST.gossip_us + their_nodes.len() as u64 / 4);
        let (arcs, hash) = self.shared_view(from);
        if hash != their_hash || arcs.is_empty() {
            self.sync_metrics.ring_mismatch.inc();
            return;
        }
        self.sync_metrics.tree_levels.inc();
        let heap = self.sync_tree.heap(data(&self.db), &arcs);
        let mismatched: Vec<u32> = their_nodes
            .into_iter()
            .filter(|&(idx, h)| heap.node(idx).is_some_and(|mine| mine != h))
            .map(|(idx, _)| idx)
            .collect();
        if !mismatched.is_empty() {
            self.descend(ctx, from, hash, &heap, &mismatched);
        }
    }

    /// Sends the next walk step for `mismatched` heap indices: children of
    /// internal nodes ride a `SyncTreeLevel`, divergent leaves bottom out
    /// as one `SyncLeafDigest` with their exhaustive per-key digests.
    fn descend(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        to: NodeId,
        hash: u64,
        heap: &TreeHeap,
        mismatched: &[u32],
    ) {
        let mut nodes: Vec<(u32, u64)> = Vec::new();
        let mut leaves: Vec<u32> = Vec::new();
        let mut entries: Vec<(String, u64)> = Vec::new();
        for &idx in mismatched {
            if heap.is_leaf(idx) {
                // Padding slots hash EMPTY on both sides and cannot
                // mismatch under an agreed ring hash; skip them defensively.
                let Some((arc, sub)) = heap.slot(idx) else { continue };
                leaves.push(idx);
                entries.extend(self.sync_tree.leaf_entries(data(&self.db), arc, sub));
            } else {
                let (l, r) = TreeHeap::children(idx);
                for child in [l, r] {
                    if let Some(h) = heap.node(child) {
                        nodes.push((child, h));
                    }
                }
            }
        }
        if !nodes.is_empty() {
            ctx.send(to, Msg::SyncTreeLevel { ring_hash: hash, nodes });
        }
        if !leaves.is_empty() {
            self.sync_metrics.leaf_digests.inc();
            self.sync_metrics.digest_entries.add(entries.len() as u64);
            ctx.send(to, Msg::SyncLeafDigest { ring_hash: hash, leaves, entries });
        }
    }

    /// Terminal step: per-key reconciliation over the divergent leaves
    /// only (`reconcile`), after a push of every key we hold in those
    /// leaves that the sender lacks entirely (the sender's own reap floor
    /// decides whether a pushed record applies).
    pub(crate) fn on_sync_leaf_digest(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: NodeId,
        their_hash: u64,
        leaves: Vec<u32>,
        entries: Vec<(String, u64)>,
    ) {
        ctx.consume(COST.gossip_us + entries.len() as u64 / 4);
        let (arcs, hash) = self.shared_view(from);
        if hash != their_hash || arcs.is_empty() {
            self.sync_metrics.ring_mismatch.inc();
            return;
        }
        let data = data(&self.db);
        let heap = self.sync_tree.heap(data, &arcs);
        let theirs: BTreeSet<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        let lacking: Vec<Record> = leaves
            .into_iter()
            .filter_map(|idx| heap.slot(idx))
            .flat_map(|(arc, sub)| self.sync_tree.leaf(data, arc, sub))
            .filter(|doc| doc.get_str(F_SELF_KEY).is_some_and(|key| !theirs.contains(key)))
            .filter_map(|doc| Record::from_raw(&doc).ok())
            .collect();
        self.reconcile(ctx, from, entries, lacking);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::sync::SyncTree;
    use crate::testing::Probe;
    use mystore_bson::ObjectId;
    use mystore_engine::pack_version;
    use mystore_net::{FaultPlan, NetConfig, NodeConfig, Sim, SimConfig, SimTime};

    const NODES: u32 = 5;

    /// Holds every leaf hash of the ring on every node, cached or not, to
    /// the hash a fresh tree computes from that node's store. Reading a
    /// leaf caches it, so whatever is written next lands on a cached leaf
    /// (on every leaf, not only those the node replicates: a migration
    /// removes keys from arcs the node left). Returns the leaves compared.
    fn every_leaf_hashes_the_store(sim: &mut Sim<Msg>) -> usize {
        let now = sim.now().as_micros();
        let mut compared = 0;
        for i in 0..NODES {
            let node = sim.process_mut::<StorageNode>(NodeId(i)).unwrap();
            let (data, mut fresh) = (data(&node.db), SyncTree::new(node.sync_tree.splits()));
            for (arc, _) in node.ring.partition() {
                for sub in 0..fresh.splits() {
                    let cached = node.sync_tree.leaf_hash(data, arc, sub);
                    let want = fresh.leaf_hash(data, arc, sub);
                    assert_eq!(
                        cached, want,
                        "node {i} at {now} µs: stale leaf ({}, {sub})",
                        arc.end
                    );
                    compared += 1;
                }
            }
        }
        compared
    }

    fn record(i: u64, val: &str, version: u64) -> Record {
        let id = ObjectId::from_parts(7, version, i as u32);
        Record::new(id, format!("pl-{i:03}"), val.as_bytes().to_vec(), pack_version(version, 0))
    }

    /// Drives a cluster through every path that writes a node's data
    /// collection — coordinator and replica writes, read repair,
    /// `SyncRecords` and `TransferRecords` applies, preload, migration
    /// removes, tombstone reaps and a restart — and after every 100 ms holds
    /// each cached Merkle leaf hash to a fresh hash of the store.
    #[test]
    fn cached_leaf_hashes_always_hash_the_store() {
        let mut spec = ClusterSpec::small(NODES as usize);
        spec.storage.anti_entropy_interval_us = 2_000_000;
        spec.storage.compaction_interval_us = 1_000_000;
        spec.storage.tombstone_grace_us = 1_000_000;
        // A join that ships for several steps, so arcs cut over (and drop
        // their keys) after the step that saw the ring change.
        spec.storage.migrate_max_records_per_tick = 4;
        let config =
            SimConfig { net: NetConfig::gigabit_lan(), faults: FaultPlan::none(), seed: 43 };
        let mut sim = spec.build_sim(config);
        let warm = spec.warmup_us();
        let (t_join, t_end) = (warm + 6_000_000, warm + 20_000_000);
        // Quorum writes of 30 keys through the four first members, then
        // deletes of ten of them: coordinator and replica writes, and
        // tombstones for the reaper.
        let script: Vec<(u64, NodeId, Msg)> = (0..40u64)
            .map(|i| {
                let (key, delete) = (format!("cw-{}", i % 30), i >= 30);
                let value = std::sync::Arc::new(format!("v{i}").into_bytes());
                (
                    warm + i * 50_000,
                    NodeId((i % 4) as u32),
                    Msg::Put { req: i + 1, key, value, delete },
                )
            })
            .collect();
        sim.add_node(Probe::new(script), NodeConfig::default());
        sim.schedule_crash(SimTime(0), NodeId(4), None);
        sim.schedule_restart(SimTime(t_join), NodeId(4));
        sim.schedule_crash(SimTime(warm + 4_000_000), NodeId(1), Some(500_000));
        sim.start();
        let mut compared = 0;
        while sim.now().as_micros() < warm {
            sim.run_for(100_000);
            compared += every_leaf_hashes_the_store(&mut sim);
        }

        // Preloads, some fresher on their first replica only (anti-entropy
        // repairs), some fresher everywhere but there (read repair at that
        // coordinator), then, once every leaf is cached again, direct
        // `SyncRecords`/`TransferRecords` and the reads that repair.
        let ring = sim.process::<StorageNode>(NodeId(0)).unwrap().ring().clone();
        let mut sends = Vec::new();
        for i in 0..200u64 {
            let key = format!("pl-{i:03}");
            let prefs = ring.preference_list(key.as_bytes(), 3);
            for &n in &prefs {
                sim.process_mut::<StorageNode>(n)
                    .unwrap()
                    .preload_record(&record(i, "base", 1_000));
            }
            let fresh = record(i, "fresh", 2_000);
            match i % 20 {
                0 => sim.process_mut::<StorageNode>(prefs[0]).unwrap().preload_record(&fresh),
                1 => {
                    for &n in &prefs[1..] {
                        sim.process_mut::<StorageNode>(n).unwrap().preload_record(&fresh);
                    }
                    sends.push((prefs[0], Msg::Get { req: 1_000 + i, key }));
                }
                2 => sends.push((prefs[1], Msg::SyncRecords { records: vec![fresh] })),
                3 => sends.push((prefs[2], Msg::TransferRecords { records: vec![fresh.into()] })),
                _ => {}
            }
        }
        compared += every_leaf_hashes_the_store(&mut sim);
        for (to, msg) in sends {
            sim.inject(sim.now() + 1, to, msg);
        }
        while sim.now().as_micros() < t_end {
            sim.run_for(100_000);
            compared += every_leaf_hashes_the_store(&mut sim);
        }

        let trace = sim.trace();
        for event in
            ["read_repair", "anti_entropy_repair", "migrate_arc_cutover", "tombstones_reaped"]
        {
            assert!(trace.count(event) > 0, "no {event}: the scenario missed a write path");
        }
        assert!(compared > 100_000, "only {compared} leaves compared");
    }
}
