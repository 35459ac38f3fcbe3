//! Merkle-tree anti-entropy driver (DESIGN.md §14).
//!
//! The round initiator sends one [`Msg::SyncTreeRequest`] carrying the
//! root hash of a tree built over the arcs both peers replicate. Equal
//! roots end the exchange in two messages; unequal roots start a stateless
//! ping-pong walk ([`Msg::SyncTreeLevel`]) that descends only mismatched
//! subtrees, bottoming out in per-key digests ([`Msg::SyncLeafDigest`])
//! for just the divergent leaves. The per-key reconciliation then runs on
//! `SyncRecords`/`SyncDigest` (`on_sync_digest`), so repair application
//! (LWW, reap-floor guard, WAL flush arming) has exactly one code path.
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

use mystore_engine::Record;
use mystore_net::{Context, NodeId};
use mystore_ring::Arc_;

use crate::config::COST;
use crate::message::Msg;
use crate::storage_node::{StorageNode, DATA};
use crate::sync::{ring_hash, TreeHeap};

/// Wire bytes a root-match exchange costs (one `SyncTreeRequest`); what a
/// flat digest of every shared key would have cost beyond this is counted
/// as saved.
const ROOT_EXCHANGE_BYTES: u64 = 16;

impl StorageNode {
    /// Brings the sync tree up to date with the local store: a full
    /// collection scan on the first round after boot/restart, the engine's
    /// dirty-key feed afterwards. The feed is switched on by that first
    /// scan — before it, a dirty set would only grow to be thrown away.
    pub(crate) fn sync_tree_refresh(&mut self) {
        if !self.sync_tree.is_built() {
            let records: Vec<(String, u64, bool)> = self
                .db
                .collection(DATA)
                .map(|c| {
                    c.iter()
                        .filter_map(|(_, doc)| Record::sync_state(&doc))
                        .map(|(key, version, is_del)| (key.to_string(), version, is_del))
                        .collect()
                })
                .unwrap_or_default();
            self.sync_tree.rebuild(records);
            self.db.track_dirty_keys(DATA);
            return;
        }
        for key in self.db.take_dirty_keys() {
            // Read in place: the tree needs the version and flag, not `val`.
            let state = self
                .db
                .get_record_raw(DATA, &key)
                .and_then(|doc| Record::sync_state(&doc))
                .map(|(_, version, is_del)| (version, is_del));
            self.sync_tree.note(&self.ring, &key, state);
        }
    }

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
        self.sync_tree_refresh();
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
        let root = self.sync_tree.heap(&arcs).root();
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
        self.sync_tree_refresh();
        let (arcs, hash) = self.shared_view(from);
        if hash != their_hash || arcs.is_empty() {
            self.sync_metrics.ring_mismatch.inc();
            return;
        }
        let heap = self.sync_tree.heap(&arcs);
        if heap.root() == their_root {
            self.sync_metrics.root_match.inc();
            let (_, flat_bytes) = self.sync_tree.flat_cost(&arcs);
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
        self.sync_tree_refresh();
        let (arcs, hash) = self.shared_view(from);
        if hash != their_hash || arcs.is_empty() {
            self.sync_metrics.ring_mismatch.inc();
            return;
        }
        self.sync_metrics.tree_levels.inc();
        let heap = self.sync_tree.heap(&arcs);
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
                entries.extend(self.sync_tree.leaf_entries(arc, sub));
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
    /// only. Same LWW rules as `on_sync_digest`, plus a push of
    /// every key we hold in those leaves that the sender lacks entirely
    /// (the sender's own reap floor decides whether a pushed record
    /// applies).
    pub(crate) fn on_sync_leaf_digest(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: NodeId,
        their_hash: u64,
        leaves: Vec<u32>,
        entries: Vec<(String, u64)>,
    ) {
        ctx.consume(COST.gossip_us + entries.len() as u64 / 4);
        self.sync_tree_refresh();
        let (arcs, hash) = self.shared_view(from);
        if hash != their_hash || arcs.is_empty() {
            self.sync_metrics.ring_mismatch.inc();
            return;
        }
        let heap = self.sync_tree.heap(&arcs);
        let mut newer: Vec<Record> = Vec::new();
        let mut behind: Vec<(String, u64)> = Vec::new();
        {
            let theirs: BTreeSet<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
            for idx in leaves {
                let Some((arc, sub)) = heap.slot(idx) else { continue };
                for (key, _) in self.sync_tree.leaf_entries(arc, sub) {
                    if theirs.contains(key.as_str()) {
                        continue;
                    }
                    if let Ok(Some(mine)) = self.db.get_record(DATA, &key) {
                        newer.push(mine);
                    }
                }
            }
        }
        for (key, their_version) in entries {
            match self.db.get_record(DATA, &key) {
                Ok(Some(mine)) if mine.wins_over_version(their_version) => newer.push(mine),
                Ok(Some(mine)) if mine.loses_to_version(their_version) => {
                    behind.push((key, mine.version))
                }
                Ok(Some(_)) => {} // equal versions: the same write
                _ => {
                    // Missing key: same resurrection guard as
                    // `on_sync_digest`.
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
}
