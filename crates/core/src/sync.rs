//! Merkle-tree anti-entropy state (DESIGN.md §14).
//!
//! [`SyncTree`] caches per-leaf hashes over the data collection, whose key
//! map a storage node orders by `(key_point, self_key)`: ring order, so a
//! leaf is one range scan of the store. A *leaf* is one of `splits` equal
//! sub-ranges of a ring arc (one arc per virtual node); every key in an arc
//! shares a replica set, so two replicas can compare trees built over
//! exactly the arcs they share. A leaf's hash folds its `(key, version,
//! tombstone)` triples in `(point, key)` order, read in place through
//! [`Record::sync_state`], so two leaves hash equal iff the replicas hold
//! identical state for that key range — tombstones included.
//!
//! Trees are peer-scoped and ephemeral: each exchange enumerates the arcs
//! shared with that peer ([`shared_arcs`]), stacks their `splits` leaves in
//! ring order, pads to a power of two, and folds an implicit binary heap
//! ([`TreeHeap`]: index 0 the root, children of `i` at `2i+1`/`2i+2`).
//! Only leaf hashes are cached — recomputed lazily after a local write
//! drops the one covering its key — so the walk protocol stays stateless: any message can be dropped
//! and the next round simply starts over from the root.

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

use mystore_bson::RawDocument;
use mystore_engine::{Collection, Record};
use mystore_net::NodeId;
use mystore_obs::{Counter, Registry};
use mystore_ring::{Arc_, HashRing};

/// Leaves per ring arc in a storage node's tree: each arc's key range is
/// cut into this many equal sub-ranges. More splits localize divergence to
/// fewer keys per leaf at the cost of a deeper walk; both peers of an
/// exchange must agree on it (it is folded into [`ring_hash`]).
pub const LEAF_SPLITS: u32 = 16;

/// FNV-1a 64-bit offset basis — the seed of every fold in this module.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Hash of a leaf (or padding slot) that covers no entries.
const EMPTY_HASH: u64 = 0;

/// FNV-1a 64-bit, folded over `data`.
fn fnv1a(hash: u64, data: &[u8]) -> u64 {
    let mut h = hash;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Registry-backed counters for the sync subsystem (`sync.*`).
#[derive(Debug, Clone, Default)]
pub struct SyncMetrics {
    /// Anti-entropy rounds initiated.
    pub rounds: Counter,
    /// `SyncTreeLevel` messages processed while walking mismatched trees.
    pub tree_levels: Counter,
    /// Per-key digest entries sent — divergent-leaf digests and
    /// counter-digests alike. The quantity the Merkle walk keeps small.
    pub digest_entries: Counter,
    /// Divergent-leaf digest messages sent after a walk bottomed out.
    pub leaf_digests: Counter,
    /// Tree exchanges settled as identical at the root hash.
    pub root_match: Counter,
    /// Digest bytes a flat exchange would have cost on rounds the tree
    /// settled at the root (estimate — see DESIGN.md §14).
    pub bytes_saved: Counter,
    /// Tree messages dropped because the peers' ring views disagreed.
    pub ring_mismatch: Counter,
    /// Sync pulls/pushes refused because the offered record predates the
    /// local reap floor (the resurrection-after-reap guard).
    pub resurrections_blocked: Counter,
}

impl SyncMetrics {
    /// Resolves the standard `sync.*` series from `registry`.
    pub fn from_registry(registry: &Registry) -> Self {
        SyncMetrics {
            rounds: registry.counter("sync.rounds"),
            tree_levels: registry.counter("sync.tree_levels"),
            digest_entries: registry.counter("sync.digest_entries"),
            leaf_digests: registry.counter("sync.leaf_digests"),
            root_match: registry.counter("sync.root_match"),
            bytes_saved: registry.counter("sync.bytes_saved"),
            ring_mismatch: registry.counter("sync.ring_mismatch"),
            resurrections_blocked: registry.counter("sync.resurrections_blocked"),
        }
    }
}

/// The ring arcs `me` replicates, each with its replica set, in clockwise
/// ring order. Every key in an arc `(start, end]` has the same preference
/// list as the arc's own end point, so membership is decided once per arc.
pub fn replica_arcs(ring: &HashRing<NodeId>, n: usize, me: NodeId) -> Vec<(Arc_, Vec<NodeId>)> {
    ring.partition()
        .into_iter()
        .map(|(arc, _)| (arc, ring.successors_of_point(arc.end, n)))
        .filter(|(_, replicas)| replicas.contains(&me))
        .collect()
}

/// The ring arcs whose replica set contains both `a` and `b` — the
/// keyspace the two nodes jointly replicate, in clockwise ring order.
pub fn shared_arcs(ring: &HashRing<NodeId>, n: usize, a: NodeId, b: NodeId) -> Vec<Arc_> {
    replica_arcs(ring, n, a)
        .into_iter()
        .filter(|(_, replicas)| replicas.contains(&b))
        .map(|(arc, _)| arc)
        .collect()
}

/// Guard hash for one tree exchange: both peers must derive the same node
/// pair, split count, and shared-arc list, or heap indices would address
/// different key ranges. Symmetric in `a`/`b`.
pub fn ring_hash(a: NodeId, b: NodeId, splits: u32, arcs: &[Arc_]) -> u64 {
    let (lo, hi) = if a.0 <= b.0 { (a, b) } else { (b, a) };
    let mut h = fnv1a(FNV_OFFSET, &lo.0.to_le_bytes());
    h = fnv1a(h, &hi.0.to_le_bytes());
    h = fnv1a(h, &splits.to_le_bytes());
    for arc in arcs {
        h = fnv1a(h, &arc.start.to_le_bytes());
        h = fnv1a(h, &arc.end.to_le_bytes());
    }
    h
}

/// An ephemeral per-exchange tree: the implicit heap of hashes plus the
/// leaf layout it was built over.
#[derive(Debug, Clone)]
pub struct TreeHeap {
    /// The heap: index 0 is the root, children of `i` sit at `2i+1`/`2i+2`,
    /// the last `base` slots are the (padded) leaf level.
    hashes: Vec<u64>,
    /// The `(arc, sub-range)` each leaf slot covers, in ring order. Slots
    /// past this list are padding and hash to [`EMPTY_HASH`].
    slots: Vec<(Arc_, u32)>,
}

impl TreeHeap {
    /// The root hash. Equal roots ⇒ identical replica state over the
    /// covered arcs.
    pub fn root(&self) -> u64 {
        self.hashes.first().copied().unwrap_or(EMPTY_HASH)
    }

    /// Width of the padded leaf level.
    fn base(&self) -> usize {
        self.hashes.len().div_ceil(2)
    }

    /// Hash at heap index `idx`, if in range.
    pub fn node(&self, idx: u32) -> Option<u64> {
        self.hashes.get(idx as usize).copied()
    }

    /// True when `idx` addresses the leaf level.
    pub fn is_leaf(&self, idx: u32) -> bool {
        (idx as usize) >= self.base() - 1
    }

    /// The key range a leaf-level index covers (`None` for padding slots).
    pub fn slot(&self, idx: u32) -> Option<(Arc_, u32)> {
        (idx as usize).checked_sub(self.base() - 1).and_then(|i| self.slots.get(i).copied())
    }

    /// Child heap indices of an internal node.
    pub fn children(idx: u32) -> (u32, u32) {
        (2 * idx + 1, 2 * idx + 2)
    }
}

/// Merkle state over the local store: the cached leaf hashes. The leaves
/// themselves are ranges of the ring-ordered data collection.
#[derive(Debug, Clone, Default)]
pub struct SyncTree {
    /// Leaf sub-ranges per ring arc.
    splits: u32,
    /// Cached leaf hashes keyed `(arc_end, sub)`: dropped per leaf by a
    /// local write, wholesale when arc boundaries move or a reap or restart
    /// changed the store behind the cache.
    leaves: BTreeMap<(u64, u32), u64>,
}

impl SyncTree {
    /// An empty tree cutting each arc into `splits` leaves (min 1).
    pub fn new(splits: u32) -> Self {
        SyncTree { splits: splits.max(1), ..SyncTree::default() }
    }

    /// Leaf sub-ranges per arc.
    pub fn splits(&self) -> u32 {
        self.splits
    }

    /// Drops every cached leaf hash: the ring changed (arc boundaries
    /// moved), or a reap or restart changed the store wholesale.
    pub fn clear(&mut self) {
        self.leaves.clear();
    }

    /// A local write changed `key`'s record: drops the cached hash of the
    /// leaf covering its point. With nothing cached there is nothing to
    /// drop, and the key's point is not computed.
    pub fn dirty(&mut self, ring: &HashRing<NodeId>, key: &str) {
        if self.leaves.is_empty() {
            return;
        }
        let point = HashRing::<NodeId>::key_point(key.as_bytes());
        if let Some(arc) = ring.arc_of_point(point) {
            let sub = self.sub_of(arc, point);
            self.leaves.remove(&(arc.end, sub));
        }
    }

    /// Which of `arc`'s sub-ranges `point` falls in. `point` must be inside
    /// the arc; out-of-arc points clamp to the last sub-range.
    pub fn sub_of(&self, arc: Arc_, point: u64) -> u32 {
        let len = span(arc);
        let mut off = u128::from(point.wrapping_sub(arc.start));
        if off == 0 {
            // Offset 0 is `start` itself, which is *outside* `(start, end]`
            // for every arc except the full circle — where it is the end.
            off = len;
        }
        (((off - 1) * u128::from(self.splits)) / len).min(u128::from(self.splits) - 1) as u32
    }

    /// Bounds `(lo, hi]` of sub-range `sub` of `arc` (half-open like the
    /// arc itself, wrapping through zero when the arc does).
    fn sub_bounds(&self, arc: Arc_, sub: u32) -> (u64, u64) {
        let len = span(arc);
        let s = u128::from(self.splits);
        let lo = arc.start.wrapping_add((len * u128::from(sub) / s) as u64);
        let hi = arc.start.wrapping_add((len * (u128::from(sub) + 1) / s) as u64);
        (lo, hi)
    }

    /// The records of one leaf of `data`, in `(point, key)` order.
    pub fn leaf<'d>(
        &self,
        data: &'d Collection,
        arc: Arc_,
        sub: u32,
    ) -> impl Iterator<Item = RawDocument<'d>> {
        let (lo, hi) = self.sub_bounds(arc, sub);
        data.scan_points(lo, hi)
    }

    /// The hash of one leaf, computed (and cached) on demand.
    pub fn leaf_hash(&mut self, data: &Collection, arc: Arc_, sub: u32) -> u64 {
        if let Some(&h) = self.leaves.get(&(arc.end, sub)) {
            return h;
        }
        let mut h = FNV_OFFSET;
        let mut any = false;
        for (key, version, is_del) in
            self.leaf(data, arc, sub).filter_map(|d| Record::sync_state(&d))
        {
            any = true;
            h = fnv1a(h, key.as_bytes());
            h = fnv1a(h, &[0]);
            h = fnv1a(h, &version.to_le_bytes());
            h = fnv1a(h, &[u8::from(is_del)]);
        }
        let h = if any { h } else { EMPTY_HASH };
        self.leaves.insert((arc.end, sub), h);
        h
    }

    /// The exhaustive `(key, version)` digest of one leaf, tombstones
    /// included — the per-key fallback for a divergent leaf.
    pub fn leaf_entries(&self, data: &Collection, arc: Arc_, sub: u32) -> Vec<(String, u64)> {
        self.leaf(data, arc, sub)
            .filter_map(|d| Record::sync_state(&d))
            .map(|(key, version, _)| (key.to_string(), version))
            .collect()
    }

    /// The wire bytes a flat digest of every stored key in `arcs` would
    /// cost, at `key_len + 8` bytes per entry.
    pub fn flat_cost(&self, data: &Collection, arcs: &[Arc_]) -> u64 {
        let keys = arcs.iter().flat_map(|arc| data.scan_points(arc.start, arc.end));
        keys.filter_map(|d| Record::sync_state(&d)).map(|(key, _, _)| key.len() as u64 + 8).sum()
    }

    /// Builds the ephemeral exchange tree over `arcs` (ring order): each
    /// arc contributes `splits` leaves, padded to a power of two.
    pub fn heap(&mut self, data: &Collection, arcs: &[Arc_]) -> TreeHeap {
        let mut slots = Vec::with_capacity(arcs.len() * self.splits as usize);
        for &arc in arcs {
            for sub in 0..self.splits {
                slots.push((arc, sub));
            }
        }
        let base = slots.len().next_power_of_two().max(1);
        let mut hashes = vec![EMPTY_HASH; 2 * base - 1];
        for i in 0..slots.len() {
            let Some(&(arc, sub)) = slots.get(i) else { break };
            let h = self.leaf_hash(data, arc, sub);
            if let Some(slot) = hashes.get_mut(base - 1 + i) {
                *slot = h;
            }
        }
        for i in (0..base - 1).rev() {
            let l = hashes.get(2 * i + 1).copied().unwrap_or(EMPTY_HASH);
            let r = hashes.get(2 * i + 2).copied().unwrap_or(EMPTY_HASH);
            let mut h = fnv1a(FNV_OFFSET, &l.to_le_bytes());
            h = fnv1a(h, &r.to_le_bytes());
            if let Some(slot) = hashes.get_mut(i) {
                *slot = h;
            }
        }
        TreeHeap { hashes, slots }
    }
}

/// Arc length as a `u128` so the full circle (`len() == 0`) is `2^64`,
/// never a division by zero.
fn span(arc: Arc_) -> u128 {
    match arc.len() {
        0 => 1u128 << 64,
        l => u128::from(l),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mystore_bson::ObjectId;
    use mystore_engine::Db;

    fn ring5() -> HashRing<NodeId> {
        let mut r = HashRing::new();
        for i in 0..5u32 {
            r.add_node(NodeId(i), format!("node{i}"), 16).unwrap();
        }
        r
    }

    /// A ring-ordered store of `keys` records, `key-NNNN` at version
    /// `100 + i`, every seventh a tombstone; `except` is left out.
    fn seeded_store(keys: usize, except: Option<usize>) -> Db {
        let mut db = Db::memory();
        db.set_key_point(HashRing::<NodeId>::key_point);
        for i in (0..keys).filter(|&i| Some(i) != except) {
            let (id, key, version) =
                (ObjectId::from_parts(0, 0, i as u32), format!("key-{i:04}"), 100 + i as u64);
            let r = if i % 7 == 0 {
                Record::tombstone(id, key, version)
            } else {
                Record::new(id, key, vec![1], version)
            };
            db.put_record(DATA, &r).unwrap();
        }
        db
    }

    const DATA: &str = "data";

    fn data(db: &Db) -> &Collection {
        db.collection(DATA).unwrap()
    }

    fn arcs(ring: &HashRing<NodeId>) -> Vec<Arc_> {
        ring.partition().into_iter().map(|(a, _)| a).collect()
    }

    #[test]
    fn every_key_lands_in_exactly_one_leaf() {
        let ring = ring5();
        let db = seeded_store(500, None);
        let tree = SyncTree::new(4);
        let mut covered = 0usize;
        for arc in arcs(&ring) {
            for sub in 0..tree.splits() {
                covered += tree.leaf_entries(data(&db), arc, sub).len();
            }
        }
        assert_eq!(covered, 500, "leaves must tile the keyspace exactly once");
        // Spot-check sub_of against the leaf that actually contains the key.
        for i in (0..500).step_by(37) {
            let key = format!("key-{i:04}");
            let point = HashRing::<NodeId>::key_point(key.as_bytes());
            let arc = ring.arc_of_point(point).unwrap();
            let sub = tree.sub_of(arc, point);
            assert!(
                tree.leaf_entries(data(&db), arc, sub).iter().any(|(k, _)| k == &key),
                "{key} missing from its computed leaf"
            );
        }
    }

    #[test]
    fn identical_stores_agree_and_divergence_is_localized() {
        let ring = ring5();
        let arcs = arcs(&ring);
        let (da, mut db) = (seeded_store(400, None), seeded_store(400, None));
        let (mut a, mut b) = (SyncTree::new(8), SyncTree::new(8));
        assert_eq!(a.heap(data(&da), &arcs).root(), b.heap(data(&db), &arcs).root());

        // One divergent version: dropping its leaf moves exactly one hash.
        let newer = Record::new(ObjectId::from_parts(0, 0, 123), "key-0123", vec![2], 9999);
        assert!(db.put_record(DATA, &newer).unwrap());
        b.dirty(&ring, "key-0123");
        assert_ne!(a.heap(data(&da), &arcs).root(), b.heap(data(&db), &arcs).root());
        let point = HashRing::<NodeId>::key_point(b"key-0123");
        let arc = ring.arc_of_point(point).unwrap();
        let bad_sub = a.sub_of(arc, point);
        let mut moved = Vec::new();
        for &probe_arc in &arcs {
            for sub in 0..8 {
                if a.leaf_hash(data(&da), probe_arc, sub) != b.leaf_hash(data(&db), probe_arc, sub)
                {
                    moved.push((probe_arc.end, sub));
                }
            }
        }
        assert_eq!(moved, vec![(arc.end, bad_sub)]);
    }

    #[test]
    fn tombstone_flag_changes_the_leaf_hash() {
        let ring = ring5();
        let arcs = arcs(&ring);
        let da = seeded_store(50, None);
        // Same key + version, delete flag flipped: must not hash equal.
        let mut db = seeded_store(50, Some(1));
        db.put_record(DATA, &Record::tombstone(ObjectId::from_parts(0, 0, 1), "key-0001", 101))
            .unwrap();
        let (mut a, mut b) = (SyncTree::new(4), SyncTree::new(4));
        assert_ne!(a.heap(data(&da), &arcs).root(), b.heap(data(&db), &arcs).root());
    }

    #[test]
    fn heap_shape_and_walk_indices() {
        let db = seeded_store(64, None);
        let heap = SyncTree::new(2).heap(data(&db), &arcs(&ring5()));
        // 80 arcs × 2 subs = 160 leaves → padded to 256.
        assert!(!heap.is_leaf(0));
        let (l, r) = TreeHeap::children(0);
        assert_eq!((l, r), (1, 2));
        let first_leaf = (256 - 1) as u32;
        assert!(heap.is_leaf(first_leaf));
        assert!(heap.slot(first_leaf).is_some());
        assert!(heap.slot(first_leaf + 160).is_none(), "padding has no slot");
        assert!(heap.node(first_leaf + 255).is_some());
        assert!(heap.node(first_leaf + 256).is_none());
    }

    #[test]
    fn ring_hash_is_symmetric_and_arc_sensitive() {
        let ring = ring5();
        let arcs = shared_arcs(&ring, 3, NodeId(0), NodeId(1));
        assert!(!arcs.is_empty());
        assert_eq!(
            ring_hash(NodeId(0), NodeId(1), 16, &arcs),
            ring_hash(NodeId(1), NodeId(0), 16, &arcs)
        );
        assert_ne!(
            ring_hash(NodeId(0), NodeId(1), 16, &arcs),
            ring_hash(NodeId(0), NodeId(1), 8, &arcs)
        );
        let fewer = &arcs[..arcs.len() - 1];
        assert_ne!(
            ring_hash(NodeId(0), NodeId(1), 16, &arcs),
            ring_hash(NodeId(0), NodeId(1), 16, fewer)
        );
    }

    #[test]
    fn shared_arcs_cover_exactly_the_jointly_replicated_keys() {
        let ring = ring5();
        let arcs = shared_arcs(&ring, 3, NodeId(2), NodeId(4));
        for i in 0..300 {
            let key = format!("probe-{i}");
            let point = HashRing::<NodeId>::key_point(key.as_bytes());
            let prefs = ring.preference_list(key.as_bytes(), 3);
            let joint = prefs.contains(&NodeId(2)) && prefs.contains(&NodeId(4));
            let in_shared = arcs.iter().any(|a| a.contains(point));
            assert_eq!(joint, in_shared, "{key}");
        }
    }
}
