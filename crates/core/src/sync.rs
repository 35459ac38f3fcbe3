//! Merkle-tree anti-entropy state (DESIGN.md §14).
//!
//! [`SyncTree`] maintains a mirror of the data collection keyed by ring
//! point — `(key_point, self_key) → (version, is_del)` — plus a cache of
//! per-leaf hashes. A *leaf* is one of `splits` equal sub-ranges of a ring
//! arc (one arc per virtual node); every key in an arc shares a replica
//! set, so two replicas can compare trees built over exactly the arcs they
//! share. A leaf's hash folds its sorted `(key, version, tombstone)`
//! triples, so two leaves hash equal iff the replicas hold identical state
//! for that key range — tombstones included.
//!
//! Trees are peer-scoped and ephemeral: each exchange enumerates the arcs
//! shared with that peer ([`shared_arcs`]), stacks their `splits` leaves in
//! ring order, pads to a power of two, and folds an implicit binary heap
//! ([`TreeHeap`]: index 0 the root, children of `i` at `2i+1`/`2i+2`).
//! Only leaf hashes are cached — rebuilt lazily after local writes dirty
//! them — so the walk protocol stays stateless: any message can be dropped
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
use std::ops::Bound;

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

/// Incrementally-maintained Merkle state over the local store.
#[derive(Debug, Clone, Default)]
pub struct SyncTree {
    /// Leaf sub-ranges per ring arc.
    splits: u32,
    /// `(key_point, self_key) → (version, is_del)` for every local record.
    mirror: BTreeMap<(u64, String), (u64, bool)>,
    /// Cached leaf hashes keyed `(arc_end, sub)`: dropped per leaf on local
    /// writes, wholesale on ring change (arc boundaries moved).
    leaves: BTreeMap<(u64, u32), u64>,
    /// Whether `mirror` reflects a full collection scan yet.
    built: bool,
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

    /// True once [`SyncTree::rebuild`] has seeded the mirror.
    pub fn is_built(&self) -> bool {
        self.built
    }

    /// Mirrored records (tombstones included).
    pub fn len(&self) -> usize {
        self.mirror.len()
    }

    /// True when nothing is mirrored.
    pub fn is_empty(&self) -> bool {
        self.mirror.is_empty()
    }

    /// Seeds the mirror from a full collection scan (first round after
    /// boot or restart). Leaf hashes recompute lazily.
    pub fn rebuild<I: IntoIterator<Item = (String, u64, bool)>>(&mut self, records: I) {
        self.mirror = records
            .into_iter()
            .map(|(key, version, is_del)| {
                ((HashRing::<NodeId>::key_point(key.as_bytes()), key), (version, is_del))
            })
            .collect();
        self.leaves.clear();
        self.built = true;
    }

    /// Forgets everything (node restart: the store is re-derived from the
    /// WAL, so the mirror must be re-seeded too).
    pub fn reset(&mut self) {
        self.mirror.clear();
        self.leaves.clear();
        self.built = false;
    }

    /// Ring membership changed: every arc boundary may have moved, so all
    /// cached leaf hashes are meaningless. The mirror survives — key
    /// points do not depend on the ring.
    pub fn on_ring_change(&mut self) {
        self.leaves.clear();
    }

    /// Records a local write/delete/reap of `key`: updates the mirror and
    /// dirties the covering leaf. `state` is the record's current
    /// `(version, is_del)`, `None` when it is physically gone (reaped).
    pub fn note(&mut self, ring: &HashRing<NodeId>, key: &str, state: Option<(u64, bool)>) {
        let point = HashRing::<NodeId>::key_point(key.as_bytes());
        match state {
            Some(vs) => {
                self.mirror.insert((point, key.to_string()), vs);
            }
            None => {
                self.mirror.remove(&(point, key.to_string()));
            }
        }
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

    /// The hash of one leaf, computed (and cached) on demand.
    pub fn leaf_hash(&mut self, arc: Arc_, sub: u32) -> u64 {
        if let Some(&h) = self.leaves.get(&(arc.end, sub)) {
            return h;
        }
        let (lo, hi) = self.sub_bounds(arc, sub);
        let mut h = FNV_OFFSET;
        let mut any = false;
        self.for_range(lo, hi, &mut |key, version, is_del| {
            any = true;
            h = fnv1a(h, key.as_bytes());
            h = fnv1a(h, &[0]);
            h = fnv1a(h, &version.to_le_bytes());
            h = fnv1a(h, &[u8::from(is_del)]);
        });
        let h = if any { h } else { EMPTY_HASH };
        self.leaves.insert((arc.end, sub), h);
        h
    }

    /// The exhaustive `(key, version)` digest of one leaf, tombstones
    /// included — the per-key fallback for a divergent leaf.
    pub fn leaf_entries(&self, arc: Arc_, sub: u32) -> Vec<(String, u64)> {
        let (lo, hi) = self.sub_bounds(arc, sub);
        let mut out = Vec::new();
        self.for_range(lo, hi, &mut |key, version, _| out.push((key.to_string(), version)));
        out
    }

    /// What a flat digest of every mirrored key in `arcs` would cost, as
    /// `(entries, wire bytes)` at `key_len + 8` bytes per entry.
    pub fn flat_cost(&self, arcs: &[Arc_]) -> (u64, u64) {
        let (mut entries, mut bytes) = (0u64, 0u64);
        for &arc in arcs {
            self.for_range(arc.start, arc.end, &mut |key, _, _| {
                entries += 1;
                bytes += key.len() as u64 + 8;
            });
        }
        (entries, bytes)
    }

    /// Builds the ephemeral exchange tree over `arcs` (ring order): each
    /// arc contributes `splits` leaves, padded to a power of two.
    pub fn heap(&mut self, arcs: &[Arc_]) -> TreeHeap {
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
            let h = self.leaf_hash(arc, sub);
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

    /// Applies `f` to every mirrored entry with key-point in the ring
    /// range `(lo, hi]`, which wraps through zero when `hi <= lo`
    /// (`hi == lo` is the full circle).
    fn for_range<F: FnMut(&str, u64, bool)>(&self, lo: u64, hi: u64, f: &mut F) {
        if hi > lo {
            self.segment(Some(lo), Some(hi), f);
        } else {
            self.segment(Some(lo), None, f);
            self.segment(None, Some(hi), f);
        }
    }

    /// One non-wrapping segment: exclusive `after`, inclusive `upto`,
    /// `None` = unbounded on that side.
    fn segment<F: FnMut(&str, u64, bool)>(&self, after: Option<u64>, upto: Option<u64>, f: &mut F) {
        let start = match after {
            Some(p) => match p.checked_add(1) {
                Some(q) => Bound::Included((q, String::new())),
                None => return, // `(u64::MAX, …]` without wrap is empty
            },
            None => Bound::Unbounded,
        };
        let end = match upto {
            Some(p) => match p.checked_add(1) {
                Some(q) => Bound::Excluded((q, String::new())),
                None => Bound::Unbounded, // `..= u64::MAX`
            },
            None => Bound::Unbounded,
        };
        for ((_, key), &(version, is_del)) in self.mirror.range((start, end)) {
            f(key, version, is_del);
        }
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

    fn ring5() -> HashRing<NodeId> {
        let mut r = HashRing::new();
        for i in 0..5u32 {
            r.add_node(NodeId(i), format!("node{i}"), 16).unwrap();
        }
        r
    }

    fn seeded_tree(splits: u32, keys: usize) -> SyncTree {
        let mut t = SyncTree::new(splits);
        t.rebuild((0..keys).map(|i| (format!("key-{i:04}"), 100 + i as u64, i % 7 == 0)));
        t
    }

    #[test]
    fn every_key_lands_in_exactly_one_leaf() {
        let ring = ring5();
        let tree = seeded_tree(4, 500);
        let arcs: Vec<Arc_> = ring.partition().into_iter().map(|(a, _)| a).collect();
        let mut covered = 0usize;
        for &arc in &arcs {
            for sub in 0..tree.splits() {
                covered += tree.leaf_entries(arc, sub).len();
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
                tree.leaf_entries(arc, sub).iter().any(|(k, _)| k == &key),
                "{key} missing from its computed leaf"
            );
        }
    }

    #[test]
    fn identical_mirrors_agree_and_divergence_is_localized() {
        let ring = ring5();
        let arcs: Vec<Arc_> = ring.partition().into_iter().map(|(a, _)| a).collect();
        let mut a = seeded_tree(8, 400);
        let mut b = seeded_tree(8, 400);
        assert_eq!(a.heap(&arcs).root(), b.heap(&arcs).root());

        // One divergent version: exactly one leaf hash moves.
        b.note(&ring, "key-0123", Some((9999, false)));
        let (ha, hb) = (a.heap(&arcs), b.heap(&arcs));
        assert_ne!(ha.root(), hb.root());
        let point = HashRing::<NodeId>::key_point(b"key-0123");
        let arc = ring.arc_of_point(point).unwrap();
        let bad_sub = a.sub_of(arc, point);
        let mut moved = Vec::new();
        for &probe_arc in &arcs {
            for sub in 0..8 {
                if a.leaf_hash(probe_arc, sub) != b.leaf_hash(probe_arc, sub) {
                    moved.push((probe_arc.end, sub));
                }
            }
        }
        assert_eq!(moved, vec![(arc.end, bad_sub)]);
    }

    #[test]
    fn tombstone_flag_changes_the_leaf_hash() {
        let ring = ring5();
        let mut a = seeded_tree(4, 50);
        let mut b = seeded_tree(4, 50);
        // Same key + version, delete flag flipped: must not hash equal.
        b.note(&ring, "key-0001", Some((101, true)));
        let arcs: Vec<Arc_> = ring.partition().into_iter().map(|(a, _)| a).collect();
        assert_ne!(a.heap(&arcs).root(), b.heap(&arcs).root());
    }

    #[test]
    fn note_removal_matches_a_rebuild_without_the_key() {
        let ring = ring5();
        let arcs: Vec<Arc_> = ring.partition().into_iter().map(|(a, _)| a).collect();
        let mut incremental = seeded_tree(4, 120);
        incremental.note(&ring, "key-0060", None);
        let mut scratch = SyncTree::new(4);
        scratch.rebuild(
            (0..120)
                .filter(|&i| i != 60)
                .map(|i| (format!("key-{i:04}"), 100 + i as u64, i % 7 == 0)),
        );
        assert_eq!(incremental.heap(&arcs).root(), scratch.heap(&arcs).root());
    }

    #[test]
    fn heap_shape_and_walk_indices() {
        let mut t = seeded_tree(2, 64);
        let arcs: Vec<Arc_> = ring5().partition().into_iter().map(|(a, _)| a).collect();
        let heap = t.heap(&arcs);
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
