//! Consistent-hash ring with virtual nodes.
//!
//! Implements the distribution scheme of paper §5.2.1: the hash space is a
//! ring; each physical node contributes a number of *virtual nodes*
//! proportional to its capacity; a record key hashes to a point and is owned
//! by the first (virtual) node clockwise from that point. Replica placement
//! walks further clockwise collecting *distinct physical* nodes.
//!
//! Points are derived Ketama-style from MD5 digests: virtual node `i` of the
//! node labelled `L` sits at the first eight digest bytes of `md5("L#i")`
//! (we widen Ketama's 32-bit points to 64 bits so point collisions are
//! negligible at cluster scale).

use std::collections::BTreeMap;
use std::fmt;
use std::hash::Hash;

use crate::md5::md5;

/// Errors from ring mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RingError {
    /// The node id is already present.
    DuplicateNode(String),
    /// `vnodes` must be at least 1.
    ZeroVnodes,
}

impl fmt::Display for RingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RingError::DuplicateNode(label) => write!(f, "node {label:?} already on the ring"),
            RingError::ZeroVnodes => write!(f, "a node needs at least one virtual node"),
        }
    }
}

impl std::error::Error for RingError {}

/// A half-open arc `(start, end]` of the hash circle, owned by one node.
///
/// `start == end` only occurs when a single virtual node owns the entire
/// circle. Arcs that cross zero are represented with `start > end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arc_ {
    /// Exclusive start point.
    pub start: u64,
    /// Inclusive end point — the owning virtual node's position.
    pub end: u64,
}

impl Arc_ {
    /// True if `point` falls inside this arc, honouring wrap-around.
    pub fn contains(&self, point: u64) -> bool {
        if self.start < self.end {
            point > self.start && point <= self.end
        } else {
            // wraps through zero (or is the full circle when start == end)
            point > self.start || point <= self.end
        }
    }

    /// Arc length in points (full circle when start == end).
    pub fn len(&self) -> u64 {
        self.end.wrapping_sub(self.start)
    }

    /// An arc is never empty: `start == end` means the whole circle.
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[derive(Debug, Clone)]
struct NodeInfo {
    label: String,
    vnodes: u32,
}

/// The consistent-hash ring.
///
/// `N` is the physical-node identifier (any cheap, ordered, hashable id —
/// MyStore uses small integer node ids).
#[derive(Debug, Clone, Default)]
pub struct HashRing<N: Clone + Eq + Hash + Ord> {
    points: BTreeMap<u64, N>,
    nodes: BTreeMap<N, NodeInfo>,
}

impl<N: Clone + Eq + Hash + Ord> HashRing<N> {
    /// Creates an empty ring.
    pub fn new() -> Self {
        HashRing { points: BTreeMap::new(), nodes: BTreeMap::new() }
    }

    /// Hashes a record key to its ring point (MD5, first 8 bytes,
    /// little-endian — matching the vnode point derivation).
    pub fn key_point(key: &[u8]) -> u64 {
        let d = md5(key);
        u64::from_le_bytes(d[..8].try_into().expect("len 8"))
    }

    /// Point of virtual node `index` of the node labelled `label`.
    pub fn vnode_point(label: &str, index: u32) -> u64 {
        let mut buf = Vec::with_capacity(label.len() + 12);
        buf.extend_from_slice(label.as_bytes());
        buf.push(b'#');
        buf.extend_from_slice(index.to_string().as_bytes());
        Self::key_point(&buf)
    }

    /// Adds a physical node with `vnodes` virtual nodes.
    ///
    /// Per the paper, more powerful machines get more virtual nodes; the
    /// caller decides the count (a storage node's is its base count times
    /// its capacity weight). Point collisions with existing vnodes are
    /// resolved by keeping the incumbent (deterministic, and vanishingly
    /// rare in a 64-bit space).
    ///
    /// Because vnode points are derived from `label#0..label#vnodes`,
    /// re-adding a node with more vnodes only *appends* points and with
    /// fewer only *removes* its own tail points — so [`diff`](Self::diff)
    /// between the two rings is minimal by construction: every changed arc
    /// involves the resized node on one side.
    pub fn add_node(
        &mut self,
        id: N,
        label: impl Into<String>,
        vnodes: u32,
    ) -> Result<(), RingError> {
        let label = label.into();
        if vnodes == 0 {
            return Err(RingError::ZeroVnodes);
        }
        if self.nodes.contains_key(&id) {
            return Err(RingError::DuplicateNode(label));
        }
        for i in 0..vnodes {
            let point = Self::vnode_point(&label, i);
            self.points.entry(point).or_insert_with(|| id.clone());
        }
        self.nodes.insert(id, NodeInfo { label, vnodes });
        Ok(())
    }

    /// Removes a physical node and all its virtual nodes. Returns `false`
    /// if the node was not present.
    pub fn remove_node(&mut self, id: &N) -> bool {
        let Some(info) = self.nodes.remove(id) else { return false };
        for i in 0..info.vnodes {
            let point = Self::vnode_point(&info.label, i);
            // Only remove points we actually own (collision losers never
            // made it into the map).
            if self.points.get(&point) == Some(id) {
                self.points.remove(&point);
            }
        }
        true
    }

    /// Number of physical nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes are present.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Virtual-node count configured for `id`.
    pub fn vnodes_of(&self, id: &N) -> Option<u32> {
        self.nodes.get(id).map(|i| i.vnodes)
    }

    /// Iterates physical node ids (arbitrary order).
    pub fn nodes(&self) -> impl Iterator<Item = &N> {
        self.nodes.keys()
    }

    /// True if the node id is on the ring.
    pub fn contains(&self, id: &N) -> bool {
        self.nodes.contains_key(id)
    }

    /// The physical node owning `point` — the first virtual node at or
    /// clockwise after it (paper Eq. 1).
    pub fn owner_of_point(&self, point: u64) -> Option<&N> {
        self.points.range(point..).next().or_else(|| self.points.iter().next()).map(|(_, n)| n)
    }

    /// The primary (coordinator) node for a record key.
    pub fn primary(&self, key: &[u8]) -> Option<&N> {
        self.owner_of_point(Self::key_point(key))
    }

    /// The first `n` *distinct physical* nodes clockwise from the key's
    /// point: replica placement per paper §5.2.2. Returns fewer than `n`
    /// when the ring has fewer physical nodes.
    pub fn preference_list(&self, key: &[u8], n: usize) -> Vec<N> {
        self.successors_of_point(Self::key_point(key), n)
    }

    /// Like [`preference_list`](Self::preference_list) but starting from an
    /// explicit ring point.
    pub fn successors_of_point(&self, point: u64, n: usize) -> Vec<N> {
        let mut out: Vec<N> = Vec::with_capacity(n.min(self.nodes.len()));
        if n == 0 || self.points.is_empty() {
            return out;
        }
        for (_, node) in self.points.range(point..).chain(self.points.range(..point)) {
            if !out.contains(node) {
                out.push(node.clone());
                if out.len() == n {
                    break;
                }
            }
        }
        out
    }

    /// Partitions the full circle into arcs, one per virtual node, each
    /// tagged with its owning physical node. Arcs are returned in clockwise
    /// point order; together they cover the circle exactly once.
    pub fn partition(&self) -> Vec<(Arc_, N)> {
        if self.points.is_empty() {
            return Vec::new();
        }
        let pts: Vec<(&u64, &N)> = self.points.iter().collect();
        let mut out = Vec::with_capacity(pts.len());
        for (i, (end, owner)) in pts.iter().enumerate() {
            let start = if i == 0 { *pts[pts.len() - 1].0 } else { *pts[i - 1].0 };
            out.push((Arc_ { start, end: **end }, (*owner).clone()));
        }
        out
    }

    /// The elementary arc containing `point`: the same arc
    /// [`partition`](Self::partition) would report for it. `None` on an
    /// empty ring. With a single virtual node the arc is the full circle
    /// (`start == end`).
    pub fn arc_of_point(&self, point: u64) -> Option<Arc_> {
        let end = self
            .points
            .range(point..)
            .next()
            .map(|(p, _)| *p)
            .or_else(|| self.points.keys().next().copied())?;
        let start = self
            .points
            .range(..end)
            .next_back()
            .map(|(p, _)| *p)
            .or_else(|| self.points.keys().next_back().copied())?;
        Some(Arc_ { start, end })
    }

    /// The arcs whose ownership differs between `self` (before) and `after`,
    /// returned as `(arc, old_owner, new_owner)`. This is exactly the data a
    /// migration plan needs after adding or removing a node (paper §5.2.4):
    /// each arc's records move from `old_owner` to `new_owner`.
    ///
    /// The result is *minimal*: clockwise-adjacent elementary arcs with the
    /// same `(old, new)` transition are coalesced into one entry (including
    /// across the ring origin), and arcs whose owner did not change never
    /// appear. Removing a node and re-adding it with a different vnode count
    /// therefore yields one entry per region that actually changed hands,
    /// not one per boundary point.
    pub fn diff(&self, after: &HashRing<N>) -> Vec<(Arc_, Option<N>, Option<N>)> {
        // Merge both partitions' boundary points, then compare owners on each
        // elementary arc.
        let mut boundaries: Vec<u64> =
            self.points.keys().chain(after.points.keys()).copied().collect();
        boundaries.sort_unstable();
        boundaries.dedup();
        if boundaries.is_empty() {
            return Vec::new();
        }
        let mut out: Vec<(Arc_, Option<N>, Option<N>)> = Vec::new();
        for (i, &end) in boundaries.iter().enumerate() {
            let start = if i == 0 { boundaries[boundaries.len() - 1] } else { boundaries[i - 1] };
            let old = self.owner_of_point(end).cloned();
            let new = after.owner_of_point(end).cloned();
            if old == new {
                continue;
            }
            if let Some(last) = out.last_mut() {
                if last.0.end == start && last.1 == old && last.2 == new {
                    last.0.end = end;
                    continue;
                }
            }
            out.push((Arc_ { start, end }, old, new));
        }
        // A changed region crossing the ring origin shows up split in two:
        // the wrap arc at the front of the list and its tail at the back.
        if out.len() > 1 {
            let first = &out[0];
            let last = &out[out.len() - 1];
            if last.0.end == first.0.start && last.1 == first.1 && last.2 == first.2 {
                let (tail, _, _) = out.pop().expect("non-empty");
                out[0].0.start = tail.start;
            }
        }
        out
    }

    /// Like [`diff`](Self::diff) but over the full `n`-deep *preference
    /// walk* instead of the primary owner alone: the arcs where
    /// [`successors_of_point`](Self::successors_of_point) differs between
    /// `self` (before) and `after`, as `(arc, old_prefs, new_prefs)`.
    ///
    /// A membership change can alter a key's 2nd/3rd replica without moving
    /// its primary — invisible to `diff`, but exactly the data a replica
    /// migration must ship — so migration planning consumes this instead.
    /// Entries are coalesced like `diff` and every key inside a returned
    /// arc shares that arc's two preference lists.
    pub fn diff_prefs(&self, after: &HashRing<N>, n: usize) -> Vec<(Arc_, Vec<N>, Vec<N>)> {
        let mut boundaries: Vec<u64> =
            self.points.keys().chain(after.points.keys()).copied().collect();
        boundaries.sort_unstable();
        boundaries.dedup();
        if boundaries.is_empty() {
            return Vec::new();
        }
        let mut out: Vec<(Arc_, Vec<N>, Vec<N>)> = Vec::new();
        for (i, &end) in boundaries.iter().enumerate() {
            let start = if i == 0 { boundaries[boundaries.len() - 1] } else { boundaries[i - 1] };
            let old = self.successors_of_point(end, n);
            let new = after.successors_of_point(end, n);
            if old == new {
                continue;
            }
            if let Some(last) = out.last_mut() {
                if last.0.end == start && last.1 == old && last.2 == new {
                    last.0.end = end;
                    continue;
                }
            }
            out.push((Arc_ { start, end }, old, new));
        }
        if out.len() > 1 {
            let first = &out[0];
            let last = &out[out.len() - 1];
            if last.0.end == first.0.start && last.1 == first.1 && last.2 == first.2 {
                let (tail, _, _) = out.pop().expect("non-empty");
                out[0].0.start = tail.start;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize, vnodes: u32) -> HashRing<u32> {
        let mut r = HashRing::new();
        for i in 0..n as u32 {
            r.add_node(i, format!("node{i}"), vnodes).unwrap();
        }
        r
    }

    #[test]
    fn arc_of_point_agrees_with_partition() {
        let r = ring(5, 16);
        let arcs = r.partition();
        // Probe each arc's end, its start's successor, and a midpoint: all
        // must resolve to that same arc.
        for (arc, _) in &arcs {
            for probe in [arc.end, arc.start.wrapping_add(1), arc.start.wrapping_add(arc.len() / 2)]
            {
                if !arc.contains(probe) {
                    continue; // len-1 arcs have no distinct midpoint
                }
                assert_eq!(r.arc_of_point(probe), Some(*arc), "probe {probe:#x}");
            }
        }
        // A single-vnode ring is one full-circle arc.
        let single = ring(1, 1);
        let arc = single.arc_of_point(12345).unwrap();
        assert_eq!(arc.start, arc.end);
        assert!(HashRing::<u32>::new().arc_of_point(0).is_none());
    }

    #[test]
    fn empty_ring_has_no_owner() {
        let r: HashRing<u32> = HashRing::new();
        assert!(r.primary(b"k").is_none());
        assert!(r.preference_list(b"k", 3).is_empty());
        assert!(r.partition().is_empty());
    }

    #[test]
    fn single_node_owns_everything() {
        let r = ring(1, 8);
        for key in 0..100u32 {
            assert_eq!(r.primary(&key.to_le_bytes()), Some(&0));
        }
    }

    #[test]
    fn duplicate_and_zero_vnode_rejected() {
        let mut r = ring(2, 4);
        assert_eq!(r.add_node(1, "dup", 4), Err(RingError::DuplicateNode("dup".into())));
        assert_eq!(r.add_node(9, "z", 0), Err(RingError::ZeroVnodes));
    }

    #[test]
    fn preference_list_is_distinct_physical_nodes() {
        let r = ring(5, 50);
        for key in 0..500u32 {
            let prefs = r.preference_list(&key.to_le_bytes(), 3);
            assert_eq!(prefs.len(), 3);
            let mut sorted = prefs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "duplicates in {prefs:?}");
            // First entry must be the primary.
            assert_eq!(&prefs[0], r.primary(&key.to_le_bytes()).unwrap());
        }
    }

    #[test]
    fn preference_list_saturates_at_cluster_size() {
        let r = ring(2, 10);
        assert_eq!(r.preference_list(b"k", 5).len(), 2);
    }

    #[test]
    fn removing_node_reroutes_only_its_keys() {
        let before = ring(5, 100);
        let mut after = before.clone();
        after.remove_node(&2);

        let mut moved = 0;
        let total = 10_000;
        for key in 0..total as u32 {
            let kb = key.to_le_bytes();
            let old = before.primary(&kb).unwrap();
            let new = after.primary(&kb).unwrap();
            if old != new {
                // Keys only move *off* the removed node.
                assert_eq!(*old, 2, "key {key} moved from {old} unexpectedly");
                moved += 1;
            } else {
                assert_ne!(*new, 2);
            }
        }
        // Roughly 1/5 of keys should move (the removed node's share).
        let frac = moved as f64 / total as f64;
        assert!((0.12..0.28).contains(&frac), "moved fraction {frac}");
    }

    #[test]
    fn adding_node_steals_roughly_its_share() {
        let before = ring(4, 100);
        let mut after = before.clone();
        after.add_node(99, "node99", 100).unwrap();

        let total = 10_000;
        let mut moved = 0;
        for key in 0..total as u32 {
            let kb = key.to_le_bytes();
            if before.primary(&kb) != after.primary(&kb) {
                assert_eq!(after.primary(&kb), Some(&99));
                moved += 1;
            }
        }
        let frac = moved as f64 / total as f64;
        assert!((0.12..0.30).contains(&frac), "moved fraction {frac}");
    }

    #[test]
    fn weighted_nodes_get_proportional_load() {
        let mut r = HashRing::new();
        r.add_node(0u32, "small", 50).unwrap();
        r.add_node(1u32, "big", 150).unwrap();
        let mut counts = [0usize; 2];
        for key in 0..30_000u32 {
            counts[*r.primary(&key.to_le_bytes()).unwrap() as usize] += 1;
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((2.0..4.5).contains(&ratio), "big/small ratio {ratio}");
    }

    #[test]
    fn partition_covers_circle_once() {
        let r = ring(4, 16);
        let parts = r.partition();
        assert_eq!(parts.len(), 64);
        let total: u128 = parts.iter().map(|(a, _)| a.len() as u128).sum();
        assert_eq!(total, (u64::MAX as u128) + 1); // full circle
                                                   // Every arc's end-point owner matches the ring lookup.
        for (arc, owner) in &parts {
            assert_eq!(r.owner_of_point(arc.end), Some(owner));
        }
    }

    #[test]
    fn arc_contains_handles_wraparound() {
        let a = Arc_ { start: u64::MAX - 10, end: 10 };
        assert!(a.contains(5));
        assert!(a.contains(u64::MAX));
        assert!(a.contains(10));
        assert!(!a.contains(u64::MAX - 10)); // exclusive start
        assert!(!a.contains(11));
        let full = Arc_ { start: 7, end: 7 };
        assert!(full.contains(0) && full.contains(u64::MAX) && full.contains(7));
    }

    #[test]
    fn diff_reports_exactly_the_moved_arcs() {
        let before = ring(3, 32);
        let mut after = before.clone();
        after.add_node(3, "node3", 32).unwrap();
        let diff = before.diff(&after);
        assert!(!diff.is_empty());
        for (arc, old, new) in &diff {
            assert_eq!(new.as_ref(), Some(&3), "new owner must be the added node");
            assert_ne!(old.as_ref(), Some(&3));
            // Spot-check: the end point routes to the new owner now.
            assert_eq!(after.owner_of_point(arc.end), Some(&3));
            assert_eq!(before.owner_of_point(arc.end), old.as_ref());
        }
    }

    #[test]
    fn diff_is_minimal_after_remove_and_readd() {
        // Remove node 2 and re-add it with a different vnode count: only
        // regions that actually changed hands may appear, each exactly once.
        let before = ring(4, 32);
        let mut after = before.clone();
        after.remove_node(&2);
        after.add_node(2, "node2", 8).unwrap();

        let diff = before.diff(&after);
        assert!(!diff.is_empty());
        for (arc, old, new) in &diff {
            assert_ne!(old, new);
            assert_eq!(before.owner_of_point(arc.end).cloned(), *old);
            assert_eq!(after.owner_of_point(arc.end).cloned(), *new);
            // Every moved arc involves the churned node on one side.
            assert!(
                old.as_ref() == Some(&2) || new.as_ref() == Some(&2),
                "arc moved between two uninvolved nodes: {old:?} -> {new:?}"
            );
        }
        // Minimality: no two clockwise-adjacent entries share a transition
        // (they would have been coalesced), including across the origin.
        for w in diff.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            assert!(
                !(a.0.end == b.0.start && a.1 == b.1 && a.2 == b.2),
                "adjacent arcs with identical transition were not coalesced: {a:?} / {b:?}"
            );
        }
        if diff.len() > 1 {
            let (first, last) = (&diff[0], &diff[diff.len() - 1]);
            assert!(
                !(last.0.end == first.0.start && last.1 == first.1 && last.2 == first.2),
                "wraparound arcs with identical transition were not coalesced"
            );
        }
    }

    #[test]
    fn diff_of_identical_rings_is_empty() {
        let r = ring(5, 64);
        assert!(r.diff(&r.clone()).is_empty());
        // Remove + re-add with the *same* vnode count restores identical
        // placement (points are derived from the node name), so the diff
        // must be empty — nothing actually moved.
        let mut back = r.clone();
        back.remove_node(&3);
        back.add_node(3, "node3", 64).unwrap();
        assert!(r.diff(&back).is_empty());
    }

    #[test]
    fn remove_returns_false_for_unknown() {
        let mut r = ring(2, 4);
        assert!(!r.remove_node(&42));
        assert!(r.remove_node(&1));
        assert!(!r.remove_node(&1));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn vnode_count_scales_ownership() {
        // Seeded determinism: vnode points derive from labels, so this is
        // exactly reproducible. A node with 2x the vnodes must own ~2x the
        // keyspace of its peers.
        let mut r = HashRing::new();
        r.add_node(0u32, "node0", 64).unwrap();
        r.add_node(1u32, "node1", 128).unwrap();
        r.add_node(2u32, "node2", 64).unwrap();
        assert_eq!(r.vnodes_of(&1), Some(128));
        assert_eq!(r.vnodes_of(&0), Some(64));
        let mut counts = [0usize; 3];
        let total = 40_000u32;
        for key in 0..total {
            counts[*r.primary(&key.to_le_bytes()).unwrap() as usize] += 1;
        }
        let heavy = counts[1] as f64;
        let light = (counts[0] + counts[2]) as f64 / 2.0;
        let ratio = heavy / light;
        assert!((1.6..2.5).contains(&ratio), "2x-vnode ownership ratio {ratio}");
        assert_eq!(r.add_node(9, "z", 0), Err(RingError::ZeroVnodes));
    }

    #[test]
    fn diff_is_minimal_when_a_node_gains_vnodes() {
        // Re-add node 2 with double the vnodes: the only arcs that may
        // change hands are ones node 2 gains, each reported exactly once.
        let mut before = HashRing::new();
        for i in 0..4u32 {
            before.add_node(i, format!("node{i}"), 32).unwrap();
        }
        let mut after = before.clone();
        after.remove_node(&2);
        after.add_node(2, "node2", 64).unwrap();

        let diff = before.diff(&after);
        assert!(!diff.is_empty());
        let mut gained: u64 = 0;
        for (arc, old, new) in &diff {
            // More vnodes only append that node's points, so every
            // transition gains node 2 and loses someone else.
            assert_eq!(new.as_ref(), Some(&2), "the vnode gain must route to node 2");
            assert_ne!(old.as_ref(), Some(&2));
            gained += arc.len();
        }
        // Minimality: adjacent entries with identical transitions would
        // have been coalesced, including across the origin.
        for w in diff.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            assert!(!(a.0.end == b.0.start && a.1 == b.1 && a.2 == b.2));
        }
        // The gained share is roughly the extra vnodes' proportion:
        // node 2 goes from 1/4 to 2/5 of the ring, so ~0.15 of the circle.
        let frac = gained as f64 / (u64::MAX as f64);
        assert!((0.08..0.25).contains(&frac), "gained fraction {frac}");
    }

    #[test]
    fn diff_prefs_catches_replica_changes_diff_misses() {
        let before = ring(5, 32);
        let mut after = before.clone();
        after.add_node(5, "node5", 32).unwrap();
        let n = 3;
        let owner_diff = before.diff(&after);
        let pref_diff = before.diff_prefs(&after, n);
        // The pref walk is a superset view: every primary change is also a
        // pref change, and replica-only changes appear besides.
        let covered = |point: u64| pref_diff.iter().any(|(a, _, _)| a.contains(point));
        for (arc, _, _) in &owner_diff {
            assert!(covered(arc.end), "primary change at {:#x} missing from diff_prefs", arc.end);
        }
        let pref_total: u128 = pref_diff.iter().map(|(a, _, _)| a.len() as u128).sum();
        let owner_total: u128 = owner_diff.iter().map(|(a, _, _)| a.len() as u128).sum();
        assert!(pref_total > owner_total, "adding a node must move replicas beyond primaries");
        // Every reported arc really changes the walk, and the reported
        // lists match a fresh lookup at the arc end.
        for (arc, old, new) in &pref_diff {
            assert_ne!(old, new);
            assert_eq!(&before.successors_of_point(arc.end, n), old);
            assert_eq!(&after.successors_of_point(arc.end, n), new);
        }
        // Sampled keys outside every reported arc keep their walk.
        let mut outside = 0;
        for key in 0..2_000u32 {
            let p = HashRing::<u32>::key_point(&key.to_le_bytes());
            if !covered(p) {
                outside += 1;
                assert_eq!(
                    before.successors_of_point(p, n),
                    after.successors_of_point(p, n),
                    "key {key} outside the diff must not move"
                );
            }
        }
        assert!(outside > 0);
        // Identical rings diff to nothing.
        assert!(before.diff_prefs(&before.clone(), n).is_empty());
    }

    #[test]
    fn key_points_are_stable() {
        // Pin the hash so on-disk layouts stay valid across releases.
        assert_eq!(HashRing::<u32>::key_point(b"Resistor5"), {
            let d = crate::md5::md5(b"Resistor5");
            u64::from_le_bytes(d[..8].try_into().unwrap())
        });
    }
}
