//! Collections: documents by `_id`, plus the one key map every read uses.
//!
//! A collection is the engine's in-memory working set for one namespace;
//! durability is layered on by [`crate::db::Db`], which logs every mutation
//! to the WAL before calling into the collection. A document is kept as the
//! bytes its WAL frame logged — a range of that shared frame — and read in
//! place through [`RawDocument`].
//!
//! The key map is ordered by `(point, self-key)`, where the point is the
//! caller's [`KeyPoint`] of the key (a storage node installs its ring's
//! key hash, so the map is in ring order and a ring range is one scan);
//! with no point function every key sits at point 0, in string order.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::{Bound, Range};

use mystore_bson::{ObjectId, RawDocument};

use crate::error::{EngineError, Result};
use crate::record::F_SELF_KEY;
use crate::wal::Frame;

/// Places a `self-key` on a circle of `u64` points; the key map is ordered
/// by it (see [`crate::Db::set_key_point`]).
pub type KeyPoint = fn(&[u8]) -> u64;

/// A stored document: where it sits in the WAL frame that logged it. The
/// frame was checked when it was logged or recovered, so the bytes are a
/// valid document.
#[derive(Debug, Clone)]
pub(crate) struct Stored {
    frame: Frame,
    doc: Range<usize>,
}

impl Stored {
    /// The document at `doc` in `frame`.
    pub(crate) fn new(frame: Frame, doc: Range<usize>) -> Self {
        Stored { frame, doc }
    }

    /// The document, read in place.
    pub(crate) fn raw(&self) -> RawDocument<'_> {
        RawDocument::from_validated(self.frame.get(self.doc.clone()).unwrap_or_default())
    }
}

/// The ids carrying one `self-key`. A record store holds one id per key,
/// kept inline; ties fall back to a set so reads can pick the lowest.
#[derive(Debug, Clone)]
enum Ids {
    One(ObjectId),
    Ties(BTreeSet<ObjectId>),
}

impl Ids {
    fn lowest(&self) -> Option<&ObjectId> {
        match self {
            Ids::One(id) => Some(id),
            Ids::Ties(ids) => ids.first(),
        }
    }

    fn add(&mut self, id: ObjectId) {
        match self {
            Ids::One(one) if *one == id => {}
            Ids::One(one) => *self = Ids::Ties(BTreeSet::from([*one, id])),
            Ids::Ties(ids) => {
                ids.insert(id);
            }
        }
    }

    /// Drops `id`; true when no id is left. A set of ties holds two ids
    /// or more, so it never empties: down to one, it goes back inline.
    fn remove(&mut self, id: ObjectId) -> bool {
        match self {
            Ids::One(one) => *one == id,
            Ids::Ties(ids) => {
                ids.remove(&id);
                if let (1, Some(&last)) = (ids.len(), ids.first()) {
                    *self = Ids::One(last);
                }
                false
            }
        }
    }
}

/// A `(point, key)` the key map can be probed with: a lookup borrows its
/// key instead of boxing one.
trait Probe {
    fn parts(&self) -> (u64, &str);
}

impl Probe for (u64, Box<str>) {
    fn parts(&self) -> (u64, &str) {
        (self.0, &self.1)
    }
}

impl Probe for (u64, &str) {
    fn parts(&self) -> (u64, &str) {
        *self
    }
}

impl<'a> Borrow<dyn Probe + 'a> for (u64, Box<str>) {
    fn borrow(&self) -> &(dyn Probe + 'a) {
        self
    }
}

// Ordered exactly like the key map's own `(u64, Box<str>)` keys, as
// `Borrow` requires.
impl PartialEq for dyn Probe + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn Probe + '_ {}

impl PartialOrd for dyn Probe + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn Probe + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        self.parts().cmp(&other.parts())
    }
}

/// `(point, self-key)` → the ids of the documents carrying the key.
type KeyMap = BTreeMap<(u64, Box<str>), Ids>;

/// An in-memory collection: documents in `_id` order, each string
/// `self-key` mapped to its ids in `(point, key)` order.
#[derive(Debug, Default, Clone)]
pub struct Collection {
    docs: BTreeMap<ObjectId, Stored>,
    keys: KeyMap,
    /// Where each key sits in `keys`; `None` puts every key at point 0.
    point: Option<KeyPoint>,
    /// Total encoded document bytes.
    bytes: usize,
}

impl Collection {
    /// Creates an empty collection.
    pub const fn new() -> Self {
        Collection { docs: BTreeMap::new(), keys: BTreeMap::new(), point: None, bytes: 0 }
    }

    /// An empty collection ordering its keys by `point`.
    pub(crate) fn keyed_by(point: Option<KeyPoint>) -> Self {
        Collection { point, ..Collection::default() }
    }

    /// Orders the key map by `point` from now on, re-keying what it holds.
    pub(crate) fn set_key_point(&mut self, point: KeyPoint) {
        self.point = Some(point);
        self.keys = std::mem::take(&mut self.keys)
            .into_iter()
            .map(|((_, key), ids)| ((point(key.as_bytes()), key), ids))
            .collect();
    }

    /// Number of documents (including tombstones).
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when no documents are stored.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Encoded bytes of the stored documents.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// True when a document has this `_id`.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.docs.contains_key(&id)
    }

    /// Fetches by primary key.
    pub fn get(&self, id: ObjectId) -> Option<RawDocument<'_>> {
        self.docs.get(&id).map(Stored::raw)
    }

    /// The document whose `self-key` is `key`, the lowest `_id` if several
    /// share it.
    pub fn get_by_self_key(&self, key: &str) -> Option<RawDocument<'_>> {
        self.get_at(point_of(self.point, key), key)
    }

    /// [`Collection::get_by_self_key`] for a key whose point the caller
    /// has computed already.
    pub(crate) fn get_at(&self, point: u64, key: &str) -> Option<RawDocument<'_>> {
        self.lowest(self.keys.get(&(point, key) as &dyn Probe)?)
    }

    /// The documents whose `self-key`'s point lies in `(after, upto]`, in
    /// `(point, key)` order, one per key (the one a keyed read returns).
    /// The range wraps through zero when `upto <= after`; `after == upto`
    /// is the whole circle.
    pub fn scan_points(&self, after: u64, upto: u64) -> impl Iterator<Item = RawDocument<'_>> {
        // Points above `p` (none above `u64::MAX`), and points up to `p`;
        // the empty key sorts first at its point and needs no allocation.
        let at = |q: u64| (q, Box::<str>::default());
        let above = |p: u64| p.checked_add(1).map(|q| Bound::Included(at(q)));
        let through =
            |p: u64| p.checked_add(1).map_or(Bound::Unbounded, |q| Bound::Excluded(at(q)));
        let (head, tail) = if upto > after {
            (above(after).map(|lo| (lo, through(upto))), None)
        } else {
            (above(after).map(|lo| (lo, Bound::Unbounded)), Some((Bound::Unbounded, through(upto))))
        };
        head.into_iter()
            .chain(tail)
            .flat_map(|range| self.keys.range(range))
            .filter_map(|(_, ids)| self.lowest(ids))
    }

    /// The lowest-`_id` document of `ids`.
    fn lowest(&self, ids: &Ids) -> Option<RawDocument<'_>> {
        self.docs.get(ids.lowest()?).map(Stored::raw)
    }

    /// Iterates all documents in `_id` order.
    pub fn iter(&self) -> impl Iterator<Item = (&ObjectId, RawDocument<'_>)> {
        self.docs.iter().map(|(id, s)| (id, s.raw()))
    }

    /// Iterates the stored documents in `_id` order (compaction).
    pub(crate) fn stored(&self) -> impl Iterator<Item = (&ObjectId, &Stored)> {
        self.docs.iter()
    }

    /// Points each document, in `_id` order, at its copy in a rewritten
    /// log (compaction): the same bytes in a new frame, so the key map and
    /// byte count stand.
    pub(crate) fn repoint(&mut self, fresh: &mut impl Iterator<Item = Stored>) {
        for stored in self.docs.values_mut() {
            if let Some(doc) = fresh.next() {
                *stored = doc;
            }
        }
    }

    /// The frame holding the document with `id`.
    #[cfg(test)]
    pub(crate) fn frame_of(&self, id: ObjectId) -> Option<&Frame> {
        self.docs.get(&id).map(|s| &s.frame)
    }

    /// Stores `doc` as the document with `id`, replacing any document with
    /// that id (record writes, inserts, WAL recovery), and returns the
    /// replaced one. The key map is left alone when the key did not change
    /// (every record write); `point` is the point of `doc`'s `self-key`
    /// when the caller has computed it already.
    pub(crate) fn put(&mut self, id: ObjectId, doc: Stored, point: Option<u64>) -> Option<Stored> {
        let (old, new) = match self.docs.entry(id) {
            Entry::Occupied(mut e) => (Some(e.insert(doc)), &*e.into_mut()),
            Entry::Vacant(e) => (None, &*e.insert(doc)),
        };
        let key = new.raw().get_str(F_SELF_KEY);
        let old_key = old.as_ref().map(|d| d.raw().get_str(F_SELF_KEY));
        if old_key != Some(key) {
            unlink(&mut self.keys, id, self.point, old_key.flatten());
            if let Some(key) = key {
                let point = point.unwrap_or_else(|| point_of(self.point, key));
                link(&mut self.keys, id, point, key);
            }
        }
        let freed = old.as_ref().map_or(0, |d| d.doc.len());
        self.bytes = self.bytes + new.doc.len() - freed.min(self.bytes);
        old
    }

    /// Physically removes the document (compaction / reaper path; user
    /// deletes are logical via `isDel`).
    pub(crate) fn remove(&mut self, id: ObjectId) -> Result<Stored> {
        let doc = self.docs.remove(&id).ok_or(EngineError::NotFound)?;
        unlink(&mut self.keys, id, self.point, doc.raw().get_str(F_SELF_KEY));
        self.bytes = self.bytes.saturating_sub(doc.doc.len());
        Ok(doc)
    }
}

/// `key`'s point under `point` (0 without one).
pub(crate) fn point_of(point: Option<KeyPoint>, key: &str) -> u64 {
    point.map_or(0, |point| point(key.as_bytes()))
}

/// Maps `key`, at `point`, to `id`.
fn link(keys: &mut KeyMap, id: ObjectId, point: u64, key: &str) {
    match keys.get_mut(&(point, key) as &dyn Probe) {
        Some(ids) => ids.add(id),
        None => {
            keys.insert((point, key.into()), Ids::One(id));
        }
    }
}

/// Drops `id` from `key`'s ids, and the key once no id holds it.
fn unlink(keys: &mut KeyMap, id: ObjectId, point: Option<KeyPoint>, key: Option<&str>) {
    let Some(key) = key else { return };
    let probe = (point_of(point, key), key);
    if keys.get_mut(&probe as &dyn Probe).is_some_and(|ids| ids.remove(id)) {
        keys.remove(&probe as &dyn Probe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mystore_bson::{doc, Document, Value};
    use std::sync::Arc;

    /// `doc` stored as a frame of its own bytes.
    fn stored(doc: &Document) -> Stored {
        let bytes = doc.to_bytes();
        let len = bytes.len();
        Stored::new(Arc::new(bytes), 0..len)
    }

    fn put(c: &mut Collection, n: u32, key: &str, extra: i32) -> ObjectId {
        let id = ObjectId::from_parts(0, 0, n);
        c.put(id, stored(&doc! { "_id": Value::ObjectId(id), "self-key": key, "v": extra }), None);
        id
    }

    /// The key map's entry for `key` (no point function: point 0).
    fn entry<'c>(c: &'c Collection, key: &str) -> Option<&'c Ids> {
        c.keys.get(&(0u64, key) as &dyn Probe)
    }

    /// Ids the collection's key map holds for `key`.
    fn ids(c: &Collection, key: &str) -> Vec<ObjectId> {
        match entry(c, key) {
            None => Vec::new(),
            Some(Ids::One(id)) => vec![*id],
            Some(Ids::Ties(set)) => set.iter().copied().collect(),
        }
    }

    #[test]
    fn self_key_lookup_probes_the_key_map() {
        let mut c = Collection::new();
        for i in 0..50 {
            put(&mut c, i, &format!("key{i}"), i as i32);
        }
        assert_eq!(c.get_by_self_key("key7").unwrap().get_i64("v"), Some(7));
        assert_eq!(c.get_by_self_key("key42").unwrap().get_i64("v"), Some(42));
        assert!(c.get_by_self_key("key50").is_none());
        assert_eq!(c.keys.len(), 50);
        assert!(c.keys.values().all(|ids| matches!(ids, Ids::One(_))), "one id is kept inline");
    }

    #[test]
    fn self_key_lookup_takes_the_lowest_id_of_duplicates() {
        let mut c = Collection::new();
        for n in [3u32, 1, 2] {
            put(&mut c, n, "k", 0);
        }
        assert!(matches!(entry(&c, "k"), Some(Ids::Ties(_))), "ties fall back to a set");
        let hit = c.get_by_self_key("k").unwrap().get_object_id("_id");
        assert_eq!(hit, Some(ObjectId::from_parts(0, 0, 1)));
        c.remove(ObjectId::from_parts(0, 0, 1)).unwrap();
        let hit = c.get_by_self_key("k").unwrap().get_object_id("_id");
        assert_eq!(hit, Some(ObjectId::from_parts(0, 0, 2)), "the next id takes over");
        c.remove(ObjectId::from_parts(0, 0, 2)).unwrap();
        assert!(matches!(entry(&c, "k"), Some(Ids::One(_))), "a lone survivor goes inline");
        assert_eq!(ids(&c, "k"), vec![ObjectId::from_parts(0, 0, 3)]);
        c.remove(ObjectId::from_parts(0, 0, 3)).unwrap();
        assert!(c.keys.is_empty());
    }

    #[test]
    fn documents_without_a_string_self_key_are_not_mapped() {
        let mut c = Collection::new();
        c.put(ObjectId::from_parts(0, 0, 1), stored(&doc! { "other": 1 }), None);
        c.put(ObjectId::from_parts(0, 0, 2), stored(&doc! { "self-key": 5 }), None);
        assert!(c.keys.is_empty());
        assert!(c.get_by_self_key("5").is_none());
    }

    #[test]
    fn remove_updates_the_key_map_and_bytes() {
        let mut c = Collection::new();
        let id = put(&mut c, 1, "x", 0);
        let before = c.bytes();
        assert!(before > 0);
        c.remove(id).unwrap();
        assert_eq!(c.len(), 0);
        assert_eq!(c.bytes(), 0);
        assert!(ids(&c, "x").is_empty());
        assert!(c.keys.is_empty(), "an emptied key leaves the map");
        assert!(matches!(c.remove(id), Err(EngineError::NotFound)));
    }

    #[test]
    fn an_after_image_with_a_new_self_key_moves_its_id() {
        let mut c = Collection::new();
        let id = put(&mut c, 1, "a", 0);
        assert_eq!(c.len(), 1);
        let one = c.bytes();
        put(&mut c, 1, "b", 0);
        assert_eq!((c.len(), c.bytes()), (1, one));
        assert!(c.get_by_self_key("a").is_none(), "the old key must not find the document");
        assert_eq!(ids(&c, "b"), vec![id]);
        assert_eq!(c.keys.len(), 1);
        // Same key again: the entry survives its own replacement.
        let old =
            c.put(id, stored(&doc! { "_id": Value::ObjectId(id), "self-key": "b", "v": 2 }), None);
        assert_eq!(old.unwrap().raw().get_i64("v"), Some(0), "the replaced document comes back");
        assert_eq!(ids(&c, "b"), vec![id]);
        assert_eq!(c.get_by_self_key("b").unwrap().get_i64("v"), Some(2));
        // Losing the key unmaps the document.
        c.put(id, stored(&doc! { "_id": Value::ObjectId(id) }), None);
        assert!(c.keys.is_empty());
    }
}
