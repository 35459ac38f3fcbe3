//! Collections: documents by `_id`, plus the one key map every read uses.
//!
//! A collection is the engine's in-memory working set for one namespace;
//! durability is layered on by [`crate::db::Db`], which logs every mutation
//! to the WAL before calling into the collection.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use mystore_bson::{Document, ObjectId, Value};

use crate::error::{EngineError, Result};
use crate::record::F_SELF_KEY;

/// `self-key` → ids of the documents carrying it. A record store holds one
/// id per key; ties are kept so reads can pick the lowest.
type KeyMap = BTreeMap<String, BTreeSet<ObjectId>>;

/// An in-memory collection: documents in `_id` order, each string
/// `self-key` mapped to its ids.
#[derive(Debug, Default, Clone)]
pub struct Collection {
    docs: BTreeMap<ObjectId, Document>,
    keys: KeyMap,
    /// Total payload bytes (approximate, for stats).
    bytes: usize,
}

impl Collection {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Collection::default()
    }

    /// Number of documents (including tombstones).
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when no documents are stored.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Approximate resident bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Inserts a document. A missing `_id` gets a fresh [`ObjectId`];
    /// duplicate `_id`s are rejected.
    pub fn insert(&mut self, mut doc: Document) -> Result<ObjectId> {
        let id = match doc.get_object_id("_id") {
            Some(id) => id,
            None => {
                let id = ObjectId::new();
                // _id leads the document, like MongoDB.
                let mut fresh = Document::with_capacity(doc.len() + 1);
                fresh.insert("_id", Value::ObjectId(id));
                for (k, v) in std::mem::take(&mut doc).into_iter() {
                    fresh.insert(k, v);
                }
                doc = fresh;
                id
            }
        };
        if self.docs.contains_key(&id) {
            return Err(EngineError::DuplicateId(id.to_hex()));
        }
        link(&mut self.keys, id, doc.get_str(F_SELF_KEY));
        self.bytes += doc.encoded_size();
        self.docs.insert(id, doc);
        Ok(id)
    }

    /// Fetches by primary key.
    pub fn get(&self, id: ObjectId) -> Option<&Document> {
        self.docs.get(&id)
    }

    /// The document whose `self-key` is `key`, the lowest `_id` if several
    /// share it.
    pub fn get_by_self_key(&self, key: &str) -> Option<&Document> {
        self.docs.get(self.keys.get(key)?.first()?)
    }

    /// Replaces the document with `id` wholesale, or inserts it (after-image
    /// apply: record writes, WAL recovery). The replaced document comes
    /// back out of the map to compare keys; nothing is copied, and the key
    /// map is left alone when the key did not change (every record write).
    pub fn put_after_image(&mut self, id: ObjectId, doc: Document) {
        let (old, new) = match self.docs.entry(id) {
            Entry::Occupied(mut e) => (Some(e.insert(doc)), &*e.into_mut()),
            Entry::Vacant(e) => (None, &*e.insert(doc)),
        };
        let key = new.get_str(F_SELF_KEY);
        let old_key = old.as_ref().map(|d| d.get_str(F_SELF_KEY));
        if old_key != Some(key) {
            unlink(&mut self.keys, id, old_key.flatten());
            link(&mut self.keys, id, key);
        }
        let freed = old.map_or(0, |d| d.encoded_size());
        self.bytes = self.bytes + new.encoded_size() - freed.min(self.bytes);
    }

    /// Physically removes the document (compaction / reaper path; user
    /// deletes are logical via `isDel`).
    pub fn remove(&mut self, id: ObjectId) -> Result<Document> {
        let doc = self.docs.remove(&id).ok_or(EngineError::NotFound)?;
        unlink(&mut self.keys, id, doc.get_str(F_SELF_KEY));
        self.bytes = self.bytes.saturating_sub(doc.encoded_size());
        Ok(doc)
    }

    /// Iterates all documents in `_id` order.
    pub fn iter(&self) -> impl Iterator<Item = (&ObjectId, &Document)> {
        self.docs.iter()
    }
}

/// Maps `key` (if the document has one) to `id`.
fn link(keys: &mut KeyMap, id: ObjectId, key: Option<&str>) {
    if let Some(key) = key {
        keys.entry(key.to_string()).or_default().insert(id);
    }
}

/// Drops `id` from `key`'s ids, and the key once no id holds it.
fn unlink(keys: &mut KeyMap, id: ObjectId, key: Option<&str>) {
    let Some(key) = key else { return };
    if let Some(ids) = keys.get_mut(key) {
        ids.remove(&id);
        if ids.is_empty() {
            keys.remove(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mystore_bson::doc;

    fn coll_with(n: i32) -> Collection {
        let mut c = Collection::new();
        for i in 0..n {
            c.insert(doc! { "self-key": format!("key{i}"), "n": i }).unwrap();
        }
        c
    }

    /// Ids the collection's key map holds for `key`.
    fn ids(c: &Collection, key: &str) -> Vec<ObjectId> {
        c.keys.get(key).into_iter().flatten().copied().collect()
    }

    #[test]
    fn insert_assigns_id_and_rejects_duplicates() {
        let mut c = Collection::new();
        let id = c.insert(doc! { "a": 1 }).unwrap();
        let stored = c.get(id).unwrap();
        assert_eq!(stored.get_object_id("_id"), Some(id));
        assert_eq!(stored.keys().next().map(|s| s.as_str()), Some("_id"));
        let dup = doc! { "_id": Value::ObjectId(id), "b": 2 };
        assert!(matches!(c.insert(dup), Err(EngineError::DuplicateId(_))));
    }

    #[test]
    fn self_key_lookup_probes_the_key_map() {
        let c = coll_with(50);
        assert_eq!(c.get_by_self_key("key7").unwrap().get_i64("n"), Some(7));
        assert_eq!(c.get_by_self_key("key42").unwrap().get_i64("n"), Some(42));
        assert!(c.get_by_self_key("key50").is_none());
        assert_eq!(c.keys.len(), 50);
    }

    #[test]
    fn self_key_lookup_takes_the_lowest_id_of_duplicates() {
        let mut c = Collection::new();
        for n in [3u32, 1, 2] {
            let id = ObjectId::from_parts(0, 0, n);
            c.put_after_image(id, doc! { "_id": Value::ObjectId(id), "self-key": "k" });
        }
        let hit = c.get_by_self_key("k").unwrap().get_object_id("_id");
        assert_eq!(hit, Some(ObjectId::from_parts(0, 0, 1)));
        c.remove(ObjectId::from_parts(0, 0, 1)).unwrap();
        let hit = c.get_by_self_key("k").unwrap().get_object_id("_id");
        assert_eq!(hit, Some(ObjectId::from_parts(0, 0, 2)), "the next id takes over");
    }

    #[test]
    fn documents_without_a_string_self_key_are_not_mapped() {
        let mut c = Collection::new();
        c.insert(doc! { "other": 1 }).unwrap();
        c.insert(doc! { "self-key": 5 }).unwrap();
        assert!(c.keys.is_empty());
        assert!(c.get_by_self_key("5").is_none());
    }

    #[test]
    fn remove_updates_the_key_map_and_bytes() {
        let mut c = Collection::new();
        let id = c.insert(doc! { "self-key": "x" }).unwrap();
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
        let id = ObjectId::from_parts(1, 1, 1);
        c.put_after_image(id, doc! { "_id": Value::ObjectId(id), "self-key": "a" });
        assert_eq!(c.len(), 1);
        let one = c.bytes();
        c.put_after_image(id, doc! { "_id": Value::ObjectId(id), "self-key": "b" });
        assert_eq!((c.len(), c.bytes()), (1, one));
        assert!(c.get_by_self_key("a").is_none(), "the old key must not find the document");
        assert_eq!(ids(&c, "b"), vec![id]);
        assert_eq!(c.keys.len(), 1);
        // Same key again: the entry survives its own replacement.
        c.put_after_image(id, doc! { "_id": Value::ObjectId(id), "self-key": "b", "v": 2 });
        assert_eq!(ids(&c, "b"), vec![id]);
        assert_eq!(c.get_by_self_key("b").unwrap().get_i64("v"), Some(2));
        // Losing the key unmaps the document.
        c.put_after_image(id, doc! { "_id": Value::ObjectId(id) });
        assert!(c.keys.is_empty());
    }
}
