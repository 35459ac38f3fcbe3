//! Collections: ordered documents plus secondary indexes.
//!
//! A collection is the engine's in-memory working set for one namespace;
//! durability is layered on by [`crate::db::Db`], which logs every mutation
//! to the WAL before calling into the collection.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use mystore_bson::{Document, ObjectId, Value};

use crate::error::{EngineError, Result};
use crate::index::Index;
use crate::record::F_SELF_KEY;

/// An in-memory collection with secondary indexes.
#[derive(Debug, Default, Clone)]
pub struct Collection {
    docs: BTreeMap<ObjectId, Document>,
    indexes: Vec<Index>,
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

    /// Names of indexed fields.
    pub fn index_fields(&self) -> Vec<&str> {
        self.indexes.iter().map(|i| i.field()).collect()
    }

    /// Creates a single-field index and backfills it.
    pub fn create_index(&mut self, field: &str) -> Result<()> {
        if self.indexes.iter().any(|i| i.field() == field) {
            return Err(EngineError::IndexExists(field.to_string()));
        }
        let mut idx = Index::new(field);
        for (id, doc) in &self.docs {
            idx.insert(*id, doc);
        }
        self.indexes.push(idx);
        Ok(())
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
        for idx in &mut self.indexes {
            idx.insert(id, &doc);
        }
        self.bytes += doc.encoded_size();
        self.docs.insert(id, doc);
        Ok(id)
    }

    /// Fetches by primary key.
    pub fn get(&self, id: ObjectId) -> Option<&Document> {
        self.docs.get(&id)
    }

    /// The document whose `self-key` is `key` (the lowest `_id` if
    /// several share it): a probe of the `self-key` index when the
    /// collection has one, an `_id`-order scan otherwise.
    pub fn get_by_self_key(&self, key: &str) -> Option<&Document> {
        match self.indexes.iter().find(|i| i.field() == F_SELF_KEY) {
            Some(idx) => idx
                .lookup_eq(Value::String(key.to_string()))
                .next()
                .and_then(|id| self.docs.get(&id)),
            None => self.docs.values().find(|d| d.get_str(F_SELF_KEY) == Some(key)),
        }
    }

    /// Replaces the document with `id` wholesale, or inserts it (after-image
    /// apply: record writes, WAL recovery). The replaced document comes
    /// back out of the map to unindex it; nothing is copied.
    pub fn put_after_image(&mut self, id: ObjectId, doc: Document) {
        let (old, new) = match self.docs.entry(id) {
            Entry::Occupied(mut e) => (Some(e.insert(doc)), &*e.into_mut()),
            Entry::Vacant(e) => (None, &*e.insert(doc)),
        };
        for idx in &mut self.indexes {
            if let Some(old) = &old {
                idx.remove(id, old);
            }
            idx.insert(id, new);
        }
        let freed = old.map_or(0, |d| d.encoded_size());
        self.bytes = self.bytes + new.encoded_size() - freed.min(self.bytes);
    }

    /// Physically removes the document (compaction / reaper path; user
    /// deletes are logical via `isDel`).
    pub fn remove(&mut self, id: ObjectId) -> Result<Document> {
        let doc = self.docs.remove(&id).ok_or(EngineError::NotFound)?;
        for idx in &mut self.indexes {
            idx.remove(id, &doc);
        }
        self.bytes = self.bytes.saturating_sub(doc.encoded_size());
        Ok(doc)
    }

    /// Iterates all documents in `_id` order.
    pub fn iter(&self) -> impl Iterator<Item = (&ObjectId, &Document)> {
        self.docs.iter()
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

    /// Ids the collection's index on `field` holds for `value`.
    fn indexed(c: &Collection, field: &str, value: &str) -> Vec<ObjectId> {
        let idx = c.indexes.iter().find(|i| i.field() == field).unwrap();
        idx.lookup_eq(Value::String(value.into())).collect()
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
    fn self_key_lookup_probes_the_index_or_scans() {
        let mut c = coll_with(50);
        assert_eq!(c.get_by_self_key("key7").unwrap().get_i64("n"), Some(7));
        assert!(c.get_by_self_key("key50").is_none());
        c.create_index("self-key").unwrap();
        assert_eq!(c.get_by_self_key("key42").unwrap().get_i64("n"), Some(42));
        assert!(c.get_by_self_key("key50").is_none());
    }

    #[test]
    fn self_key_lookup_takes_the_lowest_id_of_duplicates() {
        for indexed in [false, true] {
            let mut c = Collection::new();
            if indexed {
                c.create_index("self-key").unwrap();
            }
            for n in [3u32, 1, 2] {
                let id = ObjectId::from_parts(0, 0, n);
                c.put_after_image(id, doc! { "_id": Value::ObjectId(id), "self-key": "k" });
            }
            let hit = c.get_by_self_key("k").unwrap().get_object_id("_id");
            assert_eq!(hit, Some(ObjectId::from_parts(0, 0, 1)), "indexed: {indexed}");
        }
    }

    #[test]
    fn remove_updates_indexes_and_bytes() {
        let mut c = Collection::new();
        c.create_index("k").unwrap();
        let id = c.insert(doc! { "k": "x" }).unwrap();
        let before = c.bytes();
        assert!(before > 0);
        c.remove(id).unwrap();
        assert_eq!(c.len(), 0);
        assert_eq!(c.bytes(), 0);
        assert!(indexed(&c, "k", "x").is_empty());
        assert!(matches!(c.remove(id), Err(EngineError::NotFound)));
    }

    #[test]
    fn put_after_image_inserts_or_replaces_and_reindexes() {
        let mut c = Collection::new();
        c.create_index("k").unwrap();
        let id = ObjectId::from_parts(1, 1, 1);
        c.put_after_image(id, doc! { "_id": Value::ObjectId(id), "k": "a" });
        assert_eq!(c.len(), 1);
        let one = c.bytes();
        c.put_after_image(id, doc! { "_id": Value::ObjectId(id), "k": "b" });
        assert_eq!((c.len(), c.bytes()), (1, one));
        assert!(indexed(&c, "k", "a").is_empty(), "index must not return the old key");
        assert_eq!(indexed(&c, "k", "b"), vec![id]);
        // Same key again: the entry survives its own replacement.
        c.put_after_image(id, doc! { "_id": Value::ObjectId(id), "k": "b", "v": 2 });
        assert_eq!(indexed(&c, "k", "b"), vec![id]);
    }

    #[test]
    fn duplicate_index_rejected() {
        let mut c = Collection::new();
        c.create_index("k").unwrap();
        assert!(matches!(c.create_index("k"), Err(EngineError::IndexExists(_))));
    }
}
