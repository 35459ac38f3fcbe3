//! Secondary indexes.
//!
//! A B-tree from field value to the set of document ids holding it. MyStore
//! always indexes `self-key` (reads locate records by user key, §3.3);
//! applications may index any other top-level or dotted path.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use mystore_bson::{Document, ObjectId, Value};

/// A [`Value`] wrapper carrying the total order from
/// [`Value::compare`], so values can key a `BTreeMap`.
#[derive(Debug, Clone, PartialEq)]
pub struct OrdValue(pub Value);

impl Eq for OrdValue {}

impl PartialOrd for OrdValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdValue {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.compare(&other.0)
    }
}

/// A single-field secondary index.
#[derive(Debug, Clone, Default)]
pub struct Index {
    field: String,
    map: BTreeMap<OrdValue, BTreeSet<ObjectId>>,
    entries: usize,
}

impl Index {
    /// Creates an empty index on `field` (top-level or dotted path).
    pub fn new(field: impl Into<String>) -> Self {
        Index { field: field.into(), map: BTreeMap::new(), entries: 0 }
    }

    /// The indexed field path.
    pub fn field(&self) -> &str {
        &self.field
    }

    /// Number of (value, id) entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Indexes `doc` under `id`. Documents missing the field are skipped
    /// (sparse index); array fields index every element (multikey).
    pub fn insert(&mut self, id: ObjectId, doc: &Document) {
        for key in Self::keys_of(doc, &self.field) {
            if self.map.entry(OrdValue(key)).or_default().insert(id) {
                self.entries += 1;
            }
        }
    }

    /// Removes `doc`'s entries for `id`.
    pub fn remove(&mut self, id: ObjectId, doc: &Document) {
        for key in Self::keys_of(doc, &self.field) {
            let ord = OrdValue(key);
            if let Some(set) = self.map.get_mut(&ord) {
                if set.remove(&id) {
                    self.entries -= 1;
                }
                if set.is_empty() {
                    self.map.remove(&ord);
                }
            }
        }
    }

    /// Ids of documents whose field equals `value`, in id order.
    pub fn lookup_eq(&self, value: Value) -> impl Iterator<Item = ObjectId> + '_ {
        self.map.get(&OrdValue(value)).into_iter().flatten().copied()
    }

    fn keys_of(doc: &Document, field: &str) -> Vec<Value> {
        match doc.get_path(field) {
            None => Vec::new(),
            Some(Value::Array(items)) => items.clone(),
            Some(v) => vec![v.clone()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mystore_bson::doc;

    fn oid(n: u32) -> ObjectId {
        ObjectId::from_parts(0, 0, n)
    }

    fn eq(idx: &Index, value: Value) -> Vec<ObjectId> {
        idx.lookup_eq(value).collect()
    }

    #[test]
    fn eq_lookup_in_id_order() {
        let mut idx = Index::new("self-key");
        idx.insert(oid(3), &doc! { "self-key": "a" });
        idx.insert(oid(2), &doc! { "self-key": "b" });
        idx.insert(oid(1), &doc! { "self-key": "a" });
        assert_eq!(eq(&idx, Value::String("a".into())), vec![oid(1), oid(3)]);
        assert!(eq(&idx, Value::String("z".into())).is_empty());
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn remove_clears_entries() {
        let mut idx = Index::new("k");
        let d = doc! { "k": 5 };
        idx.insert(oid(1), &d);
        idx.remove(oid(1), &d);
        assert!(idx.is_empty());
        assert!(eq(&idx, Value::Int32(5)).is_empty());
    }

    #[test]
    fn sparse_documents_are_skipped() {
        let mut idx = Index::new("k");
        idx.insert(oid(1), &doc! { "other": 1 });
        assert!(idx.is_empty());
        // Removing a doc that was never indexed is a no-op.
        idx.remove(oid(1), &doc! { "other": 1 });
        assert!(idx.is_empty());
    }

    #[test]
    fn multikey_arrays_index_each_element() {
        let mut idx = Index::new("tags");
        let d = doc! { "tags": vec!["x", "y"] };
        idx.insert(oid(1), &d);
        assert_eq!(eq(&idx, Value::String("x".into())), vec![oid(1)]);
        assert_eq!(eq(&idx, Value::String("y".into())), vec![oid(1)]);
        idx.remove(oid(1), &d);
        assert!(idx.is_empty());
    }

    #[test]
    fn dotted_path_index() {
        let mut idx = Index::new("meta.size");
        idx.insert(oid(1), &doc! { "meta": doc! { "size": 42 } });
        assert_eq!(eq(&idx, Value::Int32(42)), vec![oid(1)]);
    }

    #[test]
    fn cross_numeric_representation_hits() {
        let mut idx = Index::new("n");
        idx.insert(oid(1), &doc! { "n": 5 });
        // Int64(5) and Double(5.0) compare equal to Int32(5).
        assert_eq!(eq(&idx, Value::Int64(5)), vec![oid(1)]);
        assert_eq!(eq(&idx, Value::Double(5.0)), vec![oid(1)]);
    }
}
