//! Insertion-ordered BSON documents.

use std::fmt;

use crate::codec;
use crate::error::Result;
use crate::oid::ObjectId;
use crate::value::Value;

/// An insertion-ordered map from string keys to [`Value`]s.
///
/// BSON documents preserve field order, and MyStore's record layout (paper
/// §3.3: `_id`, `self-key`, `val`, `isData`, `isDel`) relies on that. Lookup
/// is linear; real records have a handful of fields, so linear scan beats a
/// hash map both in speed and memory.
#[derive(Clone, Default, PartialEq)]
pub struct Document {
    entries: Vec<(String, Value)>,
}

impl Document {
    /// Creates an empty document.
    pub fn new() -> Self {
        Document { entries: Vec::new() }
    }

    /// Creates an empty document with room for `cap` fields.
    pub fn with_capacity(cap: usize) -> Self {
        Document { entries: Vec::with_capacity(cap) }
    }

    /// Number of top-level fields.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the document has no fields.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sets `key` to `value`, replacing any existing value while keeping the
    /// field's original position. New keys append at the end.
    pub fn insert(&mut self, key: impl Into<String>, value: impl Into<Value>) -> Option<Value> {
        let key = key.into();
        let value = value.into();
        for (k, v) in &mut self.entries {
            if *k == key {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let idx = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(idx).1)
    }

    /// Looks up a top-level field.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Mutable lookup of a top-level field.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.entries.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// True if the field exists (even if set to `Null`).
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// String accessor for a top-level field.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Value::as_str)
    }

    /// Integer accessor for a top-level field.
    pub fn get_i64(&self, key: &str) -> Option<i64> {
        self.get(key).and_then(Value::as_i64)
    }

    /// Float accessor for a top-level field.
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Value::as_f64)
    }

    /// Bool accessor for a top-level field.
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        self.get(key).and_then(Value::as_bool)
    }

    /// Binary accessor for a top-level field.
    pub fn get_binary(&self, key: &str) -> Option<&[u8]> {
        self.get(key).and_then(Value::as_binary)
    }

    /// Nested-document accessor for a top-level field.
    pub fn get_document(&self, key: &str) -> Option<&Document> {
        self.get(key).and_then(Value::as_document)
    }

    /// Array accessor for a top-level field.
    pub fn get_array(&self, key: &str) -> Option<&[Value]> {
        self.get(key).and_then(Value::as_array)
    }

    /// ObjectId accessor for a top-level field.
    pub fn get_object_id(&self, key: &str) -> Option<ObjectId> {
        self.get(key).and_then(Value::as_object_id)
    }

    /// Iterates fields in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterates field names in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Encodes the document to its binary wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        codec::encode_document(self)
    }

    /// Decodes a document from its binary wire format.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        codec::decode_document(bytes)
    }

    /// Approximate in-memory/encoded size in bytes, used by the engine's
    /// accounting and by the simulator's bandwidth model. Matches the codec's
    /// framing exactly for flat documents and closely for nested ones.
    pub fn encoded_size(&self) -> usize {
        // 4-byte length + trailing NUL.
        5 + self.entries.iter().map(|(k, v)| 2 + k.len() + value_size(v)).sum::<usize>()
    }
}

fn value_size(v: &Value) -> usize {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int32(_) => 4,
        Value::Int64(_) | Value::Double(_) | Value::Timestamp(_) => 8,
        Value::String(s) => 5 + s.len(),
        Value::Binary(b) => 5 + b.len(),
        Value::ObjectId(_) => 12,
        Value::Array(items) => {
            5 + items.iter().enumerate().map(|(i, v)| 2 + dec_len(i) + value_size(v)).sum::<usize>()
        }
        Value::Document(d) => d.encoded_size(),
    }
}

fn dec_len(mut n: usize) -> usize {
    let mut len = 1;
    while n >= 10 {
        n /= 10;
        len += 1;
    }
    len
}

impl fmt::Debug for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, " {k:?}: {v}")?;
        }
        write!(f, " }}")
    }
}

impl FromIterator<(String, Value)> for Document {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        let mut doc = Document::new();
        for (k, v) in iter {
            doc.insert(k, v);
        }
        doc
    }
}

impl IntoIterator for Document {
    type Item = (String, Value);
    type IntoIter = std::vec::IntoIter<(String, Value)>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;

    #[test]
    fn insert_preserves_order_and_replaces_in_place() {
        let mut d = Document::new();
        d.insert("a", 1i32);
        d.insert("b", 2i32);
        d.insert("c", 3i32);
        d.insert("b", 99i32);
        let keys: Vec<&String> = d.keys().collect();
        assert_eq!(keys, ["a", "b", "c"]);
        assert_eq!(d.get_i64("b"), Some(99));
    }

    #[test]
    fn remove_returns_value() {
        let mut d = doc! { "x": 1, "y": "two" };
        assert_eq!(d.remove("y"), Some(Value::String("two".into())));
        assert_eq!(d.remove("y"), None);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn typed_accessors() {
        let d = doc! {
            "n": 4i64, "f": 2.5, "b": true,
            "bin": Value::Binary(vec![1, 2, 3]),
            "sub": doc! { "k": 1 },
        };
        assert_eq!(d.get_i64("n"), Some(4));
        assert_eq!(d.get_f64("f"), Some(2.5));
        assert_eq!(d.get_bool("b"), Some(true));
        assert_eq!(d.get_binary("bin"), Some(&[1u8, 2, 3][..]));
        assert!(d.get_document("sub").is_some());
        assert!(d.get_document("n").is_none());
    }

    #[test]
    fn encoded_size_matches_codec_for_flat_docs() {
        let d = doc! {
            "self-key": "Resistor5",
            "val": Value::Binary(vec![0u8; 1000]),
            "isData": "1",
            "isDel": "0",
        };
        assert_eq!(d.encoded_size(), d.to_bytes().len());
    }

    #[test]
    fn encoded_size_matches_codec_for_nested_docs() {
        let d = doc! {
            "arr": vec![1i32, 2, 3],
            "nested": doc! { "a": vec!["x", "y"], "b": doc!{ "c": 1.5 } },
            "id": Value::ObjectId(ObjectId::from_parts(1, 2, 3)),
            "nothing": Value::Null,
            "t": Value::Timestamp(9),
        };
        assert_eq!(d.encoded_size(), d.to_bytes().len());
    }

    #[test]
    fn from_iterator_collects() {
        let d: Document =
            vec![("a".to_string(), Value::Int32(1)), ("b".to_string(), Value::Int32(2))]
                .into_iter()
                .collect();
        assert_eq!(d.len(), 2);
    }
}
