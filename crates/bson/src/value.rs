//! The dynamically-typed BSON value.

use std::fmt;

use crate::document::Document;
use crate::oid::ObjectId;

/// BSON element type tags, as used in the binary encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ElementType {
    /// 64-bit IEEE 754 floating point.
    Double = 0x01,
    /// UTF-8 string.
    String = 0x02,
    /// Embedded document.
    Document = 0x03,
    /// Array (encoded as a document with keys "0", "1", ...).
    Array = 0x04,
    /// Binary blob (subtype 0).
    Binary = 0x05,
    /// 12-byte ObjectId.
    ObjectId = 0x07,
    /// Boolean.
    Bool = 0x08,
    /// Null.
    Null = 0x0A,
    /// 32-bit signed integer.
    Int32 = 0x10,
    /// Internal timestamp (unsigned 64-bit).
    Timestamp = 0x11,
    /// 64-bit signed integer.
    Int64 = 0x12,
}

impl ElementType {
    /// Maps a raw tag byte back to the enum.
    pub fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            0x01 => ElementType::Double,
            0x02 => ElementType::String,
            0x03 => ElementType::Document,
            0x04 => ElementType::Array,
            0x05 => ElementType::Binary,
            0x07 => ElementType::ObjectId,
            0x08 => ElementType::Bool,
            0x0A => ElementType::Null,
            0x10 => ElementType::Int32,
            0x11 => ElementType::Timestamp,
            0x12 => ElementType::Int64,
            _ => return None,
        })
    }
}

/// A single BSON value.
///
/// Values form a total order (used by secondary indexes and `$gt`-style
/// query operators): first by *type rank* — `Null < Bool < numbers < String
/// < Binary < ObjectId < Array < Document` — then within numbers by numeric
/// value regardless of representation, and within other types by their
/// natural ordering.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absence of a value.
    Null,
    /// Boolean.
    Bool(bool),
    /// 32-bit integer.
    Int32(i32),
    /// 64-bit integer.
    Int64(i64),
    /// Double-precision float.
    Double(f64),
    /// UTF-8 string.
    String(String),
    /// Binary payload — MyStore stores unstructured data (`val`) here.
    Binary(Vec<u8>),
    /// Unique identifier.
    ObjectId(ObjectId),
    /// Heterogeneous array.
    Array(Vec<Value>),
    /// Nested document.
    Document(Document),
    /// Monotonic timestamp: a record's packed LWW version.
    Timestamp(u64),
}

impl Value {
    /// The wire-format type tag for this value.
    pub fn element_type(&self) -> ElementType {
        match self {
            Value::Null => ElementType::Null,
            Value::Bool(_) => ElementType::Bool,
            Value::Int32(_) => ElementType::Int32,
            Value::Int64(_) => ElementType::Int64,
            Value::Double(_) => ElementType::Double,
            Value::String(_) => ElementType::String,
            Value::Binary(_) => ElementType::Binary,
            Value::ObjectId(_) => ElementType::ObjectId,
            Value::Array(_) => ElementType::Array,
            Value::Document(_) => ElementType::Document,
            Value::Timestamp(_) => ElementType::Timestamp,
        }
    }

    /// Returns the string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the value as an `i64` if it is any integer type.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int32(v) => Some(*v as i64),
            Value::Int64(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the value as an `f64` if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int32(v) => Some(*v as f64),
            Value::Int64(v) => Some(*v as f64),
            Value::Double(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the binary payload, if this is binary data.
    pub fn as_binary(&self) -> Option<&[u8]> {
        match self {
            Value::Binary(b) => Some(b),
            _ => None,
        }
    }

    /// Returns the nested document, if any.
    pub fn as_document(&self) -> Option<&Document> {
        match self {
            Value::Document(d) => Some(d),
            _ => None,
        }
    }

    /// Returns the array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Returns the ObjectId, if this is one.
    pub fn as_object_id(&self) -> Option<ObjectId> {
        match self {
            Value::ObjectId(id) => Some(*id),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    /// Extended-JSON-ish rendering, close to what the paper prints in §3.3.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int32(v) => write!(f, "{v}"),
            Value::Int64(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::String(s) => write!(f, "{s:?}"),
            Value::Binary(b) => write!(f, "BinData(0, {} bytes)", b.len()),
            Value::ObjectId(id) => write!(f, "ObjectId(\"{id}\")"),
            Value::Array(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Document(d) => write!(f, "{d}"),
            Value::Timestamp(t) => write!(f, "Timestamp({t})"),
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int32(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int64(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::String(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::String(v)
    }
}
impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Binary(v)
    }
}
impl From<ObjectId> for Value {
    fn from(v: ObjectId) -> Self {
        Value::ObjectId(v)
    }
}
impl From<Document> for Value {
    fn from(v: Document) -> Self {
        Value::Document(v)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value
where
    Value: From<T>,
{
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Value::from).collect())
    }
}
impl<T> From<Option<T>> for Value
where
    Value: From<T>,
{
    fn from(v: Option<T>) -> Self {
        v.map(Value::from).unwrap_or(Value::Null)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;

    #[test]
    fn conversions_produce_expected_variants() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(7i32), Value::Int32(7));
        assert_eq!(Value::from(7i64), Value::Int64(7));
        assert_eq!(Value::from("x"), Value::String("x".into()));
        assert_eq!(
            Value::from(vec![1i32, 2]),
            Value::Array(vec![Value::Int32(1), Value::Int32(2)])
        );
        assert_eq!(Value::from(None::<i32>), Value::Null);
        assert_eq!(Value::from(Some(3i32)), Value::Int32(3));
    }

    #[test]
    fn display_matches_paper_style() {
        let d = doc! { "self-key": "Resistor5", "isData": "1" };
        let s = format!("{}", Value::Document(d));
        assert!(s.contains("\"self-key\": \"Resistor5\""), "{s}");
    }

    #[test]
    fn accessors_return_none_on_wrong_type() {
        let v = Value::String("hi".into());
        assert!(v.as_i64().is_none());
        assert!(v.as_bool().is_none());
        assert!(v.as_binary().is_none());
        assert_eq!(v.as_str(), Some("hi"));
        assert!(Value::Int32(3).as_f64() == Some(3.0));
    }
}
