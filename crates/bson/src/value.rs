//! The dynamically-typed BSON value.

use std::cmp::Ordering;
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

    /// Human-readable type name (used in error messages).
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int32(_) => "int32",
            Value::Int64(_) => "int64",
            Value::Double(_) => "double",
            Value::String(_) => "string",
            Value::Binary(_) => "binData",
            Value::ObjectId(_) => "objectId",
            Value::Array(_) => "array",
            Value::Document(_) => "document",
            Value::Timestamp(_) => "timestamp",
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

    /// True if the value is numeric (int32, int64 or double).
    pub fn is_numeric(&self) -> bool {
        matches!(self, Value::Int32(_) | Value::Int64(_) | Value::Double(_))
    }

    /// Cross-type rank used as the primary sort key. Numbers share a rank so
    /// that `Int32(1) == Double(1.0)` in comparisons, as in MongoDB.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int32(_) | Value::Int64(_) | Value::Double(_) => 2,
            Value::Timestamp(_) => 3,
            Value::String(_) => 4,
            Value::Binary(_) => 5,
            Value::ObjectId(_) => 6,
            Value::Array(_) => 7,
            Value::Document(_) => 8,
        }
    }

    /// Total-order comparison used by indexes, sorts, and range operators.
    ///
    /// NaN doubles sort below every other number (and equal to themselves) so
    /// the order stays total.
    pub fn compare(&self, other: &Value) -> Ordering {
        let (ra, rb) = (self.type_rank(), other.type_rank());
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (a, b) if a.is_numeric() && b.is_numeric() => {
                cmp_f64_total(a.as_f64().unwrap(), b.as_f64().unwrap())
            }
            (Value::Timestamp(a), Value::Timestamp(b)) => a.cmp(b),
            (Value::String(a), Value::String(b)) => a.cmp(b),
            (Value::Binary(a), Value::Binary(b)) => a.cmp(b),
            (Value::ObjectId(a), Value::ObjectId(b)) => a.cmp(b),
            (Value::Array(a), Value::Array(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let ord = x.compare(y);
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                a.len().cmp(&b.len())
            }
            (Value::Document(a), Value::Document(b)) => {
                for ((ka, va), (kb, vb)) in a.iter().zip(b.iter()) {
                    let ord = ka.cmp(kb).then_with(|| va.compare(vb));
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                a.len().cmp(&b.len())
            }
            _ => unreachable!("type ranks matched but variants did not"),
        }
    }
}

fn cmp_f64_total(a: f64, b: f64) -> Ordering {
    match a.partial_cmp(&b) {
        Some(o) => o,
        None => match (a.is_nan(), b.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => unreachable!(),
        },
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
    fn numeric_comparison_crosses_representations() {
        assert_eq!(Value::Int32(1).compare(&Value::Double(1.0)), Ordering::Equal);
        assert_eq!(Value::Int64(2).compare(&Value::Double(1.5)), Ordering::Greater);
        assert_eq!(Value::Double(0.5).compare(&Value::Int32(1)), Ordering::Less);
    }

    #[test]
    fn type_ranks_order_across_types() {
        let ordered = [
            Value::Null,
            Value::Bool(true),
            Value::Int32(5),
            Value::Timestamp(0),
            Value::String("a".into()),
            Value::Binary(vec![0]),
            Value::ObjectId(ObjectId::from_parts(0, 0, 0)),
            Value::Array(vec![]),
            Value::Document(Document::new()),
        ];
        for w in ordered.windows(2) {
            assert_eq!(w[0].compare(&w[1]), Ordering::Less, "{} < {}", w[0], w[1]);
        }
    }

    #[test]
    fn nan_sorts_below_numbers_and_equal_to_itself() {
        let nan = Value::Double(f64::NAN);
        assert_eq!(nan.compare(&nan), Ordering::Equal);
        assert_eq!(nan.compare(&Value::Double(-1e308)), Ordering::Less);
        assert_eq!(Value::Int32(0).compare(&nan), Ordering::Greater);
    }

    #[test]
    fn array_comparison_is_lexicographic() {
        let a = Value::Array(vec![Value::Int32(1), Value::Int32(2)]);
        let b = Value::Array(vec![Value::Int32(1), Value::Int32(3)]);
        let c = Value::Array(vec![Value::Int32(1)]);
        assert_eq!(a.compare(&b), Ordering::Less);
        assert_eq!(c.compare(&a), Ordering::Less);
        assert_eq!(a.compare(&a.clone()), Ordering::Equal);
    }

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
