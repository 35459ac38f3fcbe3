//! Borrowed reads over encoded documents.
//!
//! [`RawDocument`] answers top-level field lookups straight from a
//! document's bytes, so a store that keeps documents encoded never has to
//! rebuild a [`Document`] tree to read a field. [`RawDocument::new`]
//! checks the bytes once, exactly as strictly as [`Document::from_bytes`];
//! every accessor is bounds-checked as well, so bytes that never passed
//! that check read as missing fields, never as a panic.

use std::fmt;
use std::ops::Range;

use crate::codec::MAX_DEPTH;
use crate::document::Document;
use crate::error::{BsonError, Result};
use crate::oid::ObjectId;
use crate::value::ElementType;

/// A document read in place from its encoded bytes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct RawDocument<'a> {
    bytes: &'a [u8],
}

impl<'a> RawDocument<'a> {
    /// Checks that `bytes` hold exactly one well-formed document — what
    /// [`Document::from_bytes`] accepts — without materialising it.
    pub fn new(bytes: &'a [u8]) -> Result<Self> {
        validate(bytes, 0)?;
        Ok(RawDocument { bytes })
    }

    /// Wraps bytes that already passed [`RawDocument::new`], such as a
    /// document a store checked when it took it in, without checking them
    /// again. Lookups stay bounds-checked: bytes that were never checked
    /// can only read as missing fields.
    pub fn from_validated(bytes: &'a [u8]) -> Self {
        RawDocument { bytes }
    }

    /// The encoded document.
    pub fn as_bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Decodes the whole document into a [`Document`] tree.
    pub fn to_document(&self) -> Result<Document> {
        Document::from_bytes(self.bytes)
    }

    /// String field.
    pub fn get_str(&self, key: &str) -> Option<&'a str> {
        let v = self.find(key, ElementType::String)?;
        let body = v.get(4..v.len().checked_sub(1)?)?;
        std::str::from_utf8(body).ok()
    }

    /// Integer field (int32 or int64), like [`Document::get_i64`].
    pub fn get_i64(&self, key: &str) -> Option<i64> {
        let el = self.element(key)?;
        let v = self.bytes.get(el.value)?;
        match el.ty {
            ElementType::Int32 => Some(i32::from_le_bytes(v.try_into().ok()?).into()),
            ElementType::Int64 => Some(i64::from_le_bytes(v.try_into().ok()?)),
            _ => None,
        }
    }

    /// Binary field's payload.
    pub fn get_binary(&self, key: &str) -> Option<&'a [u8]> {
        self.find(key, ElementType::Binary)?.get(5..)
    }

    /// ObjectId field.
    pub fn get_object_id(&self, key: &str) -> Option<ObjectId> {
        Some(ObjectId::from_bytes(self.find(key, ElementType::ObjectId)?.try_into().ok()?))
    }

    /// Timestamp field (a record's packed `ver`).
    pub fn get_timestamp(&self, key: &str) -> Option<u64> {
        Some(u64::from_le_bytes(self.find(key, ElementType::Timestamp)?.try_into().ok()?))
    }

    /// Embedded document field.
    pub fn get_document(&self, key: &str) -> Option<RawDocument<'a>> {
        self.find(key, ElementType::Document).map(RawDocument::from_validated)
    }

    /// Where the embedded document under `key` sits in [`Self::as_bytes`].
    pub fn document_range(&self, key: &str) -> Option<Range<usize>> {
        let el = self.element(key)?;
        (el.ty == ElementType::Document).then_some(el.value)
    }

    /// The first field named `key`.
    fn element(&self, key: &str) -> Option<Element<'a>> {
        let mut pos = 4;
        while let Ok(Some(el)) = element_at(self.bytes, pos) {
            if el.key == key.as_bytes() {
                return Some(el);
            }
            pos = el.value.end;
        }
        None
    }

    /// The value bytes of field `key` when it has type `ty`.
    fn find(&self, key: &str, ty: ElementType) -> Option<&'a [u8]> {
        let el = self.element(key).filter(|el| el.ty == ty)?;
        self.bytes.get(el.value)
    }
}

impl fmt::Debug for RawDocument<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.to_document() {
            Ok(doc) => write!(f, "{doc}"),
            Err(e) => write!(f, "RawDocument(<{} bytes: {e}>)", self.bytes.len()),
        }
    }
}

/// One element of an encoded document: its key bytes, type, and where its
/// value sits in the document.
struct Element<'a> {
    key: &'a [u8],
    ty: ElementType,
    value: Range<usize>,
}

fn le_i32(bytes: &[u8], at: usize, context: &'static str) -> Result<i32> {
    let b = bytes.get(at..at.saturating_add(4)).ok_or(BsonError::UnexpectedEof { context })?;
    Ok(i32::from_le_bytes(b.try_into().map_err(|_| BsonError::UnexpectedEof { context })?))
}

/// A length prefix of at least `min`, as a `usize`.
fn length(bytes: &[u8], at: usize, min: i32, context: &'static str) -> Result<usize> {
    let len = le_i32(bytes, at, context)?;
    if len < min {
        return Err(BsonError::BadLength { declared: len as usize, actual: 0 });
    }
    Ok(len as usize)
}

/// The element starting at `pos` in `doc`, or `None` at the terminating
/// NUL. Fails where the element runs past the end of `doc`.
fn element_at(doc: &[u8], pos: usize) -> Result<Option<Element<'_>>> {
    let tag = *doc.get(pos).ok_or(BsonError::UnexpectedEof { context: "element type" })?;
    if tag == 0 {
        return Ok(None);
    }
    let ty = ElementType::from_byte(tag).ok_or(BsonError::UnknownElementType(tag))?;
    let key_start = pos + 1;
    let rest = doc.get(key_start..).unwrap_or_default();
    let nul = rest.iter().position(|&b| b == 0).ok_or(BsonError::MissingNul)?;
    let key = rest.get(..nul).unwrap_or_default();
    let at = key_start + nul + 1;
    let len = match ty {
        ElementType::Null => 0,
        ElementType::Bool => 1,
        ElementType::Int32 => 4,
        ElementType::Int64 | ElementType::Double | ElementType::Timestamp => 8,
        ElementType::ObjectId => crate::oid::OID_LEN,
        ElementType::String => 4 + length(doc, at, 1, "string length")?,
        ElementType::Binary => 5 + length(doc, at, 0, "binary length")?,
        ElementType::Document | ElementType::Array => length(doc, at, 5, "document length")?,
    };
    let end = at.checked_add(len).filter(|&end| end <= doc.len());
    let end = end.ok_or(BsonError::UnexpectedEof { context: "element value" })?;
    Ok(Some(Element { key, ty, value: at..end }))
}

/// Checks that `doc` is exactly one well-formed document.
fn validate(doc: &[u8], depth: usize) -> Result<()> {
    if depth > MAX_DEPTH {
        return Err(BsonError::TooDeep);
    }
    let declared = length(doc, 0, 5, "document length")?;
    if declared != doc.len() {
        return Err(BsonError::BadLength { declared, actual: doc.len() });
    }
    let mut pos = 4;
    while let Some(el) = element_at(doc, pos)? {
        std::str::from_utf8(el.key).map_err(|_| BsonError::InvalidUtf8)?;
        let value = doc.get(el.value.clone()).unwrap_or_default();
        match el.ty {
            ElementType::String => {
                let (nul, body) = value.get(4..).unwrap_or_default().split_last().unzip();
                if nul != Some(&0) {
                    return Err(BsonError::MissingNul);
                }
                std::str::from_utf8(body.unwrap_or_default())
                    .map_err(|_| BsonError::InvalidUtf8)?;
            }
            ElementType::Document | ElementType::Array => validate(value, depth + 1)?,
            _ => {}
        }
        pos = el.value.end;
    }
    if pos + 1 != doc.len() {
        return Err(BsonError::BadLength { declared, actual: pos + 1 });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{doc, Value};

    fn sample() -> Document {
        doc! {
            "_id": Value::ObjectId(ObjectId::from_parts(1, 2, 3)),
            "self-key": "Resistor5",
            "val": Value::Binary(b"470 ohm".to_vec()),
            "n": 7i32,
            "big": 1i64 << 40,
            "ver": Value::Timestamp(99),
            "sub": doc! { "inner": "x" },
            "arr": vec![1i32, 2],
        }
    }

    #[test]
    fn reads_every_field_type_in_place() {
        let bytes = sample().to_bytes();
        let raw = RawDocument::new(&bytes).unwrap();
        assert_eq!(raw.get_object_id("_id"), Some(ObjectId::from_parts(1, 2, 3)));
        assert_eq!(raw.get_str("self-key"), Some("Resistor5"));
        assert_eq!(raw.get_binary("val"), Some(&b"470 ohm"[..]));
        assert_eq!((raw.get_i64("n"), raw.get_i64("big")), (Some(7), Some(1 << 40)));
        assert_eq!(raw.get_timestamp("ver"), Some(99));
        assert_eq!(raw.get_document("sub").unwrap().get_str("inner"), Some("x"));
        let range = raw.document_range("sub").unwrap();
        assert_eq!(bytes.get(range), Some(doc! { "inner": "x" }.to_bytes().as_slice()));
        assert_eq!(raw.to_document().unwrap(), sample());
    }

    #[test]
    fn a_wrong_type_or_missing_key_reads_as_none() {
        let bytes = sample().to_bytes();
        let raw = RawDocument::new(&bytes).unwrap();
        assert_eq!(raw.get_str("n"), None);
        assert_eq!(raw.get_i64("self-key"), None);
        assert!(raw.get_document("arr").is_none(), "an array is not a document");
        assert!(raw.document_range("arr").is_none());
        assert_eq!(raw.get_binary("missing"), None);
    }

    #[test]
    fn accepts_exactly_what_the_decoder_accepts() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(RawDocument::new(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(RawDocument::new(&long).is_err(), "trailing bytes");
        let mut bad = bytes.clone();
        let at = bad.windows(9).position(|w| w == b"Resistor5").unwrap();
        bad[at] = 0xFF;
        assert_eq!(RawDocument::new(&bad), Err(BsonError::InvalidUtf8));
        let mut deep = doc! { "x": 1 };
        for _ in 0..100 {
            deep = doc! { "n": deep };
        }
        assert_eq!(RawDocument::new(&deep.to_bytes()), Err(BsonError::TooDeep));
    }
}
