//! Binary encoding and decoding of documents.
//!
//! The format follows BSON's framing rules: a document is a little-endian
//! `i32` total length, a sequence of elements (`type byte`, NUL-terminated
//! key, payload), and a terminating NUL. Strings carry their own `i32`
//! length (including the trailing NUL); binary payloads carry an `i32`
//! length and a subtype byte (always 0); arrays are documents keyed by
//! decimal indices.

use std::ops::Range;

use crate::document::Document;
use crate::error::{BsonError, Result};
use crate::oid::{ObjectId, OID_LEN};
use crate::raw::RawDocument;
use crate::value::{ElementType, Value};

/// Maximum nesting depth accepted by the decoder; prevents stack overflow on
/// maliciously nested input.
pub(crate) const MAX_DEPTH: usize = 64;

/// Encodes `doc` into a fresh byte vector.
pub fn encode_document(doc: &Document) -> Vec<u8> {
    let mut buf = Vec::with_capacity(doc.encoded_size());
    write_document(&mut buf, doc);
    buf
}

/// Decodes a document from `bytes`. The buffer must contain exactly one
/// document (trailing bytes are an error, since the engine frames records
/// individually).
pub fn decode_document(bytes: &[u8]) -> Result<Document> {
    let mut reader = Reader { buf: bytes, pos: 0 };
    let doc = read_document(&mut reader, 0)?;
    if reader.pos != bytes.len() {
        return Err(BsonError::BadLength { declared: reader.pos, actual: bytes.len() });
    }
    Ok(doc)
}

/// Writes one document straight into the end of a byte buffer: the
/// encoder behind [`Document::to_bytes`], open to callers that hold a
/// document's fields without a [`Document`] — a store encoding a record
/// into the log frame it appends, say. Fields land in call order; a
/// document is only well formed once [`DocWriter::finish`] has written
/// its terminator and length.
#[must_use = "a document is malformed until `finish` writes its length"]
pub struct DocWriter<'a> {
    buf: &'a mut Vec<u8>,
    start: usize,
}

impl<'a> DocWriter<'a> {
    /// Starts a document at the end of `buf`.
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        let start = buf.len();
        buf.extend_from_slice(&[0; 4]); // length placeholder
        DocWriter { buf, start }
    }

    /// Appends a string field.
    pub fn str(&mut self, key: &str, v: &str) {
        put_head(self.buf, ElementType::String, key);
        put_str(self.buf, v);
    }

    /// Appends a binary field (subtype 0).
    pub fn binary(&mut self, key: &str, v: &[u8]) {
        put_head(self.buf, ElementType::Binary, key);
        put_binary(self.buf, v);
    }

    /// Appends an ObjectId field.
    pub fn object_id(&mut self, key: &str, id: ObjectId) {
        put_head(self.buf, ElementType::ObjectId, key);
        self.buf.extend_from_slice(id.bytes());
    }

    /// Appends a timestamp field.
    pub fn timestamp(&mut self, key: &str, v: u64) {
        put_head(self.buf, ElementType::Timestamp, key);
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a field of any type.
    pub fn value(&mut self, key: &str, v: &Value) {
        write_element(self.buf, key, v);
    }

    /// Appends an embedded document already encoded, byte for byte, and
    /// returns where it sits in the buffer.
    pub fn raw_document(&mut self, key: &str, doc: RawDocument<'_>) -> Range<usize> {
        put_head(self.buf, ElementType::Document, key);
        let start = self.buf.len();
        self.buf.extend_from_slice(doc.as_bytes());
        start..self.buf.len()
    }

    /// Starts an embedded document under `key`; finish it before writing
    /// this document's next field.
    pub fn document(&mut self, key: &str) -> DocWriter<'_> {
        put_head(self.buf, ElementType::Document, key);
        DocWriter::new(self.buf)
    }

    /// Terminates the document, writes its length, and returns where it
    /// sits in the buffer.
    pub fn finish(self) -> Range<usize> {
        self.buf.push(0);
        let len = (self.buf.len() - self.start) as i32;
        if let Some(slot) = self.buf.get_mut(self.start..self.start + 4) {
            slot.copy_from_slice(&len.to_le_bytes());
        }
        self.start..self.buf.len()
    }
}

fn write_document(buf: &mut Vec<u8>, doc: &Document) {
    let mut w = DocWriter::new(buf);
    for (key, value) in doc.iter() {
        w.value(key, value);
    }
    w.finish();
}

fn put_head(buf: &mut Vec<u8>, ty: ElementType, key: &str) {
    buf.push(ty as u8);
    buf.extend_from_slice(key.as_bytes());
    buf.push(0);
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&((s.len() + 1) as i32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
    buf.push(0);
}

fn put_binary(buf: &mut Vec<u8>, b: &[u8]) {
    buf.extend_from_slice(&(b.len() as i32).to_le_bytes());
    buf.push(0); // subtype: generic
    buf.extend_from_slice(b);
}

fn write_element(buf: &mut Vec<u8>, key: &str, value: &Value) {
    put_head(buf, value.element_type(), key);
    match value {
        Value::Null => {}
        Value::Bool(b) => buf.push(*b as u8),
        Value::Int32(v) => buf.extend_from_slice(&v.to_le_bytes()),
        Value::Int64(v) => buf.extend_from_slice(&v.to_le_bytes()),
        Value::Double(v) => buf.extend_from_slice(&v.to_le_bytes()),
        Value::Timestamp(v) => buf.extend_from_slice(&v.to_le_bytes()),
        Value::String(s) => put_str(buf, s),
        Value::Binary(b) => put_binary(buf, b),
        Value::ObjectId(id) => buf.extend_from_slice(id.bytes()),
        Value::Document(d) => write_document(buf, d),
        Value::Array(items) => {
            // Arrays are documents keyed "0", "1", ...
            let mut w = DocWriter::new(buf);
            let mut keybuf = itoa_buf();
            for (i, item) in items.iter().enumerate() {
                w.value(itoa(&mut keybuf, i), item);
            }
            w.finish();
        }
    }
}

/// Stack buffer for decimal array indices, avoiding per-element allocation.
fn itoa_buf() -> [u8; 20] {
    [0; 20]
}

fn itoa(buf: &mut [u8; 20], mut n: usize) -> &str {
    let mut pos = buf.len();
    loop {
        pos -= 1;
        buf[pos] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    // SAFETY-free: bytes are all ASCII digits.
    std::str::from_utf8(&buf[pos..]).expect("digits are valid UTF-8")
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(BsonError::UnexpectedEof { context });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8> {
        Ok(self.take(1, context)?[0])
    }

    fn i32(&mut self, context: &'static str) -> Result<i32> {
        let b = self.take(4, context)?;
        Ok(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn i64(&mut self, context: &'static str) -> Result<i64> {
        let b = self.take(8, context)?;
        Ok(i64::from_le_bytes(b.try_into().expect("len 8")))
    }

    fn cstring(&mut self) -> Result<&'a str> {
        let rest = &self.buf[self.pos..];
        let nul = rest.iter().position(|&b| b == 0).ok_or(BsonError::MissingNul)?;
        let s = std::str::from_utf8(&rest[..nul]).map_err(|_| BsonError::InvalidUtf8)?;
        self.pos += nul + 1;
        Ok(s)
    }
}

fn read_document(r: &mut Reader<'_>, depth: usize) -> Result<Document> {
    if depth > MAX_DEPTH {
        return Err(BsonError::TooDeep);
    }
    let start = r.pos;
    let declared = r.i32("document length")?;
    if declared < 5 {
        return Err(BsonError::BadLength {
            declared: declared as usize,
            actual: r.buf.len() - start,
        });
    }
    let end = start + declared as usize;
    if end > r.buf.len() {
        return Err(BsonError::BadLength {
            declared: declared as usize,
            actual: r.buf.len() - start,
        });
    }
    let mut doc = Document::new();
    loop {
        let tag = r.u8("element type")?;
        if tag == 0 {
            break;
        }
        let ty = ElementType::from_byte(tag).ok_or(BsonError::UnknownElementType(tag))?;
        let key = r.cstring()?.to_string();
        let value = read_value(r, ty, depth)?;
        doc.insert(key, value);
    }
    if r.pos != end {
        return Err(BsonError::BadLength { declared: declared as usize, actual: r.pos - start });
    }
    Ok(doc)
}

fn read_value(r: &mut Reader<'_>, ty: ElementType, depth: usize) -> Result<Value> {
    Ok(match ty {
        ElementType::Null => Value::Null,
        ElementType::Bool => Value::Bool(r.u8("bool")? != 0),
        ElementType::Int32 => Value::Int32(r.i32("int32")?),
        ElementType::Int64 => Value::Int64(r.i64("int64")?),
        ElementType::Timestamp => Value::Timestamp(r.i64("timestamp")? as u64),
        ElementType::Double => Value::Double(f64::from_bits(r.i64("double")? as u64)),
        ElementType::String => {
            let len = r.i32("string length")?;
            if len < 1 {
                return Err(BsonError::BadLength { declared: len as usize, actual: 0 });
            }
            let bytes = r.take(len as usize, "string payload")?;
            let (body, nul) = bytes.split_at(bytes.len() - 1);
            if nul != [0] {
                return Err(BsonError::MissingNul);
            }
            Value::String(
                std::str::from_utf8(body).map_err(|_| BsonError::InvalidUtf8)?.to_string(),
            )
        }
        ElementType::Binary => {
            let len = r.i32("binary length")?;
            if len < 0 {
                return Err(BsonError::BadLength { declared: len as usize, actual: 0 });
            }
            let _subtype = r.u8("binary subtype")?;
            Value::Binary(r.take(len as usize, "binary payload")?.to_vec())
        }
        ElementType::ObjectId => {
            let bytes = r.take(OID_LEN, "objectid")?;
            Value::ObjectId(ObjectId::from_bytes(bytes.try_into().expect("len 12")))
        }
        ElementType::Document => Value::Document(read_document(r, depth + 1)?),
        ElementType::Array => {
            let doc = read_document(r, depth + 1)?;
            Value::Array(doc.into_iter().map(|(_, v)| v).collect())
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{doc, Document};

    fn sample() -> Document {
        doc! {
            "_id": Value::ObjectId(ObjectId::from_parts(0x4ee4_4627, 42, 7)),
            "self-key": "Resistor5",
            "val": Value::Binary(b"this is test data for read".to_vec()),
            "isData": "1",
            "isDel": "0",
        }
    }

    #[test]
    fn roundtrip_paper_record() {
        let d = sample();
        let bytes = d.to_bytes();
        assert_eq!(Document::from_bytes(&bytes).unwrap(), d);
    }

    #[test]
    fn roundtrip_all_types() {
        let d = doc! {
            "null": Value::Null,
            "bool": true,
            "i32": -7i32,
            "i64": 1i64 << 40,
            "f": -0.25,
            "s": "héllo",
            "bin": Value::Binary(vec![0, 255, 3]),
            "oid": Value::ObjectId(ObjectId::from_parts(1, 2, 3)),
            "arr": Value::Array(vec![Value::Int32(1), Value::String("two".into()), Value::Null]),
            "doc": doc! { "inner": doc! { "deep": 1 } },
            "ts": Value::Timestamp(u64::MAX / 3),
        };
        assert_eq!(Document::from_bytes(&d.to_bytes()).unwrap(), d);
    }

    #[test]
    fn empty_document_is_five_bytes() {
        let d = Document::new();
        let bytes = d.to_bytes();
        assert_eq!(bytes, vec![5, 0, 0, 0, 0]);
        assert_eq!(Document::from_bytes(&bytes).unwrap(), d);
    }

    #[test]
    fn rejects_truncated_buffer() {
        let bytes = sample().to_bytes();
        for cut in [0, 1, 3, 4, 10, bytes.len() - 1] {
            assert!(Document::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = sample().to_bytes();
        bytes.push(0xAB);
        assert!(Document::from_bytes(&bytes).is_err());
    }

    #[test]
    fn rejects_unknown_element_type() {
        // doc with one element of bogus type 0x6F
        let mut bytes = vec![0, 0, 0, 0, 0x6F, b'k', 0, 0];
        let len = bytes.len() as i32;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(Document::from_bytes(&bytes), Err(BsonError::UnknownElementType(0x6F))));
    }

    #[test]
    fn rejects_bad_length_prefix() {
        let mut bytes = sample().to_bytes();
        let wrong = (bytes.len() as i32) + 4;
        bytes[..4].copy_from_slice(&wrong.to_le_bytes());
        assert!(Document::from_bytes(&bytes).is_err());
    }

    #[test]
    fn rejects_overly_deep_nesting() {
        let mut d = doc! { "x": 1 };
        for _ in 0..100 {
            d = doc! { "n": d };
        }
        let bytes = d.to_bytes();
        assert!(matches!(Document::from_bytes(&bytes), Err(BsonError::TooDeep)));
    }

    #[test]
    fn array_keys_are_decimal_indices() {
        let d = doc! { "a": Value::Array(vec![Value::Int32(9); 12]) };
        let bytes = d.to_bytes();
        // "10" and "11" must appear as keys in the nested array document.
        let hay = bytes.windows(3).any(|w| w == [b'1', b'0', 0]);
        assert!(hay, "expected decimal key \"10\" in encoding");
        assert_eq!(Document::from_bytes(&bytes).unwrap(), d);
    }

    #[test]
    fn itoa_small_and_large() {
        let mut buf = itoa_buf();
        assert_eq!(itoa(&mut buf, 0), "0");
        let mut buf = itoa_buf();
        assert_eq!(itoa(&mut buf, 12345), "12345");
    }
}
