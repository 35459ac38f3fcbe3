//! A BSON-like document model for MyStore.
//!
//! MyStore records are BSON documents (paper §3.3): ordered maps from string
//! keys to typed values, with a compact length-prefixed binary encoding used
//! both on the wire and on disk. This crate implements the document model
//! from scratch:
//!
//! * [`Value`] — the dynamically-typed value enum (double, string, document,
//!   array, binary, [`ObjectId`], bool, null, int32, int64, timestamp),
//! * [`Document`] — an insertion-ordered key/value map with top-level
//!   field access,
//! * a binary codec ([`Document::to_bytes`] / [`Document::from_bytes`])
//!   following the BSON framing rules (little-endian, length-prefixed,
//!   NUL-terminated keys),
//! * [`DocWriter`], the encoder itself, for writing a document field by
//!   field into a caller's buffer without building a [`Document`], and
//!   [`RawDocument`], a borrowed, validated reader that serves field
//!   lookups from the encoded bytes in place (the engine stores documents
//!   encoded and reads them this way),
//! * the [`doc!`] and [`bson!`] construction macros.
//!
//! # Example
//!
//! ```
//! use mystore_bson::{doc, Document, Value};
//!
//! let record = doc! {
//!     "self-key": "Resistor5",
//!     "val": Value::Binary(b"this is test data for read".to_vec()),
//!     "isData": "1",
//!     "isDel": "0",
//! };
//! let bytes = record.to_bytes();
//! let decoded = Document::from_bytes(&bytes).unwrap();
//! assert_eq!(record, decoded);
//! assert_eq!(decoded.get_str("self-key"), Some("Resistor5"));
//! ```

#![forbid(unsafe_code)]

mod codec;
mod document;
mod error;
mod macros;
mod oid;
mod raw;
mod value;

pub use codec::{decode_document, encode_document, DocWriter};
pub use document::Document;
pub use error::{BsonError, Result};
pub use oid::{ObjectId, OidGen};
pub use raw::RawDocument;
pub use value::{ElementType, Value};
