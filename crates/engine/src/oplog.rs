//! Logical operations: the unit of WAL frames.
//!
//! Every mutation the engine performs is described by a [`WalOp`], encoded
//! as a BSON document into one WAL frame. The log serves crash recovery
//! and compaction only: MyStore replicates records through NWR quorums,
//! not by shipping its log (DESIGN.md §9).
//!
//! [`WalOp`] is the op as a value, and the reference encoding tests hold
//! the engine to. The engine's own write path does not build one:
//! `put_frame` and `remove_frame` write the same bytes straight into a
//! frame buffer, and recovery reads frames in place with `parse_frame`, so
//! a stored document stays the bytes its frame logged.

use std::ops::Range;

use mystore_bson::{doc, DocWriter, Document, ObjectId, RawDocument, Value};

use crate::error::{EngineError, Result};
use crate::wal::{frame_buf, FRAME_HEADER};

/// Op-document bytes around a put's `d` document: length and terminator,
/// `o` (`"i"`/`"u"`), `c` less its name, and the `d` element head.
const PUT_OVERHEAD: usize = 4 + 1 + (1 + 2 + 6) + (1 + 2 + 5) + (1 + 2);
/// The `id` element an update adds.
const ID_FIELD: usize = 1 + 3 + 12;

/// Starts op `code` on `coll` (and `id`) in a frame buffer: the fields
/// every op leads with, in [`WalOp::encode`]'s order.
fn op_writer<'a>(
    buf: &'a mut Vec<u8>,
    code: &str,
    coll: &str,
    id: Option<ObjectId>,
) -> DocWriter<'a> {
    let mut op = DocWriter::new(buf);
    op.str("o", code);
    op.str("c", coll);
    if let Some(id) = id {
        op.object_id("id", id);
    }
    op
}

/// Writes the frame of a put into `coll` — an update (`"u"`) of `update`,
/// or an insert (`"i"`) when that is `None` — whose `d` document `body`
/// writes in `doc_len` bytes. The bytes are [`WalOp::encode_bytes`]'s for
/// the same op. Returns the unsealed frame and where `d` sits in it.
pub(crate) fn put_frame(
    coll: &str,
    update: Option<ObjectId>,
    doc_len: usize,
    body: impl FnOnce(&mut DocWriter<'_>),
) -> (Vec<u8>, Range<usize>) {
    frame_with_doc(coll, update, doc_len, |op| {
        let mut d = op.document("d");
        body(&mut d);
        d.finish()
    })
}

/// Writes the frame that re-logs a stored document with `id` (compaction):
/// an insert, as [`WalOp::Insert`] logs it, when the document carries that
/// `_id`, else an update of `id`, so recovery files it where it was.
pub(crate) fn restore_frame(
    coll: &str,
    id: ObjectId,
    doc: RawDocument<'_>,
) -> (Vec<u8>, Range<usize>) {
    let update = (doc.get_object_id("_id") != Some(id)).then_some(id);
    frame_with_doc(coll, update, doc.as_bytes().len(), |op| op.raw_document("d", doc))
}

/// A put's frame, whose `d` element `write_d` appends and places.
fn frame_with_doc(
    coll: &str,
    update: Option<ObjectId>,
    doc_len: usize,
    write_d: impl FnOnce(&mut DocWriter<'_>) -> Range<usize>,
) -> (Vec<u8>, Range<usize>) {
    let id_len = if update.is_some() { ID_FIELD } else { 0 };
    let mut buf = frame_buf(PUT_OVERHEAD + coll.len() + id_len + doc_len);
    let mut op = op_writer(&mut buf, if update.is_some() { "u" } else { "i" }, coll, update);
    let doc = write_d(&mut op);
    op.finish();
    (buf, doc)
}

/// Writes the frame of a remove (`"r"`) of `id` from `coll`, unsealed.
pub(crate) fn remove_frame(coll: &str, id: ObjectId) -> Vec<u8> {
    let mut buf = frame_buf(PUT_OVERHEAD + coll.len() + ID_FIELD);
    op_writer(&mut buf, "r", coll, Some(id)).finish();
    buf
}

/// What one logged frame does, read in place.
pub(crate) enum FrameOp<'a> {
    /// Store the document at `doc` in the frame under `id`; `insert`
    /// refuses an id already present.
    Put { coll: &'a str, id: ObjectId, doc: Range<usize>, insert: bool },
    /// Remove the document with `id`.
    Remove { coll: &'a str, id: ObjectId },
    /// A legacy `CreateIndex`: nothing to do.
    Nothing,
}

/// Reads the op in a sealed frame, checking its payload is one
/// well-formed op document. Rejects what [`WalOp::decode_bytes`] rejects,
/// and an insert whose document has no `_id` (every insert the engine logs
/// has one).
pub(crate) fn parse_frame(frame: &[u8]) -> Result<FrameOp<'_>> {
    let op = RawDocument::new(frame.get(FRAME_HEADER..).unwrap_or_default())?;
    let code = op.get_str("o").ok_or_else(|| missing("o"))?;
    let coll = op.get_str("c").ok_or_else(|| missing("c"))?;
    let id = || op.get_object_id("id").ok_or_else(|| missing("id"));
    let body = || {
        let at = op.document_range("d").ok_or_else(|| missing("d"))?;
        Ok::<_, EngineError>((FRAME_HEADER + at.start)..(FRAME_HEADER + at.end))
    };
    Ok(match code {
        "i" => {
            let doc = body()?;
            let d = op.get_document("d").ok_or_else(|| missing("d"))?;
            let id = d.get_object_id("_id").ok_or_else(|| missing("d._id"))?;
            FrameOp::Put { coll, id, doc, insert: true }
        }
        "u" => FrameOp::Put { coll, id: id()?, doc: body()?, insert: false },
        "r" => FrameOp::Remove { coll, id: id()? },
        "x" => {
            op.get_str("f").ok_or_else(|| missing("f"))?;
            FrameOp::Nothing
        }
        other => return Err(EngineError::Corrupt { detail: format!("unknown op code {other:?}") }),
    })
}

fn missing(field: &str) -> EngineError {
    EngineError::Corrupt { detail: format!("op missing '{field}'") }
}

/// A logical engine operation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// Insert a complete document.
    Insert {
        /// Collection name.
        coll: String,
        /// The full document (with `_id`).
        doc: Document,
    },
    /// Replace a document with its after-image.
    Update {
        /// Collection name.
        coll: String,
        /// Primary key.
        id: ObjectId,
        /// The complete new document.
        doc: Document,
    },
    /// Physically remove a document.
    Remove {
        /// Collection name.
        coll: String,
        /// Primary key.
        id: ObjectId,
    },
    /// Create an index on `field`. Nothing writes this op any more — every
    /// collection keeps its `self-key` map by itself — but logs written
    /// before that still carry it, so it decodes and replays as a no-op.
    CreateIndex {
        /// Collection name.
        coll: String,
        /// Indexed field path.
        field: String,
    },
}

impl WalOp {
    /// Encodes to a BSON document (`o`: op code, `c`: collection, ...).
    pub fn encode(&self) -> Document {
        match self {
            WalOp::Insert { coll, doc } => doc! {
                "o": "i", "c": coll.as_str(), "d": doc.clone(),
            },
            WalOp::Update { coll, id, doc } => doc! {
                "o": "u", "c": coll.as_str(), "id": Value::ObjectId(*id), "d": doc.clone(),
            },
            WalOp::Remove { coll, id } => doc! {
                "o": "r", "c": coll.as_str(), "id": Value::ObjectId(*id),
            },
            WalOp::CreateIndex { coll, field } => doc! {
                "o": "x", "c": coll.as_str(), "f": field.as_str(),
            },
        }
    }

    /// Encodes straight to bytes (one WAL frame payload).
    pub fn encode_bytes(&self) -> Vec<u8> {
        self.encode().to_bytes()
    }

    /// Decodes from a BSON document.
    pub fn decode(doc: &Document) -> Result<WalOp> {
        let op = doc
            .get_str("o")
            .ok_or_else(|| EngineError::Corrupt { detail: "op missing 'o'".into() })?;
        let coll = doc
            .get_str("c")
            .ok_or_else(|| EngineError::Corrupt { detail: "op missing 'c'".into() })?
            .to_string();
        let body = || {
            doc.get_document("d")
                .cloned()
                .ok_or_else(|| EngineError::Corrupt { detail: "op missing 'd'".into() })
        };
        let id = || {
            doc.get_object_id("id")
                .ok_or_else(|| EngineError::Corrupt { detail: "op missing 'id'".into() })
        };
        Ok(match op {
            "i" => WalOp::Insert { coll, doc: body()? },
            "u" => WalOp::Update { coll, id: id()?, doc: body()? },
            "r" => WalOp::Remove { coll, id: id()? },
            "x" => WalOp::CreateIndex {
                coll,
                field: doc
                    .get_str("f")
                    .ok_or_else(|| EngineError::Corrupt { detail: "op missing 'f'".into() })?
                    .to_string(),
            },
            other => {
                return Err(EngineError::Corrupt { detail: format!("unknown op code {other:?}") })
            }
        })
    }

    /// Decodes from WAL frame bytes.
    pub fn decode_bytes(bytes: &[u8]) -> Result<WalOp> {
        Self::decode(&Document::from_bytes(bytes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<WalOp> {
        let id = ObjectId::from_parts(7, 8, 9);
        vec![
            WalOp::Insert { coll: "data".into(), doc: doc! { "_id": Value::ObjectId(id), "x": 1 } },
            WalOp::Update {
                coll: "data".into(),
                id,
                doc: doc! { "_id": Value::ObjectId(id), "x": 2 },
            },
            WalOp::Remove { coll: "data".into(), id },
            WalOp::CreateIndex { coll: "data".into(), field: "self-key".into() },
        ]
    }

    #[test]
    fn encode_decode_roundtrip() {
        for op in sample_ops() {
            let bytes = op.encode_bytes();
            assert_eq!(WalOp::decode_bytes(&bytes).unwrap(), op);
        }
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(WalOp::decode(&doc! { "c": "x" }).is_err());
        assert!(WalOp::decode(&doc! { "o": "i", "c": "x" }).is_err());
        assert!(WalOp::decode(&doc! { "o": "zz", "c": "x" }).is_err());
        assert!(WalOp::decode(&doc! { "o": "u", "c": "x", "d": doc!{} }).is_err());
        assert!(WalOp::decode(&doc! { "o": "x", "c": "x" }).is_err());
    }
}
