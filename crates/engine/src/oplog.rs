//! Logical operations: the unit of WAL frames.
//!
//! Every mutation the engine performs is described by a [`WalOp`], encoded
//! as a BSON document into one WAL frame. The log serves crash recovery
//! and compaction only: MyStore replicates records through NWR quorums,
//! not by shipping its log (DESIGN.md §9), so an op is applied by move
//! once its frame is written and nothing keeps it afterwards.

use mystore_bson::{doc, Document, ObjectId, Value};

use crate::error::{EngineError, Result};

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
    /// The collection this op touches.
    pub fn collection(&self) -> &str {
        match self {
            WalOp::Insert { coll, .. }
            | WalOp::Update { coll, .. }
            | WalOp::Remove { coll, .. }
            | WalOp::CreateIndex { coll, .. } => coll,
        }
    }

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
