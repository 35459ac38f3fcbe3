//! Engine error types.

use std::fmt;

use mystore_bson::BsonError;

/// Convenience alias for engine results.
pub type Result<T> = std::result::Result<T, EngineError>;

/// Errors surfaced by the document-store engine.
#[derive(Debug)]
pub enum EngineError {
    /// Underlying file I/O failed (or was injected as failed — the paper's
    /// *disk IO error* fault).
    Io(std::io::Error),
    /// A log frame failed validation during recovery, or a stored document
    /// is not a well-formed record.
    Corrupt {
        /// Human-readable description of what failed.
        detail: String,
    },
    /// BSON decoding failed.
    Bson(BsonError),
    /// Attempt to insert a document whose `_id` already exists.
    DuplicateId(String),
    /// The referenced collection does not exist.
    NoSuchCollection(String),
    /// The document addressed by id does not exist.
    NotFound,
    /// A WAL payload longer than a frame header's `u32` length can say.
    FrameTooLarge(usize),
    /// An index was requested on a field other than `self-key`, the one
    /// field the engine indexes.
    UnindexedField(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Io(e) => write!(f, "i/o error: {e}"),
            EngineError::Corrupt { detail } => write!(f, "corrupt log or document: {detail}"),
            EngineError::Bson(e) => write!(f, "bson error: {e}"),
            EngineError::DuplicateId(id) => write!(f, "duplicate _id: {id}"),
            EngineError::NoSuchCollection(name) => write!(f, "no such collection: {name}"),
            EngineError::NotFound => write!(f, "document not found"),
            EngineError::FrameTooLarge(len) => {
                write!(f, "a {len}-byte payload does not fit one WAL frame")
            }
            EngineError::UnindexedField(field) => {
                write!(f, "only self-key is indexed, not {field}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Io(e) => Some(e),
            EngineError::Bson(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Io(e)
    }
}

impl From<BsonError> for EngineError {
    fn from(e: BsonError) -> Self {
        EngineError::Bson(e)
    }
}
