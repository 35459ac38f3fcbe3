//! The MyStore record layout (paper §3.3).
//!
//! Every stored unit is a five-field BSON document:
//!
//! ```text
//! { "_id":      ObjectId(...),   // UUID-generated private key
//!   "self-key": "Resistor5",     // user key, indexed, used by reads
//!   "val":      BinData(...),    // the unstructured payload
//!   "isData":   "1",             // "1" = primary copy, "0" = replica
//!   "isDel":    "0" }            // "1" = logically deleted (tombstone)
//! ```
//!
//! [`Record`] is a typed view over that document with conversion both ways,
//! so higher layers never hand-assemble field names.

use mystore_bson::{doc, DocWriter, Document, ObjectId, RawDocument, Value};

use crate::error::{EngineError, Result};

/// Field name of the private key.
pub const F_ID: &str = "_id";
/// Field name of the user-assigned key.
pub const F_SELF_KEY: &str = "self-key";
/// Field name of the payload.
pub const F_VAL: &str = "val";
/// Field name of the primary-copy flag.
pub const F_IS_DATA: &str = "isData";
/// Field name of the tombstone flag.
pub const F_IS_DEL: &str = "isDel";
/// Field name of the last-write-wins version stamp (MyStore extension; the
/// paper's "last write wins" merge policy needs a total order on writes).
pub const F_VERSION: &str = "ver";

/// A typed MyStore record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Private key (`_id`).
    pub id: ObjectId,
    /// User key (`self-key`), the read/query handle.
    pub self_key: String,
    /// The unstructured payload (`val`).
    pub val: Vec<u8>,
    /// True when this is the primary copy rather than a replica (`isData`).
    pub is_data: bool,
    /// True when logically deleted (`isDel`).
    pub is_del: bool,
    /// Last-write-wins stamp: `(timestamp µs, writer id)` packed by
    /// [`pack_version`].
    pub version: u64,
}

/// Packs a write timestamp (µs) and a coordinator id into a single
/// totally-ordered LWW stamp. Time dominates; the writer id breaks ties so
/// concurrent writers resolve deterministically everywhere.
pub fn pack_version(timestamp_us: u64, writer: u16) -> u64 {
    (timestamp_us << 16) | writer as u64
}

/// Splits a packed LWW stamp back into `(timestamp_us, writer)`.
pub fn unpack_version(version: u64) -> (u64, u16) {
    (version >> 16, (version & 0xffff) as u16)
}

impl Record {
    /// Creates a live primary record.
    pub fn new(id: ObjectId, self_key: impl Into<String>, val: Vec<u8>, version: u64) -> Self {
        Record { id, self_key: self_key.into(), val, is_data: true, is_del: false, version }
    }

    /// Marks the record as a replica copy (`isData = "0"`).
    pub fn as_replica(mut self) -> Self {
        self.is_data = false;
        self
    }

    /// Creates a tombstone for the key (logical delete keeps the record).
    pub fn tombstone(id: ObjectId, self_key: impl Into<String>, version: u64) -> Self {
        Record {
            id,
            self_key: self_key.into(),
            val: Vec::new(),
            is_data: true,
            is_del: true,
            version,
        }
    }

    /// Serializes into the canonical five-field document (§3.3), plus the
    /// `ver` LWW stamp.
    pub fn to_document(&self) -> Document {
        doc! {
            F_ID: Value::ObjectId(self.id),
            F_SELF_KEY: self.self_key.as_str(),
            F_VAL: Value::Binary(self.val.clone()),
            F_IS_DATA: if self.is_data { "1" } else { "0" },
            F_IS_DEL: if self.is_del { "1" } else { "0" },
            F_VERSION: Value::Timestamp(self.version),
        }
    }

    /// Writes the fields of [`Record::to_document`], byte for byte, into
    /// `w`, with `id` as the `_id` (an overwrite keeps the incumbent's).
    pub(crate) fn write_fields(&self, w: &mut DocWriter<'_>, id: ObjectId) {
        w.object_id(F_ID, id);
        w.str(F_SELF_KEY, &self.self_key);
        w.binary(F_VAL, &self.val);
        w.str(F_IS_DATA, if self.is_data { "1" } else { "0" });
        w.str(F_IS_DEL, if self.is_del { "1" } else { "0" });
        w.timestamp(F_VERSION, self.version);
    }

    /// `to_document().encoded_size()`, by arithmetic: the bytes the
    /// record's document takes, without building it.
    pub fn encoded_len(&self) -> usize {
        // Each field is a type byte, its name, a NUL, then the value; a
        // string value is a length, the bytes and a NUL, and a binary one
        // a length, a subtype and the bytes.
        let field = |name: &str, value: usize| 2 + name.len() + value;
        5 + field(F_ID, 12)
            + field(F_SELF_KEY, 5 + self.self_key.len())
            + field(F_VAL, 5 + self.val.len())
            + field(F_IS_DATA, 6)
            + field(F_IS_DEL, 6)
            + field(F_VERSION, 8)
    }

    /// Parses a record document; rejects documents missing mandatory fields.
    pub fn from_document(doc: &Document) -> Result<Self> {
        let id = doc.get_object_id(F_ID).ok_or_else(|| missing_field(F_ID))?;
        let self_key = doc.get_str(F_SELF_KEY).ok_or_else(|| missing_field(F_SELF_KEY))?;
        let version = match doc.get(F_VERSION) {
            Some(Value::Timestamp(v)) => *v,
            _ => 0,
        };
        let val = doc.get_binary(F_VAL).unwrap_or(&[]).to_vec();
        let is_data = doc.get_str(F_IS_DATA) == Some("1");
        let is_del = doc.get_str(F_IS_DEL) == Some("1");
        Ok(Record { id, self_key: self_key.to_string(), val, is_data, is_del, version })
    }

    /// [`Record::from_document`] over an encoded document, read in place:
    /// the payload is the one copy it makes.
    pub fn from_raw(doc: &RawDocument<'_>) -> Result<Self> {
        let (id, version) = Self::stored_stamp(doc)?;
        let (self_key, _, is_del) =
            Self::sync_state(doc).ok_or_else(|| missing_field(F_SELF_KEY))?;
        let val = doc.get_binary(F_VAL).unwrap_or(&[]).to_vec();
        let is_data = doc.get_str(F_IS_DATA) == Some("1");
        Ok(Record { id, self_key: self_key.to_string(), val, is_data, is_del, version })
    }

    /// The `_id` and LWW version of a record document, read in place —
    /// all an overwrite's LWW check needs of the incumbent. Rejects what
    /// [`Record::from_raw`] rejects.
    pub(crate) fn stored_stamp(doc: &RawDocument<'_>) -> Result<(ObjectId, u64)> {
        let id = doc.get_object_id(F_ID).ok_or_else(|| missing_field(F_ID))?;
        let (_, version, _) = Self::sync_state(doc).ok_or_else(|| missing_field(F_SELF_KEY))?;
        Ok((id, version))
    }

    /// The `(self-key, version, is_del)` of a record document — all that
    /// anti-entropy hashes and digests — read in place, without the copy
    /// of `val` that [`Record::from_raw`] makes. `None` when the document
    /// has no `self-key`.
    pub fn sync_state<'a>(doc: &RawDocument<'a>) -> Option<(&'a str, u64, bool)> {
        let version = doc.get_timestamp(F_VERSION).unwrap_or(0);
        Some((doc.get_str(F_SELF_KEY)?, version, doc.get_str(F_IS_DEL) == Some("1")))
    }

    /// Payload size in bytes.
    pub fn val_len(&self) -> usize {
        self.val.len()
    }

    /// LWW comparison: `self` should replace `other` iff it is strictly
    /// newer.
    pub fn wins_over(&self, other: &Record) -> bool {
        self.wins_over_version(other.version)
    }

    /// LWW comparison against a bare version stamp (anti-entropy digests
    /// carry versions without the full record).
    pub fn wins_over_version(&self, other_version: u64) -> bool {
        self.version > other_version
    }

    /// The inverse digest comparison: true when a peer's bare version stamp
    /// would replace this record under LWW.
    pub fn loses_to_version(&self, other_version: u64) -> bool {
        other_version > self.version
    }
}

fn missing_field(field: &str) -> EngineError {
    EngineError::Corrupt { detail: format!("record missing {field}") }
}

/// Reduces replica read responses to the LWW winner. Ties keep the first
/// reply seen (deterministic: reply order is deterministic in the sim), which
/// is the PR-1 tie-break rule — every read-path comparison must route through
/// here or [`Record::wins_over`] so the rule cannot drift across copies.
pub fn lww_winner<'a, I>(records: I) -> Option<&'a Record>
where
    I: IntoIterator<Item = &'a Record>,
{
    records.into_iter().reduce(|best, r| if r.wins_over(best) { r } else { best })
}

/// The conditional-put (CAS) predicate: `expected == 0` asserts the key is
/// absent (never written or tombstoned); any other value asserts the current
/// *live* record carries exactly that LWW version. Returns the actual version
/// on mismatch so callers can surface it in the conflict response.
pub fn cas_version_check(current: Option<&Record>, expected: u64) -> std::result::Result<(), u64> {
    let actual = current.filter(|r| !r.is_del).map(|r| r.version).unwrap_or(0);
    if actual == expected {
        Ok(())
    } else {
        Err(actual)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        Record::new(
            ObjectId::from_parts(1, 2, 3),
            "Resistor5",
            b"payload".to_vec(),
            pack_version(100, 7),
        )
    }

    #[test]
    fn document_roundtrip() {
        let r = sample();
        let doc = r.to_document();
        assert_eq!(doc.get_str(F_IS_DATA), Some("1"));
        assert_eq!(doc.get_str(F_IS_DEL), Some("0"));
        assert_eq!(Record::from_document(&doc).unwrap(), r);
    }

    #[test]
    fn raw_reads_match_the_document_reads() {
        for r in [sample(), sample().as_replica(), Record::tombstone(ObjectId::new(), "", 0)] {
            let bytes = r.to_document().to_bytes();
            let raw = RawDocument::new(&bytes).unwrap();
            assert_eq!(Record::from_raw(&raw).unwrap(), r);
            assert_eq!(Record::sync_state(&raw), Some((r.self_key.as_str(), r.version, r.is_del)));
            assert_eq!(r.encoded_len(), bytes.len());
            let mut written = Vec::new();
            let mut w = DocWriter::new(&mut written);
            r.write_fields(&mut w, r.id);
            w.finish();
            assert_eq!(written, bytes, "the in-place writer emits to_document's bytes");
        }
    }

    #[test]
    fn replica_flag_flips_is_data() {
        let doc = sample().as_replica().to_document();
        assert_eq!(doc.get_str(F_IS_DATA), Some("0"));
    }

    #[test]
    fn tombstone_has_empty_payload_and_del_flag() {
        let t = Record::tombstone(ObjectId::from_parts(1, 1, 1), "k", 5);
        assert!(t.is_del);
        assert!(t.val.is_empty());
        let doc = t.to_document();
        assert_eq!(doc.get_str(F_IS_DEL), Some("1"));
    }

    #[test]
    fn version_packing_orders_by_time_then_writer() {
        let a = pack_version(100, 2);
        let b = pack_version(100, 3);
        let c = pack_version(101, 0);
        assert!(a < b && b < c);
        assert_eq!(unpack_version(b), (100, 3));
        assert_eq!(unpack_version(c), (101, 0));
    }

    #[test]
    fn lww_wins_over() {
        let old = Record::new(ObjectId::from_parts(1, 1, 1), "k", vec![1], pack_version(10, 0));
        let new = Record::new(ObjectId::from_parts(1, 1, 2), "k", vec![2], pack_version(11, 0));
        assert!(new.wins_over(&old));
        assert!(!old.wins_over(&new));
        assert!(!old.wins_over(&old));
    }

    #[test]
    fn lww_winner_picks_newest_and_keeps_first_on_tie() {
        let a = Record::new(ObjectId::from_parts(1, 1, 1), "k", vec![1], pack_version(10, 0));
        let b = Record::new(ObjectId::from_parts(1, 1, 2), "k", vec![2], pack_version(12, 0));
        let tie = Record::new(ObjectId::from_parts(1, 1, 3), "k", vec![3], pack_version(12, 0));
        assert!(lww_winner(std::iter::empty()).is_none());
        assert_eq!(lww_winner([&a, &b, &tie]).unwrap().val, vec![2]);
        assert_eq!(lww_winner([&tie, &b, &a]).unwrap().val, vec![3]);
        assert!(a.loses_to_version(b.version));
        assert!(!b.loses_to_version(a.version));
    }

    #[test]
    fn cas_version_check_semantics() {
        let live = Record::new(ObjectId::from_parts(1, 1, 1), "k", vec![1], pack_version(10, 2));
        let dead = Record::tombstone(ObjectId::from_parts(1, 1, 2), "k", pack_version(11, 2));
        // Absent key: only expected == 0 matches.
        assert_eq!(cas_version_check(None, 0), Ok(()));
        assert_eq!(cas_version_check(None, 7), Err(0));
        // Live record: exact version required.
        assert_eq!(cas_version_check(Some(&live), live.version), Ok(()));
        assert_eq!(cas_version_check(Some(&live), 0), Err(live.version));
        assert_eq!(cas_version_check(Some(&live), 12345), Err(live.version));
        // Tombstone counts as absent.
        assert_eq!(cas_version_check(Some(&dead), 0), Ok(()));
        assert_eq!(cas_version_check(Some(&dead), dead.version), Err(0));
    }

    #[test]
    fn from_document_rejects_missing_fields() {
        let doc = doc! { "self-key": "x" };
        assert!(Record::from_document(&doc).is_err());
        let doc = doc! { "_id": Value::ObjectId(ObjectId::from_parts(0,0,0)) };
        assert!(Record::from_document(&doc).is_err());
    }
}
