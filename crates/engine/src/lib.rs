//! `mystore-engine` — the single-node document store MyStore clusters.
//!
//! The paper layers its availability machinery over MongoDB, which it treats
//! as a per-node black box storing BSON documents. MyStore reaches that box
//! only through Get/Put by `self-key` (§3.3, §5.1), so this crate is a
//! keyed BSON record store, implemented from scratch (see DESIGN.md's
//! substitution ledger):
//!
//! * [`Db`] — named collections with WAL durability, crash recovery and
//!   compaction,
//! * [`Collection`] — documents by `_id` plus one map from each
//!   document's `self-key` to its ids, kept on every insert, replace and
//!   remove; every record read goes through it. Each document is kept as
//!   the bytes of the WAL frame that logged it ([`wal::Frame`], shared
//!   with the memory log) and read in place through
//!   [`mystore_bson::RawDocument`], so a write encodes its record once,
//!   straight into the frame, and no parsed document tree is kept,
//! * [`record::Record`] — the paper's five-field record layout with
//!   last-write-wins versions.
//!
//! MongoDB's query language and secondary indexes are not here, nor its
//! master/slave replication: MyStore replicates records through NWR
//! quorums, and the master/slave baseline of the paper's Fig. 17 is
//! `mystore_baselines::msmongo`. Nor is
//! the paper's §5.1 connection pool: a node owns its [`Db`] in-process, so
//! there is no connection to test.
//!
//! ```
//! use mystore_bson::ObjectId;
//! use mystore_engine::{pack_version, Db, Record};
//!
//! let mut db = Db::memory();
//! let id = ObjectId::from_parts(1, 1, 1);
//! let r = Record::new(id, "Resistor5", b"470 ohm".to_vec(), pack_version(10, 0));
//! assert!(db.put_record("components", &r).unwrap());
//!
//! // Last write wins: an older version is refused.
//! let stale = Record::new(id, "Resistor5", b"stale".to_vec(), pack_version(5, 0));
//! assert!(!db.put_record("components", &stale).unwrap());
//! assert_eq!(db.get_record("components", "Resistor5").unwrap().unwrap().val, b"470 ohm");
//! ```

#![forbid(unsafe_code)]

pub mod collection;
pub mod db;
pub mod error;
pub mod oplog;
pub mod record;
pub mod wal;

pub use collection::Collection;
pub use db::{Db, DbStats};
pub use error::{EngineError, Result};
pub use oplog::WalOp;
pub use record::{cas_version_check, lww_winner, pack_version, unpack_version, Record};
pub use wal::WalMetrics;
