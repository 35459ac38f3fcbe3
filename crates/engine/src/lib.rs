//! `mystore-engine` — the single-node document store MyStore clusters.
//!
//! The paper layers its availability machinery over MongoDB, which it treats
//! as a per-node black box offering BSON documents, rich queries and
//! secondary indexes. This crate is that black box, implemented from
//! scratch (see DESIGN.md's substitution ledger):
//!
//! * [`Db`] — named collections with WAL durability, crash recovery and
//!   compaction,
//! * [`query::Filter`] / [`query::Update`] — MongoDB-style query and update
//!   documents (`$gt`, `$in`, `$or`, `$set`, `$inc`, ...),
//! * [`index::Index`] — B-tree secondary indexes (multikey, sparse),
//! * [`record::Record`] — the paper's five-field record layout with
//!   last-write-wins versions.
//!
//! MongoDB's own master/slave replication is not here: MyStore replicates
//! records through NWR quorums, and the master/slave baseline of the
//! paper's Fig. 17 is `mystore_baselines::msmongo`. Nor is the paper's
//! §5.1 connection pool: a node owns its [`Db`] in-process, so there is no
//! connection to test.
//!
//! ```
//! use mystore_bson::doc;
//! use mystore_engine::{Db, query::Filter, collection::FindOptions};
//!
//! let mut db = Db::memory();
//! db.create_index("components", "self-key").unwrap();
//! db.insert_doc("components", doc! { "self-key": "Resistor5", "ohms": 470 }).unwrap();
//!
//! let hot = Filter::parse(&doc! { "ohms": doc! { "$gt": 100 } }).unwrap();
//! assert_eq!(db.find("components", &hot, &FindOptions::default()).unwrap().len(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod collection;
pub mod db;
pub mod error;
pub mod index;
pub mod oplog;
pub mod queries;
pub mod query;
pub mod record;
pub mod wal;

pub use collection::{Collection, Explain, FindOptions};
pub use db::{Db, DbStats};
pub use error::{EngineError, Result};
pub use oplog::WalOp;
pub use query::{Agg, Filter, GroupSpec, Update};
pub use record::{cas_version_check, lww_winner, pack_version, unpack_version, Record};
pub use wal::WalMetrics;
