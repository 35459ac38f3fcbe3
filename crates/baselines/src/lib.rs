//! Evaluation baselines for the MyStore paper.
//!
//! The paper compares MyStore against three alternatives, all reimplemented
//! here behind the same interfaces:
//!
//! * [`fsstore`] — unstructured data in an ext3-like local file system with
//!   an in-memory index table (Figs. 11–12),
//! * [`relstore`] — a master-slave MySQL-like relational store holding
//!   blobs as BLOB rows (Figs. 11–12),
//! * [`msmongo`] — MongoDB's native master/slave replication over three
//!   engine nodes, with no quorums and no failover (Fig. 17).

#![forbid(unsafe_code)]

pub mod fsstore;
pub mod msmongo;
pub mod relstore;

pub use fsstore::{FsStoreNode, LocalFileStore};
pub use msmongo::{add_msmongo_trio, MsMongoNode, MsRole};
pub use relstore::{RelRole, RelStoreNode};
