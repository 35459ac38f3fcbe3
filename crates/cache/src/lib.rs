//! The MyStore cache module (paper §4).
//!
//! An independent in-memory cache tier sitting between the REST front end
//! and the storage module: items read, inserted or updated recently are
//! cached; GETs try the cache first and fall back to the database, inserting
//! the returned value; DELETEs invalidate. The tier is a set of cache
//! server processes (`mystore_core::CacheNode`), selected by key hash in
//! the front end; each server ages out entries with the byte-bounded
//! [`LruCache`] this crate provides.

#![forbid(unsafe_code)]

pub mod lru;
pub mod metrics;

pub use lru::{CacheStats, LruCache};
pub use metrics::CacheTierMetrics;
