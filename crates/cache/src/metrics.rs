//! Cache-tier metric handles.
//!
//! The running cache tier is a set of `CacheNode` processes (the paper's
//! independent cache *servers*, §4), each holding one [`crate::LruCache`];
//! the front end routes a key to its server by hash. These are the counters
//! each server folds into `/_stats`.

use mystore_obs::{Counter, Registry};

/// Observability handles for cache hot paths. Default-constructed handles
/// are standalone; resolve registry-backed ones with
/// [`CacheTierMetrics::from_registry`] to surface them in `/_stats`.
#[derive(Debug, Clone, Default)]
pub struct CacheTierMetrics {
    /// Lookups answered from cache.
    pub hits: Counter,
    /// Lookups that missed.
    pub misses: Counter,
    /// Entries inserted (or refreshed).
    pub inserts: Counter,
    /// Entries invalidated.
    pub invalidations: Counter,
}

impl CacheTierMetrics {
    /// Resolves the standard `cache.*` metric names in `registry`.
    pub fn from_registry(registry: &Registry) -> Self {
        CacheTierMetrics {
            hits: registry.counter("cache.hits"),
            misses: registry.counter("cache.misses"),
            inserts: registry.counter("cache.inserts"),
            invalidations: registry.counter("cache.invalidations"),
        }
    }
}
