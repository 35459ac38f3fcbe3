//! A cache server process (paper §4's "independent memory cache system
//! consisting of several cache servers").

use mystore_cache::{CacheStats, CacheTierMetrics, LruCache};
use mystore_net::{Context, NodeId, Process, TimerToken};
use mystore_obs::Registry;

use crate::config::COST;
use crate::message::Msg;

/// One cache server: an LRU over its partition of the key space (the front
/// end routes keys to servers by hash, so each server only ever sees its
/// own partition).
pub struct CacheNode {
    lru: LruCache,
    metrics: CacheTierMetrics,
}

impl CacheNode {
    /// Creates a cache server with `capacity_bytes` of memory (the paper
    /// gives each cache server 1 GB).
    pub fn new(capacity_bytes: usize) -> Self {
        CacheNode { lru: LruCache::new(capacity_bytes), metrics: CacheTierMetrics::default() }
    }

    /// As [`CacheNode::new`], publishing `cache.*` metrics into `registry`.
    pub fn with_metrics(capacity_bytes: usize, registry: &Registry) -> Self {
        let mut node = CacheNode::new(capacity_bytes);
        node.metrics = CacheTierMetrics::from_registry(registry);
        node
    }

    /// Cache statistics.
    pub fn stats(&self) -> CacheStats {
        self.lru.stats()
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }
}

impl Process<Msg> for CacheNode {
    fn on_start(&mut self, _ctx: &mut Context<'_, Msg>) {}

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::CacheGet { req, key } => {
                // A hit shares the cached allocation with the response — the
                // payload is never copied on the cache path.
                let value = self.lru.get(&key);
                ctx.consume(COST.cache_us(value.as_ref().map(|v| v.len()).unwrap_or(0)));
                if value.is_some() {
                    self.metrics.hits.inc();
                } else {
                    self.metrics.misses.inc();
                }
                ctx.record(if value.is_some() { "cache_hit" } else { "cache_miss" }, 1.0);
                ctx.send(from, Msg::CacheGetResp { req, value });
            }
            Msg::CachePut { key, value } => {
                ctx.consume(COST.cache_us(value.len()));
                self.metrics.inserts.inc();
                self.lru.put(&key, value);
            }
            Msg::CacheDel { key } => {
                ctx.consume(COST.cache_us(0));
                self.metrics.invalidations.inc();
                self.lru.remove(&key);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _ctx: &mut Context<'_, Msg>, _token: TimerToken) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use mystore_net::{NetConfig, NodeConfig, Sim, SimConfig, SimTime};

    #[test]
    fn cache_node_serves_hits_and_misses() {
        let mut sim: Sim<Msg> =
            Sim::new(SimConfig { net: NetConfig::instant(), faults: Default::default(), seed: 1 });
        let cache = sim.add_node(CacheNode::new(1 << 20), NodeConfig::default());
        sim.start();
        sim.inject(
            SimTime(1),
            cache,
            Msg::CachePut { key: "k".into(), value: std::sync::Arc::new(vec![7; 10]) },
        );
        sim.inject(SimTime(2), cache, Msg::CacheGet { req: 1, key: "k".into() });
        sim.inject(SimTime(3), cache, Msg::CacheGet { req: 2, key: "missing".into() });
        sim.inject(SimTime(4), cache, Msg::CacheDel { key: "k".into() });
        sim.inject(SimTime(5), cache, Msg::CacheGet { req: 3, key: "k".into() });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.trace().count("cache_hit"), 1);
        assert_eq!(sim.trace().count("cache_miss"), 2);
        let node = sim.process::<CacheNode>(cache).unwrap();
        assert!(node.is_empty());
    }
}
