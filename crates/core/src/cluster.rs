//! Cluster assembly: builds complete MyStore deployments on a runtime.
//!
//! [`ClusterSpec`] describes a deployment (how many storage nodes, cache
//! servers and front ends, NWR, gossip cadence, node concurrency);
//! [`ClusterSpec::build_sim`] instantiates it on the deterministic
//! simulator. [`ClusterSpec::paper_topology`] reproduces Fig. 10: one
//! application (front-end) node, one seed DB node plus four normal DB
//! nodes, and four cache servers.

use mystore_gossip::GossipConfig;
use mystore_net::{NodeConfig, NodeId, Sim, SimConfig};
use mystore_obs::Registry;

use crate::cache_node::CacheNode;
use crate::config::{FrontendConfig, StorageConfig, COST};
use crate::frontend::Frontend;
use crate::message::Msg;
use crate::storage_node::StorageNode;

/// Description of a MyStore deployment: the topology, plus the
/// [`StorageConfig`] every storage node is built from.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Number of storage (DB) nodes.
    pub storage_nodes: usize,
    /// How many of the first storage nodes are gossip seeds.
    pub seed_count: usize,
    /// Per-node capacity weights, indexed like [`ClusterSpec::storage_ids`];
    /// nodes beyond the vector's length get weight 1. A weight-`w` node
    /// contributes `w × storage.vnodes` virtual nodes. Empty = homogeneous.
    pub weights: Vec<u32>,
    /// Number of cache servers (0 disables the cache tier).
    pub cache_nodes: usize,
    /// Bytes of memory per cache server.
    pub cache_bytes: usize,
    /// Number of front-end nodes.
    pub frontends: usize,
    /// Concurrent workers per front end (the logical-process pool).
    pub frontend_concurrency: usize,
    /// Maximum in-flight requests per front end before load shedding.
    pub frontend_max_inflight: usize,
    /// Fixed CPU per request at each front end (µs, [`FrontendConfig::cpu_us`]).
    pub frontend_cpu_us: u64,
    /// Concurrent workers per storage node (cores serving requests).
    pub storage_concurrency: usize,
    /// Template for every storage node's configuration (quorum, timeouts,
    /// gossip cadence, ...). [`ClusterSpec::storage_config`] fills in the
    /// gossip seeds; the builders fill in each node's weight and the shared
    /// metrics registry. Its request deadline also sets the front ends'
    /// (five times as long).
    pub storage: StorageConfig,
}

impl ClusterSpec {
    /// The paper's test topology (Fig. 10): 5 DB nodes (first one the
    /// seed), 4 cache servers (1 GB each, §6.1), 1 application node, and
    /// the deployed `(N, W, R) = (3, 2, 1)` (§6.2).
    pub fn paper_topology() -> Self {
        ClusterSpec {
            storage_nodes: 5,
            seed_count: 1,
            weights: Vec::new(),
            cache_nodes: 4,
            cache_bytes: 1 << 30,
            frontends: 1,
            frontend_concurrency: 64,
            frontend_max_inflight: 1024,
            frontend_cpu_us: COST.frontend_base_us,
            storage_concurrency: 8, // two quad-core Xeons per node (§6.1)
            storage: StorageConfig {
                gossip: GossipConfig {
                    interval_us: 500_000,
                    fail_after_us: 2_500_000,
                    remove_after_us: 20_000_000,
                    ..GossipConfig::default()
                },
                ..StorageConfig::default()
            },
        }
    }

    /// A small fast-converging cluster for tests.
    pub fn small(storage_nodes: usize) -> Self {
        let mut spec = ClusterSpec {
            storage_nodes,
            seed_count: 1,
            cache_nodes: 0,
            frontends: 0,
            ..Self::paper_topology()
        };
        spec.storage.vnodes = 32;
        spec
    }

    /// Storage-node ids under the standard layout (`0..S`).
    pub fn storage_ids(&self) -> Vec<NodeId> {
        (0..self.storage_nodes as u32).map(NodeId).collect()
    }

    /// Cache-node ids (`S..S+C`).
    pub fn cache_ids(&self) -> Vec<NodeId> {
        let s = self.storage_nodes as u32;
        (s..s + self.cache_nodes as u32).map(NodeId).collect()
    }

    /// Front-end ids (`S+C..S+C+F`).
    pub fn frontend_ids(&self) -> Vec<NodeId> {
        let base = (self.storage_nodes + self.cache_nodes) as u32;
        (base..base + self.frontends as u32).map(NodeId).collect()
    }

    /// Ids of client slots added *after* the cluster nodes; callers adding
    /// client processes get ids from here upward.
    pub fn first_client_id(&self) -> u32 {
        (self.storage_nodes + self.cache_nodes + self.frontends) as u32
    }

    /// The storage configuration for node construction: the template with
    /// the first `seed_count` storage nodes as gossip seeds and a private
    /// metrics registry (a `Registry` clone is a shared handle, so handing
    /// out the template's would silently merge every node's counters).
    pub fn storage_config(&self) -> StorageConfig {
        let mut cfg = self.storage.clone();
        cfg.gossip.seeds =
            (0..self.seed_count.min(self.storage_nodes) as u32).map(NodeId).collect();
        cfg.metrics = Registry::new();
        cfg
    }

    /// The front-end configuration.
    pub fn frontend_config(&self) -> FrontendConfig {
        FrontendConfig {
            storage_nodes: self.storage_ids(),
            vnodes: self.storage.vnodes,
            replicas: self.storage.nwr.n,
            // The front end is a node of its own and hosts no replica.
            local_nodes: Vec::new(),
            cache_nodes: self.cache_ids(),
            max_inflight: self.frontend_max_inflight,
            cpu_us: self.frontend_cpu_us,
            request_deadline_us: self.storage.request_deadline_us * 5,
            auth: None,
            metrics: Registry::new(),
        }
    }

    /// Instantiates the deployment on a fresh simulator. Node ids follow
    /// the standard layout (storage, then cache, then front ends); client
    /// processes can be added afterwards, before `sim.start()`.
    pub fn build_sim(&self, sim_config: SimConfig) -> Sim<Msg> {
        self.build_sim_with_metrics(sim_config).0
    }

    /// As [`ClusterSpec::build_sim`], also returning the cluster-wide
    /// metrics [`Registry`]: every node publishes into the same registry,
    /// so one snapshot (or one `GET /_stats` through a front end) covers
    /// the whole deployment.
    pub fn build_sim_with_metrics(&self, sim_config: SimConfig) -> (Sim<Msg>, Registry) {
        let registry = Registry::new();
        let mut sim = Sim::new(sim_config);
        sim.set_fault_metrics(mystore_net::FaultMetrics::from_registry(&registry));
        for i in 0..self.storage_nodes {
            let id = NodeId(sim.node_count() as u32);
            let mut cfg = self.storage_config();
            cfg.weight = self.weights.get(i).copied().unwrap_or(1).max(1);
            cfg.metrics = registry.clone();
            let node = StorageNode::new(id, cfg);
            sim.add_node(node, NodeConfig { concurrency: self.storage_concurrency });
        }
        for _ in 0..self.cache_nodes {
            sim.add_node(
                CacheNode::with_metrics(self.cache_bytes, &registry),
                NodeConfig { concurrency: 4 },
            );
        }
        for _ in 0..self.frontends {
            let mut cfg = self.frontend_config();
            cfg.metrics = registry.clone();
            sim.add_node(Frontend::new(cfg), NodeConfig { concurrency: self.frontend_concurrency });
        }
        (sim, registry)
    }

    /// How long to run the fresh cluster before offering load, so gossip
    /// discovers every member and the rings agree.
    pub fn warmup_us(&self) -> u64 {
        // A few gossip rounds; convergence is O(log n) rounds.
        self.storage.gossip.interval_us * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mystore_net::{FaultPlan, NetConfig};

    fn sim_config(seed: u64) -> SimConfig {
        SimConfig { net: NetConfig::gigabit_lan(), faults: FaultPlan::none(), seed }
    }

    #[test]
    fn id_layout_is_contiguous() {
        let spec = ClusterSpec::paper_topology();
        assert_eq!(spec.storage_ids(), (0..5).map(NodeId).collect::<Vec<_>>());
        assert_eq!(spec.cache_ids(), (5..9).map(NodeId).collect::<Vec<_>>());
        assert_eq!(spec.frontend_ids(), vec![NodeId(9)]);
        assert_eq!(spec.first_client_id(), 10);
    }

    #[test]
    fn rings_converge_after_warmup() {
        let spec = ClusterSpec::small(5);
        let mut sim = spec.build_sim(sim_config(42));
        sim.start();
        sim.run_for(spec.warmup_us());
        // Every storage node should see all five members on its ring.
        for id in spec.storage_ids() {
            let node = sim.process::<crate::storage_node::StorageNode>(id).unwrap();
            assert_eq!(node.ring().len(), 5, "node {id} ring incomplete");
        }
        // And the rings must agree on placement.
        let key = b"agreement-check";
        let mut prefs = Vec::new();
        for id in spec.storage_ids() {
            let node = sim.process::<crate::storage_node::StorageNode>(id).unwrap();
            prefs.push(node.ring().preference_list(key, 3));
        }
        for w in prefs.windows(2) {
            assert_eq!(w[0], w[1], "nodes disagree on placement");
        }
    }
}
