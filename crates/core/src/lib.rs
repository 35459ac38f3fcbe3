//! `mystore-core` — the MyStore distributed storage system (the paper's
//! contribution).
//!
//! MyStore layers Dynamo-style availability machinery over a cluster of
//! single-node document stores ([`mystore_engine`]):
//!
//! * **Distribution** — consistent hashing with capacity-proportional
//!   virtual nodes ([`mystore_ring`]), rings rebuilt from gossiped
//!   membership,
//! * **Replication** — NWR quorums ([`config::Nwr`], default `(3,2,1)`)
//!   with last-write-wins merge,
//! * **State transfer** — push-pull gossip with seed nodes
//!   ([`mystore_gossip`]),
//! * **Failure handling** — hinted handoff for short failures, seed-declared
//!   removal plus re-replication for long failures, range migration on node
//!   addition,
//! * **Front end** — REST GET/POST/DELETE with URI-signature auth
//!   ([`auth`]), dispatch to a member of the key's preference list, and a
//!   hash-sharded LRU cache tier ([`mystore_cache`]).
//!
//! Every component is a sans-io [`mystore_net::Process`]; deployments are
//! assembled by [`cluster::ClusterSpec`] on either the deterministic
//! simulator or the threaded runtime.
//!
//! ```
//! use mystore_core::prelude::*;
//! use mystore_net::{NetConfig, SimConfig, SimTime, FaultPlan, NodeId};
//!
//! // Build the paper's Fig. 10 topology on the simulator.
//! let spec = ClusterSpec::paper_topology();
//! let (mut sim, metrics) = spec.build_sim_with_metrics(SimConfig {
//!     net: NetConfig::gigabit_lan(),
//!     faults: FaultPlan::none(),
//!     seed: 1,
//! });
//! sim.start();
//! sim.run_for(spec.warmup_us());
//!
//! // Write through a storage coordinator.
//! let coordinator = spec.storage_ids()[0];
//! sim.inject(sim.now() + 1, coordinator, Msg::Put {
//!     req: 1, key: "Resistor5".into(), value: b"xml scene".to_vec().into(), delete: false,
//! });
//! sim.run_for(1_000_000);
//! // Live totals are in the cluster's metrics registry; the simulator's
//! // trace says which node recorded each event.
//! assert_eq!(metrics.counter("quorum.write.ok").get(), 1);
//! assert!(sim.trace().events().iter().any(|e| e.name == "put_ok" && e.node == coordinator));
//! ```

#![forbid(unsafe_code)]

pub mod auth;
pub mod cache_node;
pub mod cluster;
pub mod config;
pub mod frontend;
pub mod message;
pub mod storage_node;
pub mod sync;
pub mod testing;

pub use auth::{sign, sign_request, AuthConfig, Signature, TokenStore};
pub use cache_node::CacheNode;
pub use cluster::ClusterSpec;
pub use config::{FrontendConfig, Nwr, StorageConfig};
pub use frontend::{Frontend, FrontendMetrics};
pub use message::{status, BatchPut, Method, Msg, RestRequest, RestResponse, StoreError};
pub use storage_node::{StorageMetrics, StorageNode};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::cache_node::CacheNode;
    pub use crate::cluster::ClusterSpec;
    pub use crate::config::{FrontendConfig, Nwr, StorageConfig};
    pub use crate::frontend::Frontend;
    pub use crate::message::{status, Method, Msg, RestRequest, RestResponse, StoreError};
    pub use crate::storage_node::StorageNode;
}
