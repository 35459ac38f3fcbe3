//! Cluster configuration: NWR parameters, timeouts, and the node cost model.

use mystore_gossip::GossipConfig;
use mystore_net::NodeId;
use mystore_obs::Registry;

/// The NWR replication parameters (paper §2, §5.2.2).
///
/// `N` replicas per record; a write succeeds at `W` acknowledgements; a read
/// succeeds at `R` replies. The paper's deployed configuration is
/// `(3, 2, 1)` (§6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Nwr {
    /// Replication factor.
    pub n: usize,
    /// Write quorum.
    pub w: usize,
    /// Read quorum.
    pub r: usize,
}

impl Nwr {
    /// The paper's deployed configuration.
    pub const PAPER: Nwr = Nwr { n: 3, w: 2, r: 1 };

    /// High-consistency configuration (`N = W`, `R = 1`, §5.2.2).
    pub const HIGH_CONSISTENCY: Nwr = Nwr { n: 3, w: 3, r: 1 };

    /// High-availability configuration (`W = 1`, §5.2.2).
    pub const HIGH_AVAILABILITY: Nwr = Nwr { n: 3, w: 1, r: 1 };

    /// Basic sanity: `1 ≤ W ≤ N`, `1 ≤ R ≤ N`.
    pub fn validate(&self) -> Result<(), String> {
        if self.n == 0 {
            return Err("N must be at least 1".into());
        }
        if self.w == 0 || self.w > self.n {
            return Err(format!("W must be in 1..=N, got W={} N={}", self.w, self.n));
        }
        if self.r == 0 || self.r > self.n {
            return Err(format!("R must be in 1..=N, got R={} N={}", self.r, self.n));
        }
        Ok(())
    }

    /// Whether this configuration guarantees read-your-writes overlap
    /// (`R + W > N`).
    pub fn strongly_consistent(&self) -> bool {
        self.r + self.w > self.n
    }
}

impl Default for Nwr {
    fn default() -> Self {
        Nwr::PAPER
    }
}

/// Service-time cost model for simulated nodes (µs of CPU/disk per
/// operation). Its one instance is [`COST`]; the runtimes charge it through
/// `ctx.consume`, which only the simulator turns into virtual time.
#[derive(Debug)]
pub struct CostModel {
    /// Fixed cost of applying a replica write (WAL append + index).
    pub put_base_us: u64,
    /// Per-byte write cost (reciprocal disk write bandwidth, bytes/µs).
    pub write_bytes_per_us: f64,
    /// Fixed cost of serving a replica read.
    pub get_base_us: u64,
    /// Per-byte read cost (page cache / disk mix, bytes/µs).
    pub read_bytes_per_us: f64,
    /// Cost of handling one gossip message.
    pub gossip_us: u64,
    /// Front-end per-request parse/route cost: the default of
    /// [`FrontendConfig::cpu_us`].
    pub frontend_base_us: u64,
    /// Front-end per-byte handling cost (copies, framing).
    pub frontend_bytes_per_us: f64,
    /// Cache-server per-request cost.
    pub cache_base_us: u64,
    /// Cache-server per-byte cost.
    pub cache_bytes_per_us: f64,
}

impl CostModel {
    /// Write service time for a payload of `bytes`.
    pub fn put_us(&self, bytes: usize) -> u64 {
        self.put_base_us + (bytes as f64 / self.write_bytes_per_us) as u64
    }

    /// Read service time for a payload of `bytes`.
    pub fn get_us(&self, bytes: usize) -> u64 {
        self.get_base_us + (bytes as f64 / self.read_bytes_per_us) as u64
    }

    /// Cache-server service time for a payload of `bytes`.
    pub fn cache_us(&self, bytes: usize) -> u64 {
        self.cache_base_us + (bytes as f64 / self.cache_bytes_per_us) as u64
    }
}

/// The cost model every simulated storage node, cache server and front end
/// charges. These values shape the saturation behaviour in Figs. 13–14;
/// they approximate a 2009-era Xeon + SAS-disk node.
pub const COST: CostModel = CostModel {
    put_base_us: 400,
    write_bytes_per_us: 80.0, // ~80 MB/s effective log write
    get_base_us: 150,
    read_bytes_per_us: 300.0, // ~300 MB/s page-cache-assisted read
    gossip_us: 30,
    frontend_base_us: 120,
    frontend_bytes_per_us: 800.0,
    cache_base_us: 25,
    cache_bytes_per_us: 2_000.0,
};

/// Per-storage-node configuration.
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// Quorum parameters.
    pub nwr: Nwr,
    /// Base virtual nodes this node contributes; the effective vnode count
    /// is `vnodes × weight` (see [`StorageConfig::weight`]).
    pub vnodes: u32,
    /// Capacity weight: a weight-`w` node contributes `w × vnodes` virtual
    /// nodes and therefore owns roughly `w×` the keyspace of a weight-1
    /// peer. Gossiped beside the vnode count so peers build identical
    /// rings; `1` (the default) is a plain homogeneous node.
    pub weight: u32,
    /// Gossip settings (seeds, intervals, failure thresholds).
    pub gossip: GossipConfig,
    /// How long a coordinator waits for replica acknowledgements before
    /// retrying a straggler (and, once its two retries are exhausted,
    /// taking the hinted-handoff path) (µs).
    pub replica_timeout_us: u64,
    /// Hard deadline after which an unfinished request fails (µs).
    pub request_deadline_us: u64,
    /// Interval of the hint-replay scan (µs) — node C probing node B
    /// (Fig. 8).
    pub hint_replay_interval_us: u64,
    /// Enable hinted handoff for short failures (Fig. 8). Disable only for
    /// the A4 ablation.
    pub hinted_handoff: bool,
    /// Tombstone-reaper period (µs); `0` disables reaping.
    pub compaction_interval_us: u64,
    /// Tombstones younger than this are kept so late repairs/hints cannot
    /// resurrect deleted keys (µs).
    pub tombstone_grace_us: u64,
    /// Directory for this node's durable WAL (`node<id>.wal`); `None` keeps
    /// the database in memory (simulations). With a path set, a restarted
    /// node recovers its records, indexes, and parked hints from the log.
    pub data_dir: Option<std::path::PathBuf>,
    /// Anti-entropy period (µs); `0` disables. Each round, the node offers
    /// one replica peer the Merkle root over the key ranges they share and
    /// the pair walks only mismatched subtrees down to per-key digests
    /// (DESIGN.md §14) — bounding replica divergence even for keys that are
    /// never read.
    pub anti_entropy_interval_us: u64,
    /// Idle backoff for anti-entropy: while `Db::last_seq` is unchanged
    /// between rounds, the period doubles up to `interval × max`; any local
    /// write snaps it back to the base interval. `1` disables backoff
    /// (fixed cadence), which is the default. Long-horizon simulations set
    /// this so a quiescent ring fast-forwards instead of grinding rounds.
    pub anti_entropy_idle_backoff_max: u64,
    /// Rate limit of the migration engine (DESIGN.md §16), with two roles:
    /// at most this many record copies leave a node per migration tick,
    /// and at most this many copies to any one target await acks (the
    /// per-target window); `0` means neither cap. The default is the
    /// budget BENCH_PR10 measured, before the window and again with it,
    /// at the same figures (a 4→8 node doubling drained in 13.2 s with
    /// the client p50 moving 1.12 → 1.34 ms; the simulated copy acks
    /// peaked at 14 ms, inside one tick, so the window never held a copy
    /// back). A fixed 1 MiB byte budget per tick applies beside it.
    pub migrate_max_records_per_tick: u32,
    /// Period of the migration tick (µs) while a migration plan is active.
    pub migrate_tick_us: u64,
    /// Metrics registry this node publishes into. Registries are cheap
    /// shared handles: give every node in a cluster a clone of the same
    /// registry and `/_stats` aggregates them all. The default is a private
    /// (unobserved) registry.
    pub metrics: Registry,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            nwr: Nwr::PAPER,
            vnodes: 128,
            weight: 1,
            gossip: GossipConfig::default(),
            replica_timeout_us: 60_000,     // 60 ms
            request_deadline_us: 1_000_000, // 1 s
            hint_replay_interval_us: 2_000_000,
            hinted_handoff: true,
            compaction_interval_us: 60_000_000,
            tombstone_grace_us: 300_000_000, // 5 min >> hint replay windows
            data_dir: None,
            anti_entropy_interval_us: 30_000_000,
            anti_entropy_idle_backoff_max: 1,
            migrate_max_records_per_tick: 32,
            migrate_tick_us: 50_000,
            metrics: Registry::new(),
        }
    }
}

impl StorageConfig {
    /// Effective virtual-node count this node advertises:
    /// `vnodes × weight`, saturating.
    pub fn effective_vnodes(&self) -> u32 {
        self.vnodes.saturating_mul(self.weight.max(1))
    }
}

/// Front-end configuration.
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// Storage nodes, learned statically at deploy time like the nginx
    /// upstream list. Any of them can coordinate any key; the front end
    /// places them on its own [`mystore_ring::HashRing`] (labels
    /// `node{id}`, [`FrontendConfig::vnodes`] points each, as the storage
    /// nodes build theirs) and sends each request to a member of the key's
    /// preference list. Empty answers every storage request with `500`.
    pub storage_nodes: Vec<NodeId>,
    /// Virtual nodes per storage node on that placement ring.
    pub vnodes: u32,
    /// Preference-list length: the replication factor `N`.
    pub replicas: usize,
    /// The storage nodes hosted on this front end's host. A preference-list
    /// member among them coordinates first, so the request skips a hop.
    /// Empty when the front end is a node of its own (the simulator's
    /// paper topology): the key's first preference-list member coordinates.
    pub local_nodes: Vec<NodeId>,
    /// Cache-server nodes, indexed by key hash; empty disables caching.
    pub cache_nodes: Vec<NodeId>,
    /// Maximum requests in flight before the front end sheds load with
    /// `503 Busy` (the spawn-fcgi process-pool bound).
    pub max_inflight: usize,
    /// Fixed CPU charged per request (parse/route, µs); handling each reply
    /// from the cache or storage tier costs a quarter of it. Only the
    /// simulator turns the charge into time. Figs. 13–14 raise it to model
    /// interpreted logical processes.
    pub cpu_us: u64,
    /// Per-request deadline at the front end (µs). A request that hits it
    /// is re-dispatched once to the next preference-list member, with a
    /// fresh deadline, before failing with `504`.
    pub request_deadline_us: u64,
    /// Enable URI-signature authentication (paper Fig. 2).
    pub auth: Option<crate::auth::AuthConfig>,
    /// Metrics registry; share one handle cluster-wide so the front end's
    /// `GET /_stats` endpoint reports every module (see [`StorageConfig::metrics`]).
    pub metrics: Registry,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            storage_nodes: Vec::new(),
            vnodes: StorageConfig::default().vnodes,
            replicas: Nwr::PAPER.n,
            local_nodes: Vec::new(),
            cache_nodes: Vec::new(),
            max_inflight: 512,
            cpu_us: COST.frontend_base_us,
            request_deadline_us: 5_000_000,
            auth: None,
            metrics: Registry::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nwr_validation() {
        assert!(Nwr::PAPER.validate().is_ok());
        assert!(Nwr { n: 0, w: 0, r: 0 }.validate().is_err());
        assert!(Nwr { n: 3, w: 4, r: 1 }.validate().is_err());
        assert!(Nwr { n: 3, w: 1, r: 0 }.validate().is_err());
        assert!(Nwr { n: 3, w: 1, r: 4 }.validate().is_err());
    }

    #[test]
    fn consistency_classification() {
        assert!(Nwr::HIGH_CONSISTENCY.strongly_consistent()); // 3+1 > 3
        assert!(!Nwr::PAPER.strongly_consistent()); // 2+1 == 3
        assert!(!Nwr::HIGH_AVAILABILITY.strongly_consistent());
    }

    #[test]
    fn cost_model_scales_with_bytes() {
        assert!(COST.put_us(600_000) > COST.put_us(3_000));
        assert!(COST.get_us(0) == COST.get_base_us);
        assert!(COST.cache_us(1000) >= COST.cache_base_us);
    }
}
