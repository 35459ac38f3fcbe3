//! Node-level observability: the registry-backed [`StorageMetrics`]
//! series resolved once per node from
//! [`crate::config::StorageConfig::metrics`]. The registry holds the live
//! totals; per-node, per-event data lives in the simulator's trace
//! (`ctx.record`), and there is no third place (DESIGN.md §7).

use mystore_obs::{Counter, Gauge, Histogram, Registry};

/// Observability handles for the coordinator and hinted-handoff hot paths.
/// Resolved once per node from [`StorageConfig::metrics`]; all nodes sharing
/// a registry aggregate into the same cluster-wide series.
#[derive(Debug, Clone, Default)]
pub struct StorageMetrics {
    /// Quorum writes this node began coordinating.
    pub quorum_write_started: Counter,
    /// Quorum writes acknowledged to the caller (reached `W`).
    pub quorum_write_ok: Counter,
    /// Quorum writes that failed the hard deadline.
    pub quorum_write_failed: Counter,
    /// Coordinator-side write latency, arrival → `W`-ack reply (µs).
    pub quorum_write_latency_us: Histogram,
    /// Quorum reads this node began coordinating.
    pub quorum_read_started: Counter,
    /// Quorum reads answered to the caller (reached `R`).
    pub quorum_read_ok: Counter,
    /// Quorum reads that failed the hard deadline.
    pub quorum_read_failed: Counter,
    /// Coordinator-side read latency, arrival → `R`-reply (µs).
    pub quorum_read_latency_us: Histogram,
    /// Conditional writes this node began coordinating.
    pub cas_started: Counter,
    /// Conditional writes acknowledged to the caller (predicate held,
    /// write reached `W`).
    pub cas_ok: Counter,
    /// Conditional writes rejected because the version predicate failed.
    pub cas_conflicts: Counter,
    /// Conditional writes that failed a quorum deadline (either phase).
    pub cas_failed: Counter,
    /// Conditional-write latency, arrival → reply, conflicts included (µs).
    pub cas_latency_us: Histogram,
    /// Winner records pushed to stale or missing replicas after a read.
    pub read_repair_pushes: Counter,
    /// Hints accepted for safekeeping (either for a peer or self-held).
    pub hints_stored: Counter,
    /// Hints written back to their intended replica and discharged.
    pub hints_replayed: Counter,
    /// Writes diverted to a fallback node on replica soft-timeout.
    pub handoffs: Counter,
    /// Hints currently parked in this node's `hints` collection.
    pub hint_queue_depth: Gauge,
    /// `StoreReplica` re-sends to write stragglers.
    pub put_retries: Counter,
    /// `FetchReplica` re-sends to read stragglers.
    pub get_retries: Counter,
    /// Requests whose straggler retries all went unanswered (writes then
    /// divert to hinted handoff).
    pub retries_exhausted: Counter,
    /// Backoff delays armed between retry rounds (µs).
    pub retry_backoff_us: Histogram,
    /// Hint replays swept because no ack arrived within the request
    /// deadline (the hint stays parked and is offered again).
    pub hint_replay_expired: Counter,
    /// Storage-node process restarts (WAL replays).
    pub restarts: Counter,
    /// Replica-write messages a coordinator sent for client writes, first
    /// sends and resends (`batch.replica_msgs`).
    pub batch_msgs: Counter,
    /// Replica ops carried by those messages (`batch.replica_ops`).
    pub batch_ops: Counter,
    /// Restarts whose WAL replay failed; the node came back empty and
    /// relies on read repair / anti-entropy to re-fill.
    pub recover_failures: Counter,
    /// Migration-engine replica writes awaiting an ack (DESIGN.md §16).
    pub migrate_in_flight: Gauge,
    /// Records the migration engine shipped (per destination copy).
    pub migrate_records_sent: Counter,
    /// Payload bytes the migration engine shipped (per destination copy).
    pub migrate_bytes_sent: Counter,
    /// Ring arcs fully transferred, acknowledged, and cut over.
    pub migrate_arcs_cutover: Counter,
    /// Wall-clock per arc, dispatch start → cutover (µs).
    pub migrate_arc_duration_us: Histogram,
}

impl StorageMetrics {
    /// Resolves the standard `quorum.*` / `cas.*` / `read_repair.*` /
    /// `hint.*` names.
    pub fn from_registry(registry: &Registry) -> Self {
        StorageMetrics {
            quorum_write_started: registry.counter("quorum.write.started"),
            quorum_write_ok: registry.counter("quorum.write.ok"),
            quorum_write_failed: registry.counter("quorum.write.failed"),
            quorum_write_latency_us: registry.histogram("quorum.write.latency_us"),
            quorum_read_started: registry.counter("quorum.read.started"),
            quorum_read_ok: registry.counter("quorum.read.ok"),
            quorum_read_failed: registry.counter("quorum.read.failed"),
            quorum_read_latency_us: registry.histogram("quorum.read.latency_us"),
            cas_started: registry.counter("cas.started"),
            cas_ok: registry.counter("cas.ok"),
            cas_conflicts: registry.counter("cas.conflicts"),
            cas_failed: registry.counter("cas.failed"),
            cas_latency_us: registry.histogram("cas.latency_us"),
            read_repair_pushes: registry.counter("read_repair.pushes"),
            hints_stored: registry.counter("hint.stored"),
            hints_replayed: registry.counter("hint.replayed"),
            handoffs: registry.counter("hint.handoffs"),
            hint_queue_depth: registry.gauge("hint.queue_depth"),
            put_retries: registry.counter("retry.put.resends"),
            get_retries: registry.counter("retry.get.resends"),
            retries_exhausted: registry.counter("retry.exhausted"),
            retry_backoff_us: registry.histogram("retry.backoff_us"),
            hint_replay_expired: registry.counter("hint.replay_expired"),
            restarts: registry.counter("node.restarts"),
            batch_msgs: registry.counter("batch.replica_msgs"),
            batch_ops: registry.counter("batch.replica_ops"),
            recover_failures: registry.counter("node.recover_failures"),
            migrate_in_flight: registry.gauge("migrate.in_flight"),
            migrate_records_sent: registry.counter("migrate.records_sent"),
            migrate_bytes_sent: registry.counter("migrate.bytes_sent"),
            migrate_arcs_cutover: registry.counter("migrate.arcs_cutover"),
            migrate_arc_duration_us: registry.histogram("migrate.arc_duration_us"),
        }
    }
}
