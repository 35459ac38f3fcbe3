//! The cluster message type.
//!
//! One enum carries every message class in the system — REST traffic,
//! cache-tier operations, coordinator-level Get/Put, replica-level storage
//! ops, hinted handoff, migration transfers, and gossip — so a single
//! runtime (simulated or threaded) can host the whole deployment, including
//! the baseline systems which speak only the REST subset.
//!
//! The binary wire layout of this enum (tags, field order, widths — see
//! `server/src/codec/`) is frozen in `crates/lint/schema.lock` and checked
//! by `mystore-lint --check-schema`; tags are append-only, and adding one
//! requires re-blessing the lock (DESIGN.md §15).

use std::sync::Arc;

use mystore_engine::Record;
use mystore_gossip::GossipMsg;
use mystore_net::{NodeId, WireSized};

/// A shared, immutable payload. Request bodies are wrapped once where they
/// enter the system (client or REST tier) and then travel by reference count
/// through the frontend, cache tier, and coordinator — cloning a [`Body`] is
/// a pointer bump, never a byte copy. The payload is only materialized into
/// an owned `Vec<u8>` at the single point a [`Record`] is built.
pub type Body = Arc<Vec<u8>>;

/// HTTP-style method of a REST request (paper §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Retrieve the addressed data.
    Get,
    /// Create (no key) or update (with key) an entry.
    Post,
    /// Logically delete the addressed data.
    Delete,
}

/// A REST request as the front end sees it.
#[derive(Debug, Clone)]
pub struct RestRequest {
    /// Client-chosen request id (echoed in the response).
    pub req: u64,
    /// Method.
    pub method: Method,
    /// Resource key; `None` on a key-less POST (create).
    pub key: Option<String>,
    /// Body payload (POST only).
    pub body: Body,
    /// Conditional-put predicate (`If-Match` style, POST with key only): the
    /// decimal LWW version the caller last observed, `"0"` for "key must be
    /// absent". Anything non-numeric is rejected with `400`.
    pub if_match: Option<String>,
    /// Authentication, when the deployment requires it:
    /// `(user, signature)`.
    pub auth: Option<(String, crate::auth::Signature)>,
}

impl RestRequest {
    /// The request URI used both for routing and signing.
    pub fn uri(&self) -> String {
        match &self.key {
            Some(k) => format!("/data/{k}"),
            None => "/data".to_string(),
        }
    }
}

/// HTTP-ish status codes used by the front end.
pub mod status {
    /// Success.
    pub const OK: u16 = 200;
    /// Created (POST without key).
    pub const CREATED: u16 = 201;
    /// Signature verification failed.
    pub const UNAUTHORIZED: u16 = 401;
    /// No such key.
    pub const NOT_FOUND: u16 = 404;
    /// Malformed request (e.g. DELETE without key).
    pub const BAD_REQUEST: u16 = 400;
    /// Conditional put failed: the version predicate did not match (the
    /// response body carries the actual current version).
    pub const CONFLICT: u16 = 409;
    /// Load shed: too many requests in flight.
    pub const BUSY: u16 = 503;
    /// Storage layer failed the operation.
    pub const STORAGE_ERROR: u16 = 500;
    /// The request deadline expired inside the cluster.
    pub const TIMEOUT: u16 = 504;
}

/// A REST response.
#[derive(Debug, Clone)]
pub struct RestResponse {
    /// Echoed request id.
    pub req: u64,
    /// Status code (see [`status`]).
    pub status: u16,
    /// Body (GET payload; empty otherwise).
    pub body: Body,
    /// On a key-less POST, the key the system assigned.
    pub assigned_key: Option<String>,
    /// True when served from the cache tier (diagnostics).
    pub from_cache: bool,
}

/// Failures surfaced by the storage module to its callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// Fewer than `W` replicas acknowledged before the deadline.
    QuorumWriteFailed,
    /// Fewer than `R` replicas answered before the deadline.
    QuorumReadFailed,
    /// The coordinator had no ring (no known storage peers).
    NoRing,
    /// Conditional put: the version predicate did not match; carries the
    /// actual current version (0 = key absent) so the caller can re-read,
    /// or retry directly against the version it lost to.
    CasConflict(u64),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::QuorumWriteFailed => write!(f, "write quorum not reached"),
            StoreError::QuorumReadFailed => write!(f, "read quorum not reached"),
            StoreError::NoRing => write!(f, "no storage ring available"),
            StoreError::CasConflict(actual) => {
                write!(f, "version precondition failed (current version {actual})")
            }
        }
    }
}

/// One write inside a [`Msg::StoreReplicaBatch`].
#[derive(Debug, Clone)]
pub struct BatchPut {
    /// Correlation id (coordinator-scoped), acked individually.
    pub req: u64,
    /// The record (already versioned by the coordinator).
    pub record: Arc<Record>,
}

/// Every message that can travel between cluster nodes.
#[derive(Debug, Clone)]
pub enum Msg {
    // ---- REST tier ---------------------------------------------------
    /// Client → front end (or baseline store).
    RestReq(RestRequest),
    /// Front end (or baseline store) → client.
    RestResp(RestResponse),

    // ---- authentication (Fig. 2: "get TOKEN from TOKEN DB") -------------
    /// Client → front end: request a single-use token for `user`.
    TokenReq {
        /// Correlation id.
        req: u64,
        /// The requesting user (must hold a registered secret).
        user: String,
    },
    /// Front end → client: the issued token, or `None` for unknown users.
    TokenResp {
        /// Correlation id.
        req: u64,
        /// The token to embed in the next signed request.
        token: Option<String>,
    },

    // ---- cache tier ----------------------------------------------------
    /// Front end → cache server: lookup.
    CacheGet {
        /// Correlation id.
        req: u64,
        /// Resource key.
        key: String,
    },
    /// Cache server → front end: lookup answer.
    CacheGetResp {
        /// Correlation id.
        req: u64,
        /// Hit payload, or `None` on miss.
        value: Option<Body>,
    },
    /// Front end → cache server: populate/refresh (fire-and-forget).
    CachePut {
        /// Resource key.
        key: String,
        /// Payload.
        value: Body,
    },
    /// Front end → cache server: invalidate (fire-and-forget).
    CacheDel {
        /// Resource key.
        key: String,
    },

    // ---- storage module, coordinator interface (§5.1 Get/Put) ---------
    /// Caller → coordinator: read `key`.
    Get {
        /// Correlation id.
        req: u64,
        /// Record key (`self-key`).
        key: String,
    },
    /// Coordinator → caller: read result (`Ok(None)` = not found/deleted).
    GetResp {
        /// Correlation id.
        req: u64,
        /// The payload, or why it failed.
        result: Result<Option<Body>, StoreError>,
    },
    /// Caller → coordinator: write `key` (or tombstone it).
    Put {
        /// Correlation id.
        req: u64,
        /// Record key (`self-key`).
        key: String,
        /// Payload (ignored when `delete`).
        value: Body,
        /// True for the DELETE path (logical delete, §3.3).
        delete: bool,
    },
    /// Coordinator → caller: write outcome.
    PutResp {
        /// Correlation id.
        req: u64,
        /// Success, or why it failed.
        result: Result<(), StoreError>,
    },
    /// Caller → coordinator: conditional write — apply only if the current
    /// LWW version of `key` equals `expected` (`0` = key must be absent).
    /// The coordinator runs a read round at `max(R, N-W+1)` (overlapping the
    /// write quorum) to evaluate the predicate, then a normal quorum write.
    Cas {
        /// Correlation id.
        req: u64,
        /// Record key (`self-key`).
        key: String,
        /// Payload to write when the predicate holds.
        value: Body,
        /// The version the caller last observed (`0` = absent).
        expected: u64,
    },
    /// Coordinator → caller: conditional-write outcome; `Ok` carries the
    /// newly written LWW version (the predicate for a follow-up CAS).
    CasResp {
        /// Correlation id.
        req: u64,
        /// The new version, or why it failed (including
        /// [`StoreError::CasConflict`] with the actual current version).
        result: Result<u64, StoreError>,
    },

    // ---- storage module, replica level ---------------------------------
    /// Coordinator → replica: store this record (LWW). The record is
    /// `Arc`-shared so fanning one write out to `N` replicas does not copy
    /// the payload `N` times.
    StoreReplica {
        /// Correlation id (coordinator-scoped).
        req: u64,
        /// The record (already versioned by the coordinator).
        record: Arc<Record>,
    },
    /// Replica → coordinator: store outcome (`ok = false` ⇒ disk error).
    StoreAck {
        /// Correlation id.
        req: u64,
        /// Whether the replica applied the write.
        ok: bool,
    },
    /// Migration source → new owner: store all these records (LWW). Each
    /// op keeps its own correlation id and is acked individually.
    StoreReplicaBatch {
        /// The writes, in send order.
        ops: Vec<BatchPut>,
    },
    /// Replica → sender: the outcomes of every write from that sender
    /// (`StoreReplica`, `StoreHint`, `StoreReplicaBatch` ops) that one
    /// WAL sync made durable.
    StoreAckBatch {
        /// `(req, ok)` per write.
        acks: Vec<(u64, bool)>,
    },
    /// Coordinator → replica: fetch your copy of `key`.
    FetchReplica {
        /// Correlation id.
        req: u64,
        /// Record key.
        key: String,
    },
    /// Replica → coordinator: your copy (or none), `ok = false` ⇒ error.
    FetchAck {
        /// Correlation id.
        req: u64,
        /// The replica's record, if it has one.
        found: Option<Record>,
        /// Whether the read itself succeeded.
        ok: bool,
    },

    // ---- hinted handoff (Fig. 8) ----------------------------------------
    /// Coordinator → temporary node C: hold this for `intended` (node B).
    StoreHint {
        /// Correlation id (acked via [`Msg::StoreAck`]).
        req: u64,
        /// The unreachable replica the hint is destined for.
        intended: NodeId,
        /// The record to write back when `intended` recovers.
        record: Arc<Record>,
    },

    // ---- migration / re-replication (§5.2.4) ----------------------------
    /// Bulk record transfer, applied LWW, no ack. Receive-only: the
    /// one-shot rebalance sweep that sent it is gone (the migration engine
    /// ships on the acknowledged `StoreReplica` path), but the wire tag is
    /// frozen and a peer still running the sweep is answered correctly.
    TransferRecords {
        /// The records changing owner.
        records: Vec<Arc<Record>>,
    },

    /// Migration source → arc entrant: every record of the ring arc
    /// `(start, end]` has been transferred and acknowledged — the entrant
    /// is now an authoritative owner and stops proxying reads for (and
    /// forwarding writes from) that arc to the old owner (DESIGN.md §16).
    MigrateCutover {
        /// Arc start point (exclusive).
        start: u64,
        /// Arc end point (inclusive).
        end: u64,
    },

    /// Migration source (the arc's old primary) → arc entrant: a transfer
    /// of the ring arc `(start, end]` is starting — until the matching
    /// [`Msg::MigrateCutover`], the entrant's misses in the arc are not
    /// authoritative and proxy back to the sender (DESIGN.md §16). This is
    /// what tells a *joining* node its inbound arcs: its own diff base is
    /// the collapsed single-node ring and cannot derive them locally.
    MigrateBegin {
        /// Arc start point (exclusive).
        start: u64,
        /// Arc end point (inclusive).
        end: u64,
    },

    // ---- anti-entropy (extension: §7 "problems on data's consistency") --
    /// Periodic replica synchronization: the sender's `(key, version)`
    /// digest for records it believes the receiver should also hold.
    SyncDigest {
        /// `(self-key, LWW version)` pairs.
        entries: Vec<(String, u64)>,
    },
    /// Reply to [`Msg::SyncDigest`]: full records the receiver had newer
    /// (or that the sender was missing entirely are pulled via the same
    /// exchange initiated from the other side).
    SyncRecords {
        /// The newer records.
        records: Vec<Record>,
    },
    /// Merkle anti-entropy opener (DESIGN.md §14): the sender's tree root
    /// over the key ranges the two nodes jointly replicate. Matching roots
    /// end the exchange in one round trip regardless of corpus size.
    SyncTreeRequest {
        /// Guard over the node pair, split count, and shared-arc list; a
        /// mismatch means the peers' ring views disagree and the exchange
        /// is abandoned until gossip reconverges.
        ring_hash: u64,
        /// Root hash of the sender's tree.
        root: u64,
    },
    /// One level of the Merkle walk: the sender's hashes at the given heap
    /// indices. The receiver compares each against its own tree, answers
    /// mismatched internal nodes with their children, and divergent leaves
    /// with a [`Msg::SyncLeafDigest`].
    SyncTreeLevel {
        /// Ring-view guard (see [`Msg::SyncTreeRequest`]).
        ring_hash: u64,
        /// `(heap index, subtree hash)` pairs.
        nodes: Vec<(u32, u64)>,
    },
    /// Per-key fallback once the walk bottoms out: an exhaustive digest of
    /// the divergent leaves only, tombstones included. Answered like a
    /// [`Msg::SyncDigest`] (push newer, counter-digest stale, pull
    /// missing), plus a push of keys the sender's leaves turned out to
    /// lack entirely.
    SyncLeafDigest {
        /// Ring-view guard (see [`Msg::SyncTreeRequest`]).
        ring_hash: u64,
        /// Heap indices of the leaves `entries` exhaustively covers.
        leaves: Vec<u32>,
        /// `(self-key, LWW version)` pairs, tombstones included.
        entries: Vec<(String, u64)>,
    },

    // ---- gossip ----------------------------------------------------------
    /// Gossip protocol traffic (§5.2.3).
    Gossip(GossipMsg),

    // ---- diagnostics (production runtime readiness) ----------------------
    /// Ask a storage node for its current ring membership view. Used by the
    /// production runtime's readiness probe and by harnesses polling for
    /// gossip convergence instead of sleeping a fixed interval.
    RingReq {
        /// Correlation id.
        req: u64,
    },
    /// Reply to [`Msg::RingReq`]: the nodes currently in the sender's ring,
    /// sorted by id.
    RingResp {
        /// Correlation id.
        req: u64,
        /// Ring members as seen by the responding node.
        members: Vec<NodeId>,
    },
}

impl Msg {
    /// True for operation-level messages — the granularity at which the
    /// paper's Table 2 fault probabilities apply. Experiment harnesses pass
    /// this to [`mystore_net::Sim::set_fault_filter`] so acks and gossip
    /// frames do not draw their own faults.
    pub fn is_client_op(&self) -> bool {
        matches!(self, Msg::Put { .. } | Msg::Get { .. } | Msg::Cas { .. })
    }

    /// True for replica-level storage operations — the per-replica reads
    /// and writes a user operation fans out into. The Fig. 16/17 harnesses
    /// inject Table 2 faults here: a lost replica write is exactly the
    /// short failure that hinted handoff (Fig. 8) exists to mask.
    pub fn is_replica_op(&self) -> bool {
        matches!(
            self,
            Msg::StoreReplica { .. }
                | Msg::StoreReplicaBatch { .. }
                | Msg::FetchReplica { .. }
                | Msg::StoreHint { .. }
        )
    }
}

impl WireSized for Msg {
    fn wire_size(&self) -> usize {
        const HDR: usize = 48; // framing + addressing overhead per message
        HDR + match self {
            Msg::RestReq(r) => {
                r.key.as_ref().map(String::len).unwrap_or(0)
                    + r.body.len()
                    + r.if_match.as_ref().map(String::len).unwrap_or(0)
                    + 64
            }
            Msg::RestResp(r) => r.body.len() + 32,
            Msg::TokenReq { user, .. } => user.len(),
            Msg::TokenResp { token, .. } => token.as_ref().map(String::len).unwrap_or(0),
            Msg::CacheGet { key, .. } => key.len(),
            Msg::CacheGetResp { value, .. } => value.as_ref().map(|v| v.len()).unwrap_or(0),
            Msg::CachePut { key, value } => key.len() + value.len(),
            Msg::CacheDel { key } => key.len(),
            Msg::Get { key, .. } => key.len(),
            Msg::GetResp { result, .. } => {
                result.as_ref().ok().and_then(|v| v.as_ref()).map(|v| v.len()).unwrap_or(0)
            }
            Msg::Put { key, value, .. } => key.len() + value.len(),
            Msg::PutResp { .. } => 8,
            Msg::Cas { key, value, .. } => key.len() + value.len() + 8,
            Msg::CasResp { .. } => 16,
            Msg::StoreReplica { record, .. } => record.to_document().encoded_size(),
            Msg::StoreAck { .. } => 8,
            Msg::StoreReplicaBatch { ops } => {
                ops.iter().map(|op| op.record.to_document().encoded_size() + 8).sum()
            }
            Msg::StoreAckBatch { acks } => acks.len() * 10 + 8,
            Msg::FetchReplica { key, .. } => key.len(),
            Msg::FetchAck { found, .. } => {
                found.as_ref().map(|r| r.to_document().encoded_size()).unwrap_or(8)
            }
            Msg::StoreHint { record, .. } => record.to_document().encoded_size() + 8,
            Msg::TransferRecords { records } => {
                records.iter().map(|r| r.to_document().encoded_size()).sum()
            }
            Msg::MigrateCutover { .. } => 16,
            Msg::MigrateBegin { .. } => 16,
            Msg::SyncDigest { entries } => entries.iter().map(|(k, _)| k.len() + 8).sum::<usize>(),
            Msg::SyncRecords { records } => {
                records.iter().map(|r| r.to_document().encoded_size()).sum()
            }
            Msg::SyncTreeRequest { .. } => 16,
            Msg::SyncTreeLevel { nodes, .. } => 8 + nodes.len() * 12,
            Msg::SyncLeafDigest { leaves, entries, .. } => {
                8 + leaves.len() * 4 + entries.iter().map(|(k, _)| k.len() + 8).sum::<usize>()
            }
            Msg::Gossip(g) => g.wire_size(),
            Msg::RingReq { .. } => 8,
            Msg::RingResp { members, .. } => 8 + members.len() * 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mystore_bson::ObjectId;
    use mystore_engine::pack_version;

    #[test]
    fn uri_formats() {
        let with_key = RestRequest {
            req: 1,
            method: Method::Get,
            key: Some("Resistor5".into()),
            body: Body::default(),
            if_match: None,
            auth: None,
        };
        assert_eq!(with_key.uri(), "/data/Resistor5");
        let keyless = RestRequest {
            req: 2,
            method: Method::Post,
            key: None,
            body: Arc::new(vec![1]),
            if_match: None,
            auth: None,
        };
        assert_eq!(keyless.uri(), "/data");
    }

    #[test]
    fn wire_size_tracks_payload() {
        let small =
            Msg::Put { req: 1, key: "k".into(), value: Arc::new(vec![0; 10]), delete: false };
        let large =
            Msg::Put { req: 1, key: "k".into(), value: Arc::new(vec![0; 100_000]), delete: false };
        assert!(large.wire_size() > small.wire_size() + 90_000);
        let rec = Arc::new(Record::new(
            ObjectId::from_parts(1, 1, 1),
            "k",
            vec![0; 5000],
            pack_version(1, 1),
        ));
        let m = Msg::StoreReplica { req: 1, record: rec };
        assert!(m.wire_size() > 5000);
    }

    #[test]
    fn batch_wire_size_sums_ops() {
        let rec = |i: u64| {
            Arc::new(Record::new(
                ObjectId::from_parts(1, 1, i as u32),
                format!("k{i}"),
                vec![0; 1000],
                pack_version(i, 1),
            ))
        };
        let batch = Msg::StoreReplicaBatch {
            ops: (0..4).map(|i| BatchPut { req: i, record: rec(i) }).collect(),
        };
        let single = Msg::StoreReplica { req: 0, record: rec(0) };
        assert!(batch.wire_size() > 4 * 1000);
        // One batch costs one header; four singles cost four.
        assert!(batch.wire_size() < 4 * single.wire_size());
        assert!(batch.is_replica_op());
        let acks = Msg::StoreAckBatch { acks: vec![(1, true), (2, false)] };
        assert!(!acks.is_replica_op());
        assert!(acks.wire_size() < single.wire_size());
    }

    #[test]
    fn store_error_displays() {
        assert!(StoreError::QuorumWriteFailed.to_string().contains("write"));
        assert!(StoreError::QuorumReadFailed.to_string().contains("read"));
        assert!(StoreError::NoRing.to_string().contains("ring"));
        assert!(StoreError::CasConflict(42).to_string().contains("42"));
    }

    #[test]
    fn cas_is_a_client_op_with_payload_sized_wire_cost() {
        let cas =
            Msg::Cas { req: 1, key: "k".into(), value: Arc::new(vec![0; 5_000]), expected: 7 };
        assert!(cas.is_client_op());
        assert!(!cas.is_replica_op());
        assert!(cas.wire_size() > 5_000);
        let resp = Msg::CasResp { req: 1, result: Err(StoreError::CasConflict(9)) };
        assert!(resp.wire_size() < 100);
    }

    #[test]
    fn body_clone_shares_the_allocation() {
        let body: Body = Arc::new(vec![0; 4096]);
        let copy = body.clone();
        assert!(Arc::ptr_eq(&body, &copy));
    }
}
