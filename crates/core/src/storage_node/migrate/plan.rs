//! Data types of the migration engine: the resumable plan, its arcs and
//! work items, and the dual-ownership bookkeeping ([`InboundArc`],
//! [`ProxyFetch`]) kept by nodes on the receiving side. The engine logic
//! that drives these lives in the parent module.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::collections::{BTreeMap, BTreeSet};

use mystore_net::NodeId;
use mystore_ring::{Arc_, HashRing};

/// One ring arc this node owes records to the new ring for.
pub(crate) struct PlanArc {
    /// The elementary arc (constant preference lists inside it).
    pub(crate) arc: Arc_,
    /// Peers that receive a copy of every record in the arc (the legacy
    /// sweep's targeting rule: entrants only while we keep our copy, the
    /// whole new replica set when we are leaving).
    pub(crate) targets: Vec<NodeId>,
    /// Peers that newly entered the replica set — they get the cutover.
    pub(crate) entrants: Vec<NodeId>,
    /// Whether this node stays in the arc's replica set.
    pub(crate) keep: bool,
    /// Whether this node was the arc's old *primary* (first of the old
    /// preference list) — the designated announcer of `MigrateBegin` /
    /// proxy target for dual-ownership reads.
    pub(crate) primary: bool,
    /// One past the last work-list index belonging to this arc.
    pub(crate) end_idx: usize,
    /// Clock at first dispatch (0 = not started yet).
    pub(crate) started_at_us: u64,
    /// Whether the arc has been cut over.
    pub(crate) cutover: bool,
}

/// One record owed to the new ring: `(arc index, self-key)`.
pub(crate) type WorkItem = (usize, String);

/// A migration replica-write awaiting its ack.
pub(crate) struct MigAck {
    /// Work-list index the ack settles (one item can await several acks,
    /// one per destination copy).
    pub(crate) idx: usize,
    /// The destination the copy was sent to: acks settle per `(idx,
    /// target)`, so a duplicate ack from one target can never stand in
    /// for another target's missing copy.
    pub(crate) target: NodeId,
    /// Send time, for the expiry sweep.
    pub(crate) sent_at_us: u64,
}

/// A resumable, rate-limited transfer of every record the latest ring
/// change re-homed.
pub(crate) struct MigrationPlan {
    /// The ring the diff was taken *from* (kept so a second membership
    /// change mid-flight re-plans from the original base, not the
    /// half-migrated intermediate).
    pub(crate) old_ring: HashRing<NodeId>,
    /// Membership signature of `old_ring` (persisted for resume).
    pub(crate) from_sig: Vec<(NodeId, u32)>,
    /// Arcs in dispatch order.
    pub(crate) arcs: Vec<PlanArc>,
    /// Work items sorted by `(arc, key)` — the deterministic cursor space.
    pub(crate) work: Vec<WorkItem>,
    /// Longest fully-acked prefix of `work`.
    pub(crate) low_water: usize,
    /// Next item to dispatch.
    pub(crate) cursor: usize,
    /// Acked indices above the low-water mark.
    pub(crate) acked: BTreeSet<usize>,
    /// Targets still owing an ack, per dispatched item. An item settles
    /// only when every distinct target has acknowledged its copy;
    /// re-dispatch after a failure goes only to the targets still listed.
    pub(crate) needed: BTreeMap<usize, BTreeSet<NodeId>>,
    /// Items whose ack failed or expired; re-dispatched before the cursor.
    pub(crate) retry: BTreeSet<usize>,
    /// Low-water value last persisted to `migrate_state`.
    pub(crate) persisted: usize,
}

impl MigrationPlan {
    /// Arcs already cut over (gossiped as migration progress).
    pub(crate) fn arcs_done(&self) -> usize {
        self.arcs.iter().filter(|a| a.cutover).count()
    }

    pub(crate) fn done(&self) -> bool {
        self.low_water == self.work.len() && self.arcs.iter().all(|a| a.cutover)
    }

    pub(crate) fn advance_low_water(&mut self) {
        while self.acked.remove(&self.low_water) {
            self.low_water += 1;
        }
    }
}

/// An arc this node is *entering*: until the old owner cuts it over,
/// fetch misses proxy to `source` and applied writes are forwarded there.
pub(crate) struct InboundArc {
    /// The arc being received.
    pub(crate) arc: Arc_,
    /// The arc's old primary (first of the old preference list).
    pub(crate) source: NodeId,
    /// When the window opened, for the lost-cutover sweep.
    pub(crate) opened_at_us: u64,
}

/// A persisted migration cursor loaded at restart, waiting for gossip to
/// re-converge: the base-ring signature and the last fully-acked `(arc,
/// key)` position. Consumed by the first non-empty plan
/// [`StorageNode::start_migration`] builds.
pub(crate) struct ResumeCursor {
    /// Base-ring membership the interrupted plan diffed from.
    pub(crate) sig: Vec<(NodeId, u32)>,
    /// Arc index of the acked cursor (`-1` = nothing acked yet).
    pub(crate) arc: i64,
    /// Key of the acked cursor.
    pub(crate) key: String,
}

/// A fetch this node answered by asking the old owner; the `FetchAck` is
/// deferred until the source replies (or the entry expires).
pub(crate) struct ProxyFetch {
    /// Who asked us.
    pub(crate) requester: NodeId,
    /// Their correlation id, restored on the forwarded `FetchAck`.
    pub(crate) orig_req: u64,
    /// Send time, for the expiry sweep.
    pub(crate) sent_at_us: u64,
}

/// True when `outer` fully covers `inner` (wrap-aware): both the point
/// just after `inner`'s start and `inner`'s end fall inside `outer`.
pub(crate) fn covers(outer: &Arc_, inner: &Arc_) -> bool {
    outer.contains(inner.end) && outer.contains(inner.start.wrapping_add(1))
}
