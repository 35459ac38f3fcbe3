//! Data types of the migration engine: the resumable plan, its arcs and
//! scan positions, and the dual-ownership window ([`InboundArc`]) kept by
//! nodes on the receiving side. The engine logic that drives these lives
//! in the parent module.

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
    /// Clock at first dispatch.
    pub(crate) started_at_us: Option<u64>,
    /// Whether the arc has been cut over.
    pub(crate) cutover: bool,
}

impl PlanArc {
    /// A point's offset from the arc's first point (its start is
    /// exclusive): the ring-ordered store's scan order inside the arc, also
    /// for an arc that wraps through zero or is the whole circle.
    pub(crate) fn offset(&self, point: u64) -> u64 {
        point.wrapping_sub(self.arc.start).wrapping_sub(1)
    }

    /// The ring point at `offset`.
    pub(crate) fn point(&self, offset: u64) -> u64 {
        self.arc.start.wrapping_add(1).wrapping_add(offset)
    }
}

/// A place in the plan's scan order, which is the ring-ordered store's
/// order: arc index, then the record's offset from the arc's first point,
/// then its self-key (points can collide).
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Pos {
    pub(crate) arc: usize,
    pub(crate) offset: u64,
    pub(crate) key: String,
}

impl Pos {
    /// The first position of arc `arc`: at or before every record in it.
    pub(crate) fn start(arc: usize) -> Pos {
        Pos { arc, offset: 0, key: String::new() }
    }

    /// The first position after this one (no key lies between `k` and
    /// `k + "\0"`).
    pub(crate) fn successor(mut self) -> Pos {
        self.key.push('\0');
        self
    }
}

/// A resumable, rate-limited transfer of every record the latest ring
/// change re-homed. The plan keeps no list of its records: it scans the
/// ring-ordered store arc by arc and holds only the positions in flight.
pub(crate) struct MigrationPlan {
    /// The ring the diff was taken *from* (kept so a second membership
    /// change mid-flight re-plans from the original base, not the
    /// half-migrated intermediate).
    pub(crate) old_ring: HashRing<NodeId>,
    /// Membership signature of `old_ring` (persisted for resume).
    pub(crate) from_sig: Vec<(NodeId, u32)>,
    /// Arcs in dispatch order.
    pub(crate) arcs: Vec<PlanArc>,
    /// The scan position: every record before it has been dispatched, none
    /// at or after it. Arcs below `next.arc` are passed.
    pub(crate) next: Pos,
    /// Targets still owing an ack, per dispatched record. A record settles
    /// only when every distinct target has acknowledged its copy;
    /// re-dispatch after a failure goes only to the targets still listed.
    pub(crate) owed: BTreeMap<Pos, BTreeSet<NodeId>>,
    /// Owed records whose ack failed or expired; re-dispatched first.
    pub(crate) retry: BTreeSet<Pos>,
    /// Acked prefix last persisted to `migrate_state`.
    pub(crate) persisted: Pos,
    /// Records dispatched for the first time (re-sends not counted).
    pub(crate) shipped: usize,
}

impl MigrationPlan {
    /// Arcs already cut over (gossiped as migration progress).
    pub(crate) fn arcs_done(&self) -> usize {
        self.arcs.iter().filter(|a| a.cutover).count()
    }

    pub(crate) fn done(&self) -> bool {
        self.owed.is_empty() && self.arcs.iter().all(|a| a.cutover)
    }

    /// Every record before this position has been acked by all its
    /// targets: the first owed position, else the scan position.
    pub(crate) fn acked_prefix(&self) -> &Pos {
        self.owed.keys().next().unwrap_or(&self.next)
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
/// re-converge: the base-ring signature and the acked prefix, `(arc,
/// point, key)`. Consumed by the first non-empty plan
/// [`StorageNode::start_migration`] builds.
pub(crate) struct ResumeCursor {
    /// Base-ring membership the interrupted plan diffed from.
    pub(crate) sig: Vec<(NodeId, u32)>,
    /// The acked prefix; `None` for a cursor whose position this plan
    /// cannot place (one written before positions carried a point), which
    /// resumes from the first arc.
    pub(crate) at: Option<(i64, u64, String)>,
}

/// True when `outer` fully covers `inner` (wrap-aware): both the point
/// just after `inner`'s start and `inner`'s end fall inside `outer`.
pub(crate) fn covers(outer: &Arc_, inner: &Arc_) -> bool {
    outer.contains(inner.end) && outer.contains(inner.start.wrapping_add(1))
}
