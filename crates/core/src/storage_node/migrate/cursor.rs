//! The migration plan's persisted cursor: its acked prefix as a ring
//! position in `migrate_state`, so a crashed source resumes where it
//! stopped instead of restarting its transfer (DESIGN.md §16).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use mystore_bson::doc;
use mystore_net::NodeId;

use super::ResumeCursor;
use crate::storage_node::StorageNode;

/// Collection holding the persisted migration cursor (≤ 1 document).
const MIGRATE_STATE: &str = "migrate_state";

impl StorageNode {
    /// Writes the plan's acked prefix as an `(arc, point, key)` cursor
    /// (plus the base-ring signature) to the `migrate_state` collection.
    pub(super) fn persist_migrate_cursor(&mut self) {
        let Some(plan) = &mut self.migration else { return };
        let at = plan.acked_prefix().clone();
        let point = plan.arcs.get(at.arc).map_or(0, |a| a.point(at.offset));
        let sig = plan
            .from_sig
            .iter()
            .map(|(n, v)| format!("{}:{}", n.0, v))
            .collect::<Vec<_>>()
            .join(",");
        let cursor = doc! {
            "from_sig": sig,
            "arc": at.arc as i64,
            // The point's bits: BSON has no unsigned integer.
            "point": point as i64,
            "key": at.key.clone(),
        };
        plan.persisted = at;
        self.clear_migrate_state();
        let _ = self.db.insert_doc(MIGRATE_STATE, cursor);
    }

    /// Drops the persisted cursor (plan finished or abandoned).
    pub(crate) fn clear_migrate_state(&mut self) {
        let ids: Vec<_> = self
            .db
            .collection(MIGRATE_STATE)
            .map(|c| c.iter().map(|(id, _)| *id).collect())
            .unwrap_or_default();
        for id in ids {
            let _ = self.db.remove(MIGRATE_STATE, id);
        }
    }

    /// Crash recovery: load the persisted cursor and park it as a pending
    /// resume. The plan itself is rebuilt by `start_migration` once gossip
    /// re-converges the ring (right after a restart the local ring is the
    /// collapsed single-node one and would produce an empty — or wrong —
    /// diff); at most the unacked in-flight window is re-sent.
    pub(crate) fn resume_migration(&mut self) {
        let Some((sig_str, at)) = self.db.collection(MIGRATE_STATE).ok().and_then(|c| {
            let (_, d) = c.iter().next()?;
            let at = d.get_i64("arc").zip(d.get_i64("point")).zip(d.get_str("key"));
            let at = at.map(|((arc, point), key)| (arc, point as u64, key.to_string()));
            Some((d.get_str("from_sig")?.to_string(), at))
        }) else {
            return;
        };
        let sig: Vec<(NodeId, u32)> = sig_str
            .split(',')
            .filter(|p| !p.is_empty())
            .filter_map(|part| {
                let (id, vn) = part.split_once(':')?;
                Some((NodeId(id.parse().ok()?), vn.parse().ok()?))
            })
            .collect();
        if sig.is_empty() {
            self.clear_migrate_state();
            return;
        }
        self.resume_cursor = Some(ResumeCursor { sig, at });
    }
}
