//! The migration plan's persisted cursor: the acked low-water mark kept
//! in the `migrate_state` collection so a crashed source resumes where it
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
    /// Writes the acked low-water mark as an `(arc, key)` cursor (plus the
    /// base-ring signature) to the `migrate_state` collection. A plan with
    /// no work writes none.
    pub(super) fn persist_migrate_cursor(&mut self) {
        let (arc, key, sig, low) = {
            let Some(plan) = &self.migration else { return };
            // Nothing to resume (every boot-time join on an empty store):
            // a cursor would cost a WAL append + fsync now and another to
            // clear it one tick later.
            if plan.work.is_empty() {
                return;
            }
            let (arc, key) = match plan.low_water.checked_sub(1).and_then(|i| plan.work.get(i)) {
                Some((a, k)) => (*a as i64, k.clone()),
                None => (-1, String::new()),
            };
            let sig = plan
                .from_sig
                .iter()
                .map(|(n, v)| format!("{}:{}", n.0, v))
                .collect::<Vec<_>>()
                .join(",");
            (arc, key, sig, plan.low_water)
        };
        self.clear_migrate_state();
        let _ = self.db.insert_doc(MIGRATE_STATE, doc! { "from_sig": sig, "arc": arc, "key": key });
        if let Some(plan) = &mut self.migration {
            plan.persisted = low;
        }
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
        let Some((sig_str, arc, key)) = self.db.collection(MIGRATE_STATE).ok().and_then(|c| {
            c.iter().next().and_then(|(_, d)| {
                Some((
                    d.get_str("from_sig")?.to_string(),
                    d.get_i64("arc")?,
                    d.get_str("key")?.to_string(),
                ))
            })
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
        self.resume_cursor = Some(ResumeCursor { sig, arc, key });
    }
}
