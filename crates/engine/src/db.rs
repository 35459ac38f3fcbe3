//! The database: named collections, write-ahead logging, crash recovery,
//! compaction, and an oplog for replication.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use mystore_bson::{Document, ObjectId, OidGen};

use crate::collection::{Collection, FindOptions};
use crate::error::{EngineError, Result};
use crate::oplog::{OplogRing, WalOp};
use crate::query::filter::Filter;
use crate::query::update::Update;
use crate::record::{Record, F_IS_DEL, F_SELF_KEY};
use crate::wal::Wal;

/// Engine version string, returned by [`Db::version`]. The paper's wrapped
/// `Connect` tests liveness by querying the server version (§5.1 step 3);
/// our pool does the same.
pub const ENGINE_VERSION: &str = "mystore-engine 0.1.0 (mongolite)";

/// Default capacity of the replication oplog ring.
const OPLOG_CAPACITY: usize = 100_000;

/// Aggregate statistics for a database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbStats {
    /// Number of collections.
    pub collections: usize,
    /// Total documents across collections (including tombstones).
    pub documents: usize,
    /// Approximate resident bytes.
    pub bytes: usize,
    /// Bytes appended to the WAL through this handle.
    pub wal_bytes: u64,
}

/// A single-node document database.
///
/// All mutations are WAL-logged before being applied, so a crashed instance
/// reopened from the same log recovers its exact state. Reads never touch
/// the log.
pub struct Db {
    collections: BTreeMap<String, Collection>,
    wal: Wal,
    oplog: OplogRing,
    /// Mutations append WAL frames without syncing (see [`Db::set_staged`];
    /// also set inside [`Db::with_batch`], which syncs once at its end).
    staged: bool,
    /// Deterministic id source for simulated nodes (see
    /// [`Db::set_oid_machine`]). `None` falls back to [`ObjectId::new`],
    /// the wall-clock real-deployment path.
    oid_gen: Option<OidGen>,
    /// Seconds stamp for deterministically generated ids, fed from the
    /// sim clock via [`Db::set_oid_secs`].
    oid_secs: u32,
    /// When set, every mutation applied to this collection records the
    /// affected record's `self-key` into `dirty_keys` (see
    /// [`Db::track_dirty_keys`]). Merkle anti-entropy drains the set to
    /// re-hash only the touched tree leaves.
    dirty_coll: Option<String>,
    /// Self-keys touched since the last [`Db::take_dirty_keys`].
    dirty_keys: BTreeSet<String>,
}

impl Db {
    /// Opens an empty in-memory database (used by simulated nodes).
    pub fn memory() -> Self {
        Db {
            collections: BTreeMap::new(),
            wal: Wal::memory(),
            oplog: OplogRing::new(OPLOG_CAPACITY),
            staged: false,
            oid_gen: None,
            oid_secs: 0,
            dirty_coll: None,
            dirty_keys: BTreeSet::new(),
        }
    }

    /// Opens a file-backed database, replaying any existing WAL at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let frames = Wal::read_frames_from(path.as_ref())?;
        let wal = Wal::file(path)?;
        let mut db = Db {
            collections: BTreeMap::new(),
            wal,
            oplog: OplogRing::new(OPLOG_CAPACITY),
            staged: false,
            oid_gen: None,
            oid_secs: 0,
            dirty_coll: None,
            dirty_keys: BTreeSet::new(),
        };
        db.replay_frames(frames)?;
        Ok(db)
    }

    /// Simulates crash recovery: discards all in-memory state and rebuilds
    /// it purely from the WAL, keeping the log (and its metrics) attached.
    /// State that never reached the log is lost — exactly what a process
    /// crash loses — and in staged mode that includes frames above the
    /// durable watermark, staged or in a sync that has not completed (the
    /// memory backend drops them; a real machine crash drops them from the
    /// page cache). Works for both file-
    /// and memory-backed logs, so simulated restarts exercise the same
    /// replay path as real ones.
    pub fn recover_from_wal(mut self) -> Result<Db> {
        self.wal.discard_unsynced();
        let frames = self.wal.read_frames()?;
        // The in-memory id counter is part of what the crash lost: start a
        // new OidGen epoch so recovered nodes cannot re-issue pre-crash ids.
        let mut oid_gen = self.oid_gen;
        if let Some(g) = &mut oid_gen {
            g.bump_epoch();
        }
        let mut db = Db {
            collections: BTreeMap::new(),
            wal: self.wal,
            oplog: OplogRing::new(OPLOG_CAPACITY),
            staged: self.staged,
            oid_gen,
            oid_secs: self.oid_secs,
            // Tracking restarts off: whoever mirrors the store has to
            // re-scan the recovered state anyway, and replaying the log
            // into a tracked collection would mark every key dirty first.
            dirty_coll: None,
            dirty_keys: BTreeSet::new(),
        };
        db.replay_frames(frames)?;
        Ok(db)
    }

    /// Replays decoded WAL frames into memory (recovery path — no logging,
    /// no per-frame sync overhead).
    fn replay_frames(&mut self, frames: Vec<Vec<u8>>) -> Result<()> {
        for frame in frames {
            let op = WalOp::decode_bytes(&frame)?;
            self.apply_in_memory(&op)?;
        }
        Ok(())
    }

    /// Switches staged commit on or off. Off (the default), every mutation
    /// is durable when its call returns — what embedded callers rely on.
    /// On, mutations only stage their WAL frames and the caller makes them
    /// durable, blocking with [`Db::sync_wal`] or off-thread with
    /// [`Db::begin_wal_sync`] / [`Db::finish_wal_sync`] (a storage node's
    /// group commit, DESIGN.md §9). Reads see staged mutations; a crash
    /// loses exactly the frames above the durable watermark.
    pub fn set_staged(&mut self, on: bool) {
        self.staged = on;
    }

    /// Syncs any staged WAL frames and waits (one real fsync for file-backed
    /// logs). Returns how many frames the sync made durable (0 = nothing
    /// pending).
    pub fn sync_wal(&mut self) -> Result<usize> {
        self.wal.sync()
    }

    /// Starts a WAL sync whose I/O the caller runs elsewhere; see
    /// [`Wal::begin_sync`].
    pub fn begin_wal_sync(&mut self) -> Result<(u64, Option<std::fs::File>)> {
        self.wal.begin_sync()
    }

    /// Applies the outcome of the WAL sync in flight; see
    /// [`Wal::finish_sync`].
    pub fn finish_wal_sync(&mut self, ok: bool) -> usize {
        self.wal.finish_sync(ok)
    }

    /// WAL frames not yet durable. Zero means every acknowledged mutation
    /// so far would survive a crash.
    pub fn wal_pending_ops(&self) -> usize {
        self.wal.pending_ops()
    }

    /// The WAL position just past the last staged frame ([`Wal::end_pos`]).
    pub fn wal_end_pos(&self) -> u64 {
        self.wal.end_pos()
    }

    /// The WAL's durable watermark ([`Wal::durable_pos`]).
    pub fn wal_durable_pos(&self) -> u64 {
        self.wal.durable_pos()
    }

    /// Engine version (the liveness probe used by the connection pool).
    pub fn version(&self) -> &'static str {
        ENGINE_VERSION
    }

    /// Attaches registry-backed WAL metrics (see
    /// [`crate::wal::WalMetrics`]).
    pub fn set_wal_metrics(&mut self, metrics: crate::wal::WalMetrics) {
        self.wal.set_metrics(metrics);
    }

    /// Collection names in sorted order.
    pub fn collection_names(&self) -> Vec<&str> {
        self.collections.keys().map(|s| s.as_str()).collect()
    }

    /// Read access to a collection.
    pub fn collection(&self, name: &str) -> Result<&Collection> {
        self.collections.get(name).ok_or_else(|| EngineError::NoSuchCollection(name.to_string()))
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> DbStats {
        DbStats {
            collections: self.collections.len(),
            documents: self.collections.values().map(Collection::len).sum(),
            bytes: self.collections.values().map(Collection::bytes).sum(),
            wal_bytes: self.wal.appended_bytes(),
        }
    }

    // ---- replication --------------------------------------------------

    /// Highest oplog sequence number.
    pub fn last_seq(&self) -> u64 {
        self.oplog.last_seq()
    }

    /// Ops after `seq` for a catching-up follower; `None` means the history
    /// was evicted and the follower must full-resync via [`Db::full_dump`].
    pub fn ops_since(&self, seq: u64) -> Option<Vec<(u64, WalOp)>> {
        self.oplog.since(seq)
    }

    /// A full logical dump: every collection's indexes and documents as
    /// insert ops (for follower bootstrap and compaction).
    pub fn full_dump(&self) -> Vec<WalOp> {
        let mut ops = Vec::new();
        for (name, coll) in &self.collections {
            for field in coll.index_fields() {
                ops.push(WalOp::CreateIndex { coll: name.clone(), field: field.to_string() });
            }
            for (_, doc) in coll.iter() {
                ops.push(WalOp::Insert { coll: name.clone(), doc: doc.clone() });
            }
        }
        ops
    }

    /// Applies a replicated/migrated op, logging it locally as well.
    pub fn apply(&mut self, op: &WalOp) -> Result<()> {
        self.log_and_apply(op.clone()).map(|_| ())
    }

    /// Runs `f` as one commit batch: per-op WAL syncs inside are suppressed
    /// and a single covering sync is issued at the end, so callers looping
    /// over [`Db::apply`] (replication streams, bulk loads) pay one fsync
    /// instead of one per op. Everything applied in `f` is durable once
    /// this returns.
    pub fn with_batch<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        let prev = std::mem::replace(&mut self.staged, true);
        let result = f(self);
        self.staged = prev;
        self.wal.sync()?;
        result
    }

    // ---- internals ----------------------------------------------------

    fn log_and_apply(&mut self, op: WalOp) -> Result<u64> {
        self.wal.append_nosync(&op.encode_bytes())?;
        if !self.staged {
            self.wal.sync()?;
        }
        self.apply_in_memory(&op)?;
        Ok(self.oplog.push(op))
    }

    /// Applies an op to memory without logging (recovery path).
    ///
    /// This is the single funnel every mutation passes through (logged
    /// writes, batch helpers, WAL replay), which is what makes it the one
    /// correct place to capture dirty self-keys for [`Db::take_dirty_keys`].
    fn apply_in_memory(&mut self, op: &WalOp) -> Result<()> {
        let tracked = self.dirty_coll.as_deref() == Some(op.collection());
        let coll = self.collections.entry(op.collection().to_string()).or_default();
        let mut touched: Option<String> = None;
        let mut touched_prev: Option<String> = None;
        match op {
            WalOp::Insert { doc, .. } => {
                if tracked {
                    touched = doc.get_str(F_SELF_KEY).map(str::to_string);
                }
                coll.insert(doc.clone())?;
            }
            WalOp::Update { id, doc, .. } => {
                if tracked {
                    // The after-image may carry a different self-key than
                    // the document it replaces; both ranges went stale.
                    touched = doc.get_str(F_SELF_KEY).map(str::to_string);
                    touched_prev =
                        coll.get(*id).and_then(|d| d.get_str(F_SELF_KEY)).map(str::to_string);
                }
                coll.put_after_image(*id, doc.clone());
            }
            WalOp::Remove { id, .. } => {
                if tracked {
                    // The key must be read before the document is gone.
                    touched = coll.get(*id).and_then(|d| d.get_str(F_SELF_KEY)).map(str::to_string);
                }
                coll.remove(*id)?;
            }
            WalOp::CreateIndex { field, .. } => {
                coll.create_index(field)?;
            }
        }
        self.dirty_keys.extend(touched);
        self.dirty_keys.extend(touched_prev);
        Ok(())
    }

    // ---- dirty-key tracking -------------------------------------------

    /// Enables dirty self-key tracking for `coll`: from now on every
    /// applied mutation in that collection records the affected record's
    /// `self-key` until [`Db::take_dirty_keys`] drains the set. One
    /// collection at a time; calling again retargets and clears the set.
    pub fn track_dirty_keys(&mut self, coll: &str) {
        self.dirty_coll = Some(coll.to_string());
        self.dirty_keys.clear();
    }

    /// Drains and returns the self-keys touched since the last call.
    pub fn take_dirty_keys(&mut self) -> BTreeSet<String> {
        std::mem::take(&mut self.dirty_keys)
    }

    /// Touched keys currently pending (diagnostics and tests).
    pub fn dirty_key_count(&self) -> usize {
        self.dirty_keys.len()
    }
}

impl Db {
    /// Switches id generation to the deterministic [`OidGen`] path,
    /// keyed by `machine` (use the node id so ids are unique across the
    /// cluster). Simulated nodes call this at construction; without it,
    /// generated ids come from the wall-clock [`ObjectId::new`].
    pub fn set_oid_machine(&mut self, machine: u64) {
        match &mut self.oid_gen {
            Some(g) => g.set_machine(machine),
            None => self.oid_gen = Some(OidGen::new(machine)),
        }
    }

    /// Updates the seconds stamp embedded in deterministically generated
    /// ids. Feed this from the sim clock; it only affects presentation
    /// (ids sort roughly by time), never uniqueness.
    pub fn set_oid_secs(&mut self, seconds: u32) {
        self.oid_secs = seconds;
    }

    /// Issues a fresh id for `coll`: deterministic when
    /// [`Db::set_oid_machine`] was called, wall-clock otherwise. Skips
    /// ids already present in `coll` (possible when a recovered epoch
    /// counter meets documents replicated from elsewhere).
    pub fn fresh_oid(&mut self, coll: &str) -> ObjectId {
        match &mut self.oid_gen {
            Some(g) => loop {
                let id = g.next(self.oid_secs);
                let exists = self.collections.get(coll).is_some_and(|c| c.get(id).is_some());
                if !exists {
                    return id;
                }
            },
            None => ObjectId::new(),
        }
    }

    /// Inserts `doc` into `coll` (created on first use). Returns the `_id`.
    pub fn insert_doc(&mut self, coll: &str, mut doc: Document) -> Result<ObjectId> {
        use mystore_bson::Value;
        let id = match doc.get_object_id("_id") {
            Some(id) => id,
            None => {
                let id = self.fresh_oid(coll);
                let mut fresh = Document::with_capacity(doc.len() + 1);
                fresh.insert("_id", Value::ObjectId(id));
                for (k, v) in std::mem::take(&mut doc).into_iter() {
                    fresh.insert(k, v);
                }
                doc = fresh;
                id
            }
        };
        if let Some(c) = self.collections.get(coll) {
            if c.get(id).is_some() {
                return Err(EngineError::DuplicateId(id.to_hex()));
            }
        }
        self.log_and_apply(WalOp::Insert { coll: coll.to_string(), doc })?;
        Ok(id)
    }

    /// Applies an update to the document with `id` in `coll`.
    pub fn update_by_id(&mut self, coll: &str, id: ObjectId, update: &Update) -> Result<()> {
        let c = self.collection(coll)?;
        let mut after = c.get(id).ok_or(EngineError::NotFound)?.clone();
        update.apply(&mut after)?;
        self.log_and_apply(WalOp::Update { coll: coll.to_string(), id, doc: after })?;
        Ok(())
    }

    /// Applies an update to every document matching `filter`; returns the
    /// number updated.
    pub fn update_many(&mut self, coll: &str, filter: &Filter, update: &Update) -> Result<usize> {
        let c = self.collection(coll)?;
        let ids: Vec<ObjectId> =
            c.iter().filter(|(_, d)| filter.matches(d)).map(|(id, _)| *id).collect();
        for id in &ids {
            self.update_by_id(coll, *id, update)?;
        }
        Ok(ids.len())
    }

    /// Replaces a document wholesale (upsert semantics: inserts if absent).
    pub fn put_after_image(&mut self, coll: &str, id: ObjectId, doc: Document) -> Result<()> {
        self.log_and_apply(WalOp::Update { coll: coll.to_string(), id, doc })?;
        Ok(())
    }

    /// Physically removes a document (compaction/reaper path).
    pub fn remove(&mut self, coll: &str, id: ObjectId) -> Result<()> {
        // Validate first so a failed remove doesn't pollute the log.
        if self.collection(coll)?.get(id).is_none() {
            return Err(EngineError::NotFound);
        }
        self.log_and_apply(WalOp::Remove { coll: coll.to_string(), id })?;
        Ok(())
    }

    /// Creates a single-field index on `coll` (collection created if absent).
    pub fn create_index(&mut self, coll: &str, field: &str) -> Result<()> {
        if let Some(c) = self.collections.get(coll) {
            if c.index_fields().contains(&field) {
                return Err(EngineError::IndexExists(field.to_string()));
            }
        }
        self.log_and_apply(WalOp::CreateIndex {
            coll: coll.to_string(),
            field: field.to_string(),
        })?;
        Ok(())
    }

    // The read-path query API (find/count/get/distinct/aggregate) lives in
    // [`crate::queries`].

    // ---- record-level helpers (MyStore layout) -------------------------

    /// Stores a [`Record`] with LWW semantics: an existing record under the
    /// same `self-key` is replaced only by a strictly newer version.
    /// Returns `true` if the write took effect.
    pub fn put_record(&mut self, coll: &str, record: &Record) -> Result<bool> {
        let existing = self.get_record(coll, &record.self_key)?;
        match existing {
            Some(old) if !record.wins_over(&old) => Ok(false),
            Some(old) => {
                self.put_after_image(coll, old.id, {
                    let mut d = record.to_document();
                    // Keep the incumbent _id stable across updates.
                    d.insert("_id", mystore_bson::Value::ObjectId(old.id));
                    d
                })?;
                Ok(true)
            }
            None => {
                self.insert_doc(coll, record.to_document())?;
                Ok(true)
            }
        }
    }

    /// Fetches the record stored under `self_key` (tombstones included).
    pub fn get_record(&self, coll: &str, self_key: &str) -> Result<Option<Record>> {
        let c = match self.collections.get(coll) {
            Some(c) => c,
            None => return Ok(None),
        };
        let filter = Filter::Eq(F_SELF_KEY.to_string(), self_key.into());
        let hit = c.find(&filter, &FindOptions::default().limit(1)).into_iter().next();
        hit.map(|d| Record::from_document(&d)).transpose()
    }

    // ---- maintenance ----------------------------------------------------

    /// Physically removes tombstones (`isDel = "1"`) in `coll` whose LWW
    /// version is strictly below `older_than_version` — the deferred
    /// reclamation of §3.3's logical deletes. The caller chooses a cutoff
    /// comfortably older than any in-flight repair/hint window, or a
    /// purged key could be resurrected by a stale replica.
    pub fn reap_tombstones(&mut self, coll: &str, older_than_version: u64) -> Result<usize> {
        let Some(c) = self.collections.get(coll) else { return Ok(0) };
        let victims: Vec<ObjectId> = c
            .iter()
            .filter(|(_, d)| {
                d.get_str(F_IS_DEL) == Some("1")
                    && matches!(d.get(crate::record::F_VERSION),
                        Some(mystore_bson::Value::Timestamp(v)) if *v < older_than_version)
            })
            .map(|(id, _)| *id)
            .collect();
        let n = victims.len();
        for id in victims {
            self.remove(coll, id)?;
        }
        Ok(n)
    }

    /// Rewrites the WAL to the minimal logical dump. With
    /// `purge_tombstones`, records flagged `isDel = "1"` are physically
    /// dropped (the paper's deferred reclamation of logical deletes).
    pub fn compact(&mut self, purge_tombstones: bool) -> Result<usize> {
        let mut purged = 0usize;
        if purge_tombstones {
            let targets: Vec<(String, ObjectId)> = self
                .collections
                .iter()
                .flat_map(|(name, coll)| {
                    coll.iter()
                        .filter(|(_, d)| d.get_str(F_IS_DEL) == Some("1"))
                        .map(|(id, _)| (name.clone(), *id))
                        .collect::<Vec<_>>()
                })
                .collect();
            for (coll, id) in targets {
                // Remove directly from memory; the rewrite below persists it.
                if let Some(c) = self.collections.get_mut(&coll) {
                    let _ = c.remove(id);
                    purged += 1;
                }
            }
        }
        let frames: Vec<Vec<u8>> = self.full_dump().iter().map(WalOp::encode_bytes).collect();
        self.wal.rewrite(&frames)?;
        Ok(purged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::pack_version;
    use mystore_bson::{doc, Value};

    #[test]
    fn insert_find_update_remove_cycle() {
        let mut db = Db::memory();
        let id = db.insert_doc("data", doc! { "k": "a", "n": 1 }).unwrap();
        assert_eq!(db.count("data", &Filter::True).unwrap(), 1);
        let u = Update::parse(&doc! { "$inc": doc! { "n": 1 } }).unwrap();
        db.update_by_id("data", id, &u).unwrap();
        assert_eq!(db.get("data", id).unwrap().unwrap().get_i64("n"), Some(2));
        db.remove("data", id).unwrap();
        assert_eq!(db.count("data", &Filter::True).unwrap(), 0);
        assert!(db.remove("data", id).is_err());
    }

    #[test]
    fn unknown_collection_errors() {
        let db = Db::memory();
        assert!(matches!(
            db.find("nope", &Filter::True, &FindOptions::default()),
            Err(EngineError::NoSuchCollection(_))
        ));
    }

    #[test]
    fn update_many_counts() {
        let mut db = Db::memory();
        for i in 0..10 {
            db.insert_doc("d", doc! { "g": i % 2, "n": 0 }).unwrap();
        }
        let f = Filter::parse(&doc! { "g": 0 }).unwrap();
        let u = Update::parse(&doc! { "$set": doc! { "n": 9 } }).unwrap();
        assert_eq!(db.update_many("d", &f, &u).unwrap(), 5);
        let g = Filter::parse(&doc! { "n": 9 }).unwrap();
        assert_eq!(db.count("d", &g).unwrap(), 5);
    }

    #[test]
    fn dirty_key_tracking_captures_every_mutation_path() {
        let mut db = Db::memory();
        db.create_index("d", "self-key").unwrap();
        db.track_dirty_keys("d");

        // Insert, LWW update, logical delete, physical reap — each must
        // surface the touched self-key exactly once per drain.
        let a = Record::new(ObjectId::from_parts(1, 1, 1), "ka", vec![1], pack_version(10, 0));
        db.put_record("d", &a).unwrap();
        assert_eq!(db.take_dirty_keys().into_iter().collect::<Vec<_>>(), ["ka"]);

        let mut a2 = a.clone();
        a2.val = vec![2];
        a2.version = pack_version(20, 0);
        db.put_record("d", &a2).unwrap();
        let mut t = Record::tombstone(ObjectId::from_parts(1, 1, 2), "kb", pack_version(30, 0));
        db.put_record("d", &t).unwrap();
        assert_eq!(db.take_dirty_keys().into_iter().collect::<Vec<_>>(), ["ka", "kb"]);

        // An LWW-stale write mutates nothing and must dirty nothing.
        t.version = pack_version(5, 0);
        db.put_record("d", &t).unwrap();
        assert_eq!(db.dirty_key_count(), 0);

        assert_eq!(db.reap_tombstones("d", pack_version(40, 0)).unwrap(), 1);
        assert_eq!(db.take_dirty_keys().into_iter().collect::<Vec<_>>(), ["kb"]);

        // Untracked collections stay silent.
        db.insert_doc("other", doc! { "self-key": "kz" }).unwrap();
        assert_eq!(db.dirty_key_count(), 0);
    }

    #[test]
    fn crash_recovery_replays_wal() {
        let dir = std::env::temp_dir().join(format!("mystore-db-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("recover.wal");
        let _ = std::fs::remove_file(&path);
        let id;
        {
            let mut db = Db::open(&path).unwrap();
            db.create_index("d", "self-key").unwrap();
            id = db.insert_doc("d", doc! { "self-key": "k1", "v": 1 }).unwrap();
            db.insert_doc("d", doc! { "self-key": "k2", "v": 2 }).unwrap();
            let u = Update::parse(&doc! { "$set": doc! { "v": 10 } }).unwrap();
            db.update_by_id("d", id, &u).unwrap();
            // db dropped without any shutdown handshake = crash.
        }
        let db = Db::open(&path).unwrap();
        assert_eq!(db.count("d", &Filter::True).unwrap(), 2);
        assert_eq!(db.get("d", id).unwrap().unwrap().get_i64("v"), Some(10));
        // Index survived and is used.
        let f = Filter::parse(&doc! { "self-key": "k2" }).unwrap();
        let (_, explain) = db.find_explain("d", &f, &FindOptions::default()).unwrap();
        assert_eq!(explain.used_index.as_deref(), Some("self-key"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recover_from_wal_rebuilds_memory_backed_db() {
        let mut db = Db::memory();
        db.create_index("d", "self-key").unwrap();
        let id = db.insert_doc("d", doc! { "self-key": "k1", "v": 1 }).unwrap();
        db.insert_doc("d", doc! { "self-key": "k2", "v": 2 }).unwrap();
        let u = Update::parse(&doc! { "$set": doc! { "v": 10 } }).unwrap();
        db.update_by_id("d", id, &u).unwrap();

        // Simulated crash-restart: rebuild purely from the log frames.
        let db = db.recover_from_wal().unwrap();
        assert_eq!(db.count("d", &Filter::True).unwrap(), 2);
        assert_eq!(db.get("d", id).unwrap().unwrap().get_i64("v"), Some(10));
        let f = Filter::parse(&doc! { "self-key": "k2" }).unwrap();
        let (_, explain) = db.find_explain("d", &f, &FindOptions::default()).unwrap();
        assert_eq!(explain.used_index.as_deref(), Some("self-key"));
    }

    #[test]
    fn deterministic_oids_are_stable_and_survive_recovery() {
        let make = || {
            let mut db = Db::memory();
            db.set_oid_machine(7);
            db.set_oid_secs(1234);
            let ids: Vec<ObjectId> =
                (0..5).map(|i| db.insert_doc("d", doc! { "n": i }).unwrap()).collect();
            (db, ids)
        };
        let (db_a, ids_a) = make();
        let (_db_b, ids_b) = make();
        assert_eq!(ids_a, ids_b, "same machine/secs/order must mint the same ids");

        // Recovery bumps the OidGen epoch: new ids must not collide with
        // any id handed out before the crash, even though the in-memory
        // counter was lost.
        let mut recovered = db_a.recover_from_wal().unwrap();
        assert_eq!(recovered.count("d", &Filter::True).unwrap(), 5);
        for i in 0..5 {
            let id = recovered.insert_doc("d", doc! { "n": 100 + i }).unwrap();
            assert!(!ids_a.contains(&id), "post-recovery id {id} reuses a pre-crash id");
        }
    }

    #[test]
    fn fresh_oid_skips_ids_already_in_collection() {
        let mut db = Db::memory();
        db.set_oid_machine(3);
        // Pre-seed the exact id the generator would mint first (epoch 0,
        // counter 0): fresh_oid must step over it.
        let clash = ObjectId::from_parts(0, 3 << 16, 0);
        let mut doc = doc! { "planted": true };
        doc.insert("_id", Value::ObjectId(clash));
        db.insert_doc("d", doc).unwrap();
        let id = db.insert_doc("d", doc! { "n": 1 }).unwrap();
        assert_ne!(id, clash, "generator must skip an id already present");
        assert_eq!(db.count("d", &Filter::True).unwrap(), 2);
    }

    #[test]
    fn record_lww_semantics() {
        let mut db = Db::memory();
        let r1 = Record::new(ObjectId::from_parts(1, 1, 1), "key", vec![1], pack_version(10, 0));
        let r2 = Record::new(ObjectId::from_parts(1, 1, 2), "key", vec![2], pack_version(20, 0));
        assert!(db.put_record("data", &r1).unwrap());
        assert!(db.put_record("data", &r2).unwrap());
        // Stale write is rejected.
        assert!(!db.put_record("data", &r1).unwrap());
        let got = db.get_record("data", "key").unwrap().unwrap();
        assert_eq!(got.val, vec![2]);
        // _id remains the original insert's.
        assert_eq!(got.id, ObjectId::from_parts(1, 1, 1));
        // Only one physical document for the key.
        assert_eq!(db.count("data", &Filter::True).unwrap(), 1);
    }

    #[test]
    fn tombstone_then_compact_purges() {
        let mut db = Db::memory();
        let live = Record::new(ObjectId::from_parts(1, 1, 1), "keep", vec![1], 1);
        let dead = Record::tombstone(ObjectId::from_parts(1, 1, 2), "gone", 2);
        db.put_record("data", &live).unwrap();
        db.put_record("data", &dead).unwrap();
        assert_eq!(db.count("data", &Filter::True).unwrap(), 2);
        let purged = db.compact(true).unwrap();
        assert_eq!(purged, 1);
        assert_eq!(db.count("data", &Filter::True).unwrap(), 1);
        assert!(db.get_record("data", "gone").unwrap().is_none());
        assert!(db.get_record("data", "keep").unwrap().is_some());
    }

    #[test]
    fn oplog_feeds_follower() {
        let mut master = Db::memory();
        let mut slave = Db::memory();
        master.create_index("d", "self-key").unwrap();
        for i in 0..5 {
            master.insert_doc("d", doc! { "self-key": format!("k{i}"), "v": i }).unwrap();
        }
        // Follower applies everything since 0.
        for (_, op) in master.ops_since(0).unwrap() {
            slave.apply(&op).unwrap();
        }
        assert_eq!(slave.count("d", &Filter::True).unwrap(), 5);
        assert_eq!(slave.last_seq(), master.last_seq());
        // Incremental catch-up.
        let mark = slave.last_seq();
        master.insert_doc("d", doc! { "self-key": "k9", "v": 9 }).unwrap();
        let tail = master.ops_since(mark).unwrap();
        assert_eq!(tail.len(), 1);
        for (_, op) in tail {
            slave.apply(&op).unwrap();
        }
        assert_eq!(slave.count("d", &Filter::True).unwrap(), 6);
    }

    #[test]
    fn full_dump_bootstraps_empty_follower() {
        let mut master = Db::memory();
        master.create_index("d", "self-key").unwrap();
        for i in 0..4 {
            master.insert_doc("d", doc! { "self-key": format!("k{i}") }).unwrap();
        }
        let mut follower = Db::memory();
        for op in master.full_dump() {
            follower.apply(&op).unwrap();
        }
        assert_eq!(follower.count("d", &Filter::True).unwrap(), 4);
        assert_eq!(follower.collection("d").unwrap().index_fields(), vec!["self-key"]);
    }

    #[test]
    fn stats_track_sizes() {
        let mut db = Db::memory();
        db.insert_doc("a", doc! { "x": Value::Binary(vec![0u8; 1000]) }).unwrap();
        db.insert_doc("b", doc! { "y": 1 }).unwrap();
        let s = db.stats();
        assert_eq!(s.collections, 2);
        assert_eq!(s.documents, 2);
        assert!(s.bytes > 1000);
        assert!(s.wal_bytes > 1000);
    }

    #[test]
    fn version_is_exposed() {
        assert!(Db::memory().version().contains("mystore-engine"));
    }

    #[test]
    fn staged_mode_defers_sync_until_sync_wal() {
        let reg = mystore_obs::Registry::new();
        let mut db = Db::memory();
        db.set_wal_metrics(crate::wal::WalMetrics::from_registry(&reg));
        db.set_staged(true);
        for i in 0..3 {
            db.insert_doc("d", doc! { "k": i }).unwrap();
        }
        assert_eq!(db.wal_pending_ops(), 3, "staged, not synced");
        assert_eq!(db.count("d", &Filter::True).unwrap(), 3, "reads see staged writes");
        assert_eq!(reg.snapshot().counters["wal.fsyncs"], 0);
        assert_eq!(db.sync_wal().unwrap(), 3, "one sync covers the batch");
        assert_eq!(reg.snapshot().counters["wal.fsyncs"], 1);
        // A batch helper still returns durable, and leaves staging on.
        db.with_batch(|db| db.insert_doc("d", doc! { "k": 8 })).unwrap();
        assert_eq!(db.wal_pending_ops(), 0);
        db.insert_doc("d", doc! { "k": 9 }).unwrap();
        assert_eq!(db.wal_pending_ops(), 1);
        // Back to the default: durable on return.
        db.set_staged(false);
        db.insert_doc("d", doc! { "k": 10 }).unwrap();
        assert_eq!(db.wal_pending_ops(), 0);
    }

    #[test]
    fn crash_in_staged_mode_loses_only_unsynced_ops() {
        let mut db = Db::memory();
        db.set_staged(true);
        db.insert_doc("d", doc! { "self-key": "durable" }).unwrap();
        db.sync_wal().unwrap();
        db.insert_doc("d", doc! { "self-key": "staged" }).unwrap();
        assert_eq!(db.count("d", &Filter::True).unwrap(), 2);
        let db = db.recover_from_wal().unwrap();
        let keys: Vec<_> = db
            .find("d", &Filter::True, &FindOptions::default())
            .unwrap()
            .iter()
            .filter_map(|d| d.get_str("self-key").map(str::to_string))
            .collect();
        assert_eq!(keys, vec!["durable".to_string()], "unsynced op must not survive the crash");
    }
}
