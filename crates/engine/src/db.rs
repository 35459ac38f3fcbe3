//! The database: named collections, write-ahead logging, crash recovery
//! and compaction.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;

use mystore_bson::{Document, ObjectId, OidGen};

use crate::collection::{point_of, Collection, KeyPoint, Stored};
use crate::error::{EngineError, Result};
use crate::oplog::{parse_frame, put_frame, remove_frame, restore_frame, FrameOp};
use crate::record::{Record, F_IS_DEL, F_SELF_KEY, F_VERSION};
use crate::wal::{Frame, Wal};

/// A mutation to apply to one document.
enum Change {
    /// Store this document; `insert` refuses an id already present;
    /// `point` is its `self-key`'s point, if computed already.
    Put { doc: Stored, insert: bool, point: Option<u64> },
    /// Remove the document.
    Remove,
}

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
/// reopened from the same log recovers its exact state. Each stored document
/// is the range of the WAL frame that logged it: a write encodes its op
/// once, straight into the frame, and the collection keeps that frame (which
/// the memory backend's log holds as well). Reads never touch the log.
pub struct Db {
    collections: BTreeMap<String, Collection>,
    wal: Wal,
    /// Mutations logged through this handle ([`Db::last_seq`]).
    logged: u64,
    /// Mutations append WAL frames without syncing (see [`Db::set_staged`]).
    staged: bool,
    /// Deterministic id source for simulated nodes (see
    /// [`Db::set_oid_machine`]). `None` falls back to [`ObjectId::new`],
    /// the wall-clock real-deployment path.
    oid_gen: Option<OidGen>,
    /// Seconds stamp for deterministically generated ids, fed from the
    /// sim clock via [`Db::set_oid_secs`].
    oid_secs: u32,
    /// The order of every collection's key map (see [`Db::set_key_point`]).
    key_point: Option<KeyPoint>,
}

impl Db {
    /// An empty database logging to `wal`.
    fn with_wal(wal: Wal) -> Self {
        Db {
            collections: BTreeMap::new(),
            wal,
            logged: 0,
            staged: false,
            oid_gen: None,
            oid_secs: 0,
            key_point: None,
        }
    }

    /// Opens an empty in-memory database (used by simulated nodes).
    pub fn memory() -> Self {
        Db::with_wal(Wal::memory())
    }

    /// Opens a file-backed database, replaying any existing WAL at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let (wal, frames) = Wal::open(path)?;
        let mut db = Db::with_wal(wal);
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
    /// replay path as real ones. Staged mode and the key order carry over.
    pub fn recover_from_wal(mut self) -> Result<Db> {
        self.wal.discard_unsynced();
        let frames = self.wal.frames()?;
        // The in-memory id counter is part of what the crash lost: start a
        // new OidGen epoch so recovered nodes cannot re-issue pre-crash ids.
        let mut oid_gen = self.oid_gen;
        if let Some(g) = &mut oid_gen {
            g.bump_epoch();
        }
        let mut db = Db {
            staged: self.staged,
            oid_gen,
            oid_secs: self.oid_secs,
            key_point: self.key_point,
            ..Db::with_wal(self.wal)
        };
        db.replay_frames(frames)?;
        Ok(db)
    }

    /// Replays checked WAL frames into memory (recovery path — no logging,
    /// no per-frame sync overhead). Each frame's op is read in place, and
    /// a put stores its document as a range of the frame.
    fn replay_frames(&mut self, frames: Vec<Frame>) -> Result<()> {
        for frame in frames {
            let (coll, id, change) = match parse_frame(&frame)? {
                FrameOp::Put { coll, id, doc, insert } => {
                    let doc = Stored::new(Frame::clone(&frame), doc);
                    (coll, id, Change::Put { doc, insert, point: None })
                }
                FrameOp::Remove { coll, id } => (coll, id, Change::Remove),
                // Every collection keeps its `self-key` map already.
                FrameOp::Nothing => continue,
            };
            self.apply(coll, id, change)?;
        }
        Ok(())
    }

    /// Orders every collection's key map by `(point(self-key), self-key)`
    /// from now on, re-keying what the collections hold (what WAL replay
    /// loaded, say), so [`Collection::scan_points`] reads a range of
    /// points as one ordered scan. Without it every key sits at point 0
    /// and the order is the keys' own. Keyed reads probe the map the same
    /// way under either order.
    pub fn set_key_point(&mut self, point: KeyPoint) {
        self.key_point = Some(point);
        for c in self.collections.values_mut() {
            c.set_key_point(point);
        }
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

    /// How many mutations this handle has logged since it was opened or
    /// recovered (0 until the first). Replay does not count, so a caller
    /// that compares two readings learns whether anything was written in
    /// between (anti-entropy's idle backoff does exactly that).
    pub fn last_seq(&self) -> u64 {
        self.logged
    }

    // ---- internals ----------------------------------------------------

    /// Stages a frame `put_frame` or `remove_frame` wrote (synced unless
    /// staged) and returns it sealed.
    fn log(&mut self, buf: Vec<u8>) -> Result<Frame> {
        let frame = self.wal.append_frame(buf)?;
        if !self.staged {
            self.wal.sync()?;
        }
        self.logged += 1;
        Ok(frame)
    }

    /// Logs a put of the document with `id` into `coll`, whose frame
    /// `put_frame` wrote with the document at `doc`, and applies it;
    /// `point` is the document's `self-key` point, if computed already.
    fn log_put(
        &mut self,
        coll: &str,
        id: ObjectId,
        insert: bool,
        point: Option<u64>,
        put: (Vec<u8>, Range<usize>),
    ) -> Result<()> {
        let (buf, doc) = put;
        let frame = self.log(buf)?;
        self.apply(coll, id, Change::Put { doc: Stored::new(frame, doc), insert, point })
    }

    /// Applies a logged or replayed change to memory: the one funnel
    /// every mutation passes through (logged writes and WAL replay).
    fn apply(&mut self, coll: &str, id: ObjectId, change: Change) -> Result<()> {
        match change {
            Change::Put { doc, insert, point } => {
                let c = match self.collections.get_mut(coll) {
                    Some(c) => c,
                    None => self
                        .collections
                        .entry(coll.to_string())
                        .or_insert_with(|| Collection::keyed_by(self.key_point)),
                };
                if insert && c.contains(id) {
                    return Err(EngineError::DuplicateId(id.to_hex()));
                }
                c.put(id, doc, point);
            }
            Change::Remove => {
                let c = self.collections.get_mut(coll).ok_or(EngineError::NotFound)?;
                c.remove(id)?;
            }
        }
        Ok(())
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
                let exists = self.collections.get(coll).is_some_and(|c| c.contains(id));
                if !exists {
                    return id;
                }
            },
            None => ObjectId::new(),
        }
    }

    /// Inserts `doc` into `coll` (created on first use). Returns the `_id`;
    /// a document without one gets a fresh id as its first field.
    pub fn insert_doc(&mut self, coll: &str, doc: Document) -> Result<ObjectId> {
        let (id, fresh) = match doc.get_object_id("_id") {
            Some(id) => (id, false),
            None => (self.fresh_oid(coll), true),
        };
        if self.collections.get(coll).is_some_and(|c| c.contains(id)) {
            return Err(EngineError::DuplicateId(id.to_hex()));
        }
        let len = doc.encoded_size() + if fresh { ID_ELEMENT } else { 0 };
        let put = put_frame(coll, None, len, |d| {
            if fresh {
                // _id leads the document, like MongoDB.
                d.object_id("_id", id);
            }
            for (k, v) in doc.iter() {
                d.value(k, v);
            }
        });
        self.log_put(coll, id, true, None, put)?;
        Ok(id)
    }

    /// Replaces a document wholesale (upsert semantics: inserts if absent).
    pub fn put_after_image(&mut self, coll: &str, id: ObjectId, doc: Document) -> Result<()> {
        let put = put_frame(coll, Some(id), doc.encoded_size(), |d| {
            for (k, v) in doc.iter() {
                d.value(k, v);
            }
        });
        self.log_put(coll, id, false, None, put)
    }

    /// Physically removes a document (compaction/reaper path).
    pub fn remove(&mut self, coll: &str, id: ObjectId) -> Result<()> {
        // Validate first so a failed remove doesn't pollute the log.
        if !self.collection(coll)?.contains(id) {
            return Err(EngineError::NotFound);
        }
        self.log(remove_frame(coll, id))?;
        self.apply(coll, id, Change::Remove)
    }

    /// Accepts an index on `self-key`, which every collection keeps
    /// already, and logs nothing; any other field is an error.
    pub fn create_index(&self, _coll: &str, field: &str) -> Result<()> {
        if field == F_SELF_KEY {
            Ok(())
        } else {
            Err(EngineError::UnindexedField(field.to_string()))
        }
    }

    // ---- record-level helpers (MyStore layout) -------------------------

    /// Stores a [`Record`] with LWW semantics: an existing record under the
    /// same `self-key` is replaced only by a strictly newer version.
    /// Returns `true` if the write took effect. The record is encoded once,
    /// straight into its WAL frame, which then holds the stored document.
    pub fn put_record(&mut self, coll: &str, record: &Record) -> Result<bool> {
        // One point serves the probe and, for a new key, the key map.
        let point = point_of(self.key_point, &record.self_key);
        let incumbent = self.collections.get(coll).and_then(|c| c.get_at(point, &record.self_key));
        let (id, update) = match incumbent.map(|d| Record::stored_stamp(&d)).transpose()? {
            Some((_, version)) if !record.wins_over_version(version) => return Ok(false),
            // Keep the incumbent _id stable across updates.
            Some((id, _)) => (id, Some(id)),
            None if self.collections.get(coll).is_some_and(|c| c.contains(record.id)) => {
                return Err(EngineError::DuplicateId(record.id.to_hex()));
            }
            None => (record.id, None),
        };
        let put = put_frame(coll, update, record.encoded_len(), |d| record.write_fields(d, id));
        self.log_put(coll, id, update.is_none(), Some(point), put)?;
        Ok(true)
    }

    /// Fetches the record stored under `self_key` (tombstones included),
    /// copying its payload once out of the stored document.
    pub fn get_record(&self, coll: &str, self_key: &str) -> Result<Option<Record>> {
        let raw = self.collections.get(coll).and_then(|c| c.get_by_self_key(self_key));
        raw.map(|d| Record::from_raw(&d)).transpose()
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
                    && d.get_timestamp(F_VERSION).is_some_and(|v| v < older_than_version)
            })
            .map(|(id, _)| *id)
            .collect();
        let n = victims.len();
        for id in victims {
            self.remove(coll, id)?;
        }
        Ok(n)
    }

    /// Rewrites the WAL to the minimal logical dump: every stored document
    /// re-logged as an insert, its bytes copied once into the new frame,
    /// which the document then lives in. With `purge_tombstones`, records
    /// flagged `isDel = "1"` are physically dropped (the paper's deferred
    /// reclamation of logical deletes).
    pub fn compact(&mut self, purge_tombstones: bool) -> Result<usize> {
        let mut purged = 0usize;
        if purge_tombstones {
            for coll in self.collections.values_mut() {
                let dead: Vec<ObjectId> = coll
                    .iter()
                    .filter(|(_, d)| d.get_str(F_IS_DEL) == Some("1"))
                    .map(|(id, _)| *id)
                    .collect();
                for id in dead {
                    // Remove directly from memory; the rewrite below persists it.
                    if coll.remove(id).is_ok() {
                        purged += 1;
                    }
                }
            }
        }
        let mut bufs = Vec::new();
        let mut docs = Vec::new();
        for (name, coll) in &self.collections {
            for (id, stored) in coll.stored() {
                let (buf, doc) = restore_frame(name, *id, stored.raw());
                bufs.push(buf);
                docs.push(doc);
            }
        }
        let frames = self.wal.rewrite(bufs)?;
        let mut fresh = frames.into_iter().zip(docs).map(|(f, doc)| Stored::new(f, doc));
        for coll in self.collections.values_mut() {
            coll.repoint(&mut fresh);
        }
        Ok(purged)
    }
}

/// Bytes of an `_id` element: type, `"_id\0"`, the 12-byte id.
const ID_ELEMENT: usize = 1 + 4 + 12;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::pack_version;
    use mystore_bson::{doc, Value};

    /// Documents in `coll` (0 when it does not exist).
    fn count(db: &Db, coll: &str) -> usize {
        db.collection(coll).map_or(0, Collection::len)
    }

    /// Field `f` of the document with `id` in `coll`.
    fn int_field(db: &Db, coll: &str, id: ObjectId, f: &str) -> Option<i64> {
        db.collection(coll).ok()?.get(id)?.get_i64(f)
    }

    std::thread_local! {
        /// Calls of [`counting_point`] on this thread.
        static POINTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// A key point function that counts its calls.
    fn counting_point(key: &[u8]) -> u64 {
        POINTS.with(|n| n.set(n.get() + 1));
        key.iter().map(|&b| u64::from(b)).sum()
    }

    #[test]
    fn put_record_computes_one_point_per_call() {
        let mut db = Db::memory();
        db.set_key_point(counting_point);
        let mut points_of = |r: &Record| {
            let before = POINTS.with(std::cell::Cell::get);
            db.put_record("d", r).unwrap();
            POINTS.with(std::cell::Cell::get) - before
        };
        let r = Record::new(ObjectId::from_parts(1, 1, 1), "key", vec![1], pack_version(10, 0));
        assert_eq!(points_of(&r), 1, "an insert");
        let newer = Record { val: vec![2], version: pack_version(20, 0), ..r.clone() };
        assert_eq!(points_of(&newer), 1, "an update");
        assert_eq!(points_of(&r), 1, "a stale write");
        assert_eq!(db.get_record("d", "key").unwrap(), Some(newer));
    }

    #[test]
    fn insert_replace_remove_cycle() {
        let mut db = Db::memory();
        let id = db.insert_doc("data", doc! { "k": "a", "n": 1 }).unwrap();
        assert_eq!(count(&db, "data"), 1);
        db.put_after_image("data", id, doc! { "_id": Value::ObjectId(id), "k": "a", "n": 2 })
            .unwrap();
        assert_eq!(int_field(&db, "data", id, "n"), Some(2));
        db.remove("data", id).unwrap();
        assert_eq!(count(&db, "data"), 0);
        assert!(db.remove("data", id).is_err());
    }

    #[test]
    fn insert_assigns_a_leading_id_and_rejects_duplicates() {
        let mut db = Db::memory();
        let id = db.insert_doc("d", doc! { "a": 1 }).unwrap();
        let stored = db.collection("d").unwrap().get(id).unwrap().to_document().unwrap();
        assert_eq!(stored.get_object_id("_id"), Some(id));
        assert_eq!(stored.keys().next().map(|s| s.as_str()), Some("_id"));
        let logged = db.last_seq();
        let dup = doc! { "_id": Value::ObjectId(id), "b": 2 };
        assert!(matches!(db.insert_doc("d", dup), Err(EngineError::DuplicateId(_))));
        let r = Record::new(id, "other-key", vec![1], 5);
        assert!(matches!(db.put_record("d", &r), Err(EngineError::DuplicateId(_))));
        assert_eq!(db.last_seq(), logged, "a refused insert logs nothing");
    }

    /// The frame the record under `key` in `coll` lives in.
    fn frame_of<'a>(db: &'a Db, coll: &str, key: &str) -> &'a Frame {
        let c = db.collection(coll).unwrap();
        let id = c.get_by_self_key(key).unwrap().get_object_id("_id").unwrap();
        c.frame_of(id).unwrap()
    }

    /// True when the memory log holds the very buffer `key`'s record lives in.
    fn log_holds(db: &Db, coll: &str, key: &str) -> bool {
        let frame = frame_of(db, coll, key);
        db.wal.held_frames().iter().any(|f| std::sync::Arc::ptr_eq(f, frame))
    }

    #[test]
    fn the_memory_log_and_the_store_share_each_records_frame() {
        let mut db = Db::memory();
        let a = Record::new(ObjectId::from_parts(1, 1, 1), "a", vec![1; 64], pack_version(10, 0));
        let b = Record::new(ObjectId::from_parts(1, 1, 2), "b", vec![2; 64], pack_version(10, 0));
        let mut a2 = a.clone();
        (a2.val, a2.version) = (vec![3; 64], pack_version(20, 0));
        for r in [&a, &b, &a2] {
            assert!(db.put_record("d", r).unwrap());
        }
        let last = db.wal.held_frames().last().unwrap();
        assert!(std::sync::Arc::ptr_eq(last, frame_of(&db, "d", "a")), "after a write");
        assert!(log_holds(&db, "d", "b"));

        db.compact(false).unwrap();
        assert_eq!(db.wal.held_frames().len(), 2, "one frame per live record");
        assert!(log_holds(&db, "d", "a") && log_holds(&db, "d", "b"), "after compaction");

        let db = db.recover_from_wal().unwrap();
        assert!(log_holds(&db, "d", "a") && log_holds(&db, "d", "b"), "after recovery");
        assert_eq!(db.get_record("d", "a").unwrap().unwrap().val, a2.val);
        assert_eq!(db.get_record("d", "b").unwrap().unwrap(), b);
    }

    #[test]
    fn unknown_collection_errors_on_access_and_reads_as_empty() {
        let db = Db::memory();
        assert!(matches!(db.collection("nope"), Err(EngineError::NoSuchCollection(_))));
        assert!(db.get_record("nope", "k").unwrap().is_none());
    }

    #[test]
    fn a_stored_document_that_is_not_a_record_reads_as_corrupt() {
        let mut db = Db::memory();
        db.insert_doc("d", doc! { "self-key": "k" }).unwrap();
        let id = ObjectId::from_parts(9, 9, 9);
        db.put_after_image("d", id, doc! { "self-key": "nameless" }).unwrap();
        assert!(db.get_record("d", "k").unwrap().is_some(), "val and ver default");
        let err = db.get_record("d", "nameless").unwrap_err();
        assert!(matches!(err, EngineError::Corrupt { .. }), "{err}");
        let r = Record::new(ObjectId::from_parts(1, 1, 1), "nameless", vec![1], 5);
        assert!(matches!(db.put_record("d", &r), Err(EngineError::Corrupt { .. })));
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
            id = db.insert_doc("d", doc! { "self-key": "k1", "v": 1 }).unwrap();
            db.insert_doc("d", doc! { "self-key": "k2", "v": 2 }).unwrap();
            let after = doc! { "_id": Value::ObjectId(id), "self-key": "k1", "v": 10 };
            db.put_after_image("d", id, after).unwrap();
            // db dropped without any shutdown handshake = crash.
        }
        let db = Db::open(&path).unwrap();
        assert_eq!(count(&db, "d"), 2);
        assert_eq!(int_field(&db, "d", id, "v"), Some(10));
        // The key map was rebuilt and answers keyed reads.
        let c = db.collection("d").unwrap();
        assert_eq!(c.get_by_self_key("k2").unwrap().get_i64("v"), Some(2));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recover_from_wal_rebuilds_memory_backed_db() {
        let mut db = Db::memory();
        let id = db.insert_doc("d", doc! { "self-key": "k1", "v": 1 }).unwrap();
        db.insert_doc("d", doc! { "self-key": "k2", "v": 2 }).unwrap();
        let after = doc! { "_id": Value::ObjectId(id), "self-key": "k1", "v": 10 };
        db.put_after_image("d", id, after).unwrap();

        // Simulated crash-restart: rebuild purely from the log frames.
        let db = db.recover_from_wal().unwrap();
        assert_eq!(count(&db, "d"), 2);
        assert_eq!(int_field(&db, "d", id, "v"), Some(10));
        let c = db.collection("d").unwrap();
        assert_eq!(c.get_by_self_key("k2").unwrap().get_i64("v"), Some(2));
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
        assert_eq!(count(&recovered, "d"), 5);
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
        assert_eq!(count(&db, "d"), 2);
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
        assert_eq!(count(&db, "data"), 1);
    }

    #[test]
    fn tombstone_then_compact_purges() {
        let mut db = Db::memory();
        let live = Record::new(ObjectId::from_parts(1, 1, 1), "keep", vec![1], 1);
        let dead = Record::tombstone(ObjectId::from_parts(1, 1, 2), "gone", 2);
        db.put_record("data", &live).unwrap();
        db.put_record("data", &dead).unwrap();
        assert_eq!(count(&db, "data"), 2);
        let purged = db.compact(true).unwrap();
        assert_eq!(purged, 1);
        assert_eq!(count(&db, "data"), 1);
        assert!(db.get_record("data", "gone").unwrap().is_none());
        assert!(db.get_record("data", "keep").unwrap().is_some());
    }

    #[test]
    fn last_seq_counts_logged_mutations_only() {
        let mut db = Db::memory();
        assert_eq!(db.last_seq(), 0);
        // The self-key index is always there: asking for it logs nothing.
        db.create_index("d", "self-key").unwrap();
        assert_eq!(db.last_seq(), 0);
        let a = Record::new(ObjectId::from_parts(1, 1, 1), "ka", vec![1], pack_version(10, 0));
        assert!(db.put_record("d", &a).unwrap());
        assert_eq!(db.last_seq(), 1, "an insert is one logged mutation");
        let mut newer = a.clone();
        newer.version = pack_version(20, 0);
        assert!(db.put_record("d", &newer).unwrap());
        assert_eq!(db.last_seq(), 2, "an LWW replace is one logged mutation");

        // Reads and an LWW-stale write log nothing.
        db.get_record("d", "ka").unwrap();
        assert!(!db.put_record("d", &a).unwrap());
        assert_eq!(db.last_seq(), 2);

        // A refused index logs nothing either.
        assert!(matches!(db.create_index("d", "k"), Err(EngineError::UnindexedField(_))));
        assert_eq!(db.last_seq(), 2);

        let id = db.get_record("d", "ka").unwrap().unwrap().id;
        db.remove("d", id).unwrap();
        assert_eq!(db.last_seq(), 3);

        // Recovery replays the log without counting it.
        let db = db.recover_from_wal().unwrap();
        assert_eq!(db.last_seq(), 0);
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
    fn staged_mode_defers_sync_until_sync_wal() {
        let reg = mystore_obs::Registry::new();
        let mut db = Db::memory();
        db.set_wal_metrics(crate::wal::WalMetrics::from_registry(&reg));
        db.set_staged(true);
        for i in 0..3 {
            db.insert_doc("d", doc! { "k": i }).unwrap();
        }
        assert_eq!(db.wal_pending_ops(), 3, "staged, not synced");
        assert_eq!(count(&db, "d"), 3, "reads see staged writes");
        assert_eq!(reg.snapshot().counters["wal.fsyncs"], 0);
        assert_eq!(db.sync_wal().unwrap(), 3, "one sync covers the batch");
        assert_eq!(reg.snapshot().counters["wal.fsyncs"], 1);
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
        assert_eq!(count(&db, "d"), 2);
        let db = db.recover_from_wal().unwrap();
        let keys: Vec<_> = db
            .collection("d")
            .unwrap()
            .iter()
            .filter_map(|(_, d)| d.get_str("self-key").map(str::to_string))
            .collect();
        assert_eq!(keys, vec!["durable".to_string()], "unsynced op must not survive the crash");
    }
}
