//! Compaction: the WAL shrinks to the live state, survives reopen, and
//! purges tombstones only when asked.

use mystore_bson::ObjectId;
use mystore_bson::{doc, Value};
use mystore_engine::{pack_version, Db, Record};

fn temp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mystore-compact-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn compaction_shrinks_the_log_and_preserves_state() {
    let path = temp("shrink.wal");
    let mut db = Db::open(&path).unwrap();
    let id = db.insert_doc("d", doc! { "self-key": "hot", "v": 0 }).unwrap();
    // 200 updates of the same document bloat the log with after-images.
    for i in 1..=200 {
        let after = doc! { "_id": Value::ObjectId(id), "self-key": "hot", "v": i };
        db.put_after_image("d", id, after).unwrap();
    }
    let before = std::fs::metadata(&path).unwrap().len();
    db.compact(false).unwrap();
    let after = std::fs::metadata(&path).unwrap().len();
    assert!(
        after < before / 10,
        "compaction should collapse 201 log entries to ~1 ({before} -> {after})"
    );
    // State intact across compaction + reopen, keyed reads included.
    drop(db);
    let db = Db::open(&path).unwrap();
    let coll = db.collection("d").unwrap();
    assert_eq!(coll.get(id).unwrap().get_i64("v"), Some(200));
    assert_eq!(coll.len(), 1);
    assert_eq!(coll.get_by_self_key("hot").unwrap().get_object_id("_id"), Some(id));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn compaction_without_purge_keeps_tombstones() {
    let path = temp("keep.wal");
    let mut db = Db::open(&path).unwrap();
    db.put_record(
        "data",
        &Record::tombstone(ObjectId::from_parts(1, 1, 1), "gone", pack_version(5, 0)),
    )
    .unwrap();
    db.compact(false).unwrap();
    drop(db);
    let db = Db::open(&path).unwrap();
    let rec = db.get_record("data", "gone").unwrap().unwrap();
    assert!(rec.is_del, "tombstone preserved through compaction");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn reap_respects_the_version_cutoff() {
    let mut db = Db::memory();
    db.put_record(
        "data",
        &Record::tombstone(ObjectId::from_parts(1, 1, 1), "old", pack_version(100, 0)),
    )
    .unwrap();
    db.put_record(
        "data",
        &Record::tombstone(ObjectId::from_parts(1, 1, 2), "new", pack_version(900, 0)),
    )
    .unwrap();
    db.put_record(
        "data",
        &Record::new(ObjectId::from_parts(1, 1, 3), "live", vec![1], pack_version(50, 0)),
    )
    .unwrap();
    let reaped = db.reap_tombstones("data", pack_version(500, 0)).unwrap();
    assert_eq!(reaped, 1, "only the old tombstone is reaped");
    assert!(db.get_record("data", "old").unwrap().is_none());
    assert!(db.get_record("data", "new").unwrap().is_some());
    assert!(db.get_record("data", "live").unwrap().is_some(), "live records untouched");
    // Unknown collections are a no-op.
    assert_eq!(db.reap_tombstones("nope", u64::MAX).unwrap(), 0);
}

#[test]
fn stats_reflect_compaction() {
    let mut db = Db::memory();
    for i in 0..20 {
        db.insert_doc("d", doc! { "i": i, "blob": Value::Binary(vec![0; 500]) }).unwrap();
    }
    let docs_before = db.stats().documents;
    db.compact(false).unwrap();
    assert_eq!(db.stats().documents, docs_before, "compaction must not drop live docs");
}
