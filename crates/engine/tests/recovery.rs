//! Reopening a file-backed database: a torn tail left by a crash does not
//! swallow later writes, and logs that begin with the `CreateIndex` frame
//! older builds wrote still replay to the same records.

use std::io::Write;
use std::path::PathBuf;

use mystore_bson::ObjectId;
use mystore_engine::wal::Wal;
use mystore_engine::{pack_version, Db, Record, WalOp};

fn temp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mystore-recovery-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    let _ = std::fs::remove_file(&p);
    p
}

fn record(n: u32, key: &str, ver: u64) -> Record {
    Record::new(ObjectId::from_parts(0, 0, n), key, vec![n as u8], pack_version(ver, 0))
}

#[test]
fn a_write_synced_after_a_torn_tail_survives_the_next_reopen() {
    let mut garbage = 64u32.to_le_bytes().to_vec();
    garbage.extend_from_slice(&[0x5A; 7]);
    for (tag, torn) in [("header", vec![1u8, 2, 3]), ("garbage", garbage)] {
        let path = temp(&format!("torn-{tag}.wal"));
        Db::open(&path).unwrap().put_record("data", &record(1, "a", 1)).unwrap();
        // A crash mid-append leaves a partial frame behind the last good one.
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&torn).unwrap();
        drop(f);

        let mut db = Db::open(&path).unwrap();
        assert!(db.get_record("data", "a").unwrap().is_some(), "{tag}");
        assert!(db.put_record("data", &record(2, "b", 1)).unwrap(), "{tag}");
        drop(db);

        let db = Db::open(&path).unwrap();
        assert!(db.get_record("data", "a").unwrap().is_some(), "{tag}");
        let b = db.get_record("data", "b").unwrap();
        assert_eq!(b.map(|r| r.val), Some(vec![2]), "{tag}: the write after the torn tail");
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn a_log_that_starts_with_create_index_replays_its_records() {
    let path = temp("create-index.wal");
    let (a, b, c) = (record(1, "a", 1), record(2, "b", 1), record(3, "c", 1));
    let mut a2 = a.clone();
    a2.val = b"newer".to_vec();
    a2.version = pack_version(2, 0);
    // What a node's log looked like when every database began by creating
    // its self-key index: the index frame, then inserts, an update and a
    // remove.
    let ops = [
        WalOp::CreateIndex { coll: "data".into(), field: "self-key".into() },
        WalOp::Insert { coll: "data".into(), doc: a.to_document() },
        WalOp::Insert { coll: "data".into(), doc: b.to_document() },
        WalOp::Insert { coll: "data".into(), doc: c.to_document() },
        WalOp::Update { coll: "data".into(), id: a.id, doc: a2.to_document() },
        WalOp::Remove { coll: "data".into(), id: b.id },
    ];
    let mut wal = Wal::file(&path).unwrap();
    for op in &ops {
        wal.append(&op.encode_bytes()).unwrap();
    }
    drop(wal);

    let mut db = Db::open(&path).unwrap();
    assert_eq!(db.get_record("data", "a").unwrap(), Some(a2));
    assert_eq!(db.get_record("data", "b").unwrap(), None);
    assert_eq!(db.get_record("data", "c").unwrap(), Some(c));
    assert_eq!(db.collection("data").unwrap().len(), 2);
    assert_eq!(db.last_seq(), 0, "replay is not a write");

    // Compaction rewrites the log without the index frame.
    db.compact(false).unwrap();
    let frames = Wal::read_frames_from(&path).unwrap();
    let ops: Vec<WalOp> = frames.iter().map(|f| WalOp::decode_bytes(f).unwrap()).collect();
    assert!(ops.iter().all(|op| matches!(op, WalOp::Insert { .. })), "{ops:?}");
    assert_eq!(ops.len(), 2);
    std::fs::remove_file(&path).unwrap();
}
