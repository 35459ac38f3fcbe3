//! Embedded record store — `mystore-engine` standalone.
//!
//! Each MyStore node keeps its records in this engine and reaches them only
//! by `self-key` (paper §3.3, §5.1). This example uses the engine directly
//! as an embedded keyed store: last-write-wins puts, a logical delete
//! (tombstone) and its reaping, log compaction, durable WAL persistence,
//! and crash recovery.
//!
//! ```bash
//! cargo run --example embedded_db
//! ```

use mystore::bson::ObjectId;
use mystore::engine::{pack_version, Db, Record};

const COLL: &str = "components";

fn main() {
    let dir = std::env::temp_dir().join(format!("mystore-embedded-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");
    let path = dir.join("components.wal");
    let _ = std::fs::remove_file(&path);

    // Each write carries a fresh private `_id` and an LWW version stamp
    // (`pack_version(timestamp_us, writer)`).
    let mut ids = (1..).map(|n| ObjectId::from_parts(1, 1, n));
    let mut rec = |key: &str, val: &[u8], t: u64| {
        Record::new(ids.next().unwrap(), key, val.to_vec(), pack_version(t, 0))
    };

    // ---- populate a component catalogue ------------------------------------
    {
        let mut db = Db::open(&path).expect("open");
        for (key, xml) in [
            ("Resistor5", r#"<component ohms="470"/>"#),
            ("Resistor9", r#"<component ohms="10000"/>"#),
            ("Cap33n", r#"<component farads="33e-9"/>"#),
            ("Led3mm", r#"<component colour="red"/>"#),
        ] {
            assert!(db.put_record(COLL, &rec(key, xml.as_bytes(), 10)).unwrap());
        }
        println!("catalogue: {} components", db.collection(COLL).unwrap().len());

        // Last write wins: a newer version replaces the record in place,
        // a stale one is refused.
        let newer = rec("Resistor5", br#"<component ohms="470" package="smd"/>"#, 20);
        assert!(db.put_record(COLL, &newer).unwrap());
        let stale = rec("Resistor5", br#"<component ohms="1"/>"#, 15);
        assert!(!db.put_record(COLL, &stale).unwrap(), "an older version must lose");
        let r5 = db.get_record(COLL, "Resistor5").unwrap().unwrap();
        println!("Resistor5 @ {}: {}", r5.version, String::from_utf8_lossy(&r5.val));

        // A delete is logical: a tombstone that wins like any other write
        // (its `_id` is unused: an overwrite keeps the incumbent's).
        let gone = Record::tombstone(ObjectId::from_parts(2, 2, 2), "Led3mm", pack_version(30, 0));
        assert!(db.put_record(COLL, &gone).unwrap());
        assert!(db.get_record(COLL, "Led3mm").unwrap().unwrap().is_del);

        // Reaping drops tombstones older than a cutoff; compaction rewrites
        // the log down to the live state.
        assert_eq!(db.reap_tombstones(COLL, pack_version(40, 0)).unwrap(), 1);
        assert!(db.get_record(COLL, "Led3mm").unwrap().is_none());
        let before = std::fs::metadata(&path).unwrap().len();
        db.compact(true).unwrap();
        let after = std::fs::metadata(&path).unwrap().len();
        println!("compaction: WAL {before} -> {after} bytes");
        // One more write after compaction, then drop the Db without a clean
        // shutdown — a "crash".
        assert!(db.put_record(COLL, &rec("Pot10k", br#"<component ohms="10000"/>"#, 50)).unwrap());
    }

    // ---- crash recovery ------------------------------------------------------
    let db = Db::open(&path).expect("recover");
    let r5 = db.get_record(COLL, "Resistor5").unwrap().expect("survives recovery");
    assert_eq!(r5.val, br#"<component ohms="470" package="smd"/>"#);
    assert!(db.get_record(COLL, "Pot10k").unwrap().is_some(), "post-compaction write replayed");
    assert!(db.get_record(COLL, "Led3mm").unwrap().is_none(), "reaped stays reaped");
    let coll = db.collection(COLL).unwrap();
    println!("recovered from WAL: {} components, stats: {:?}", coll.len(), db.stats());

    std::fs::remove_file(&path).ok();
    println!("embedded_db OK");
}
