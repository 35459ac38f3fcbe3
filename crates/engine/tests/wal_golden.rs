//! The durable format, frozen: `golden/wal.golden` holds one hex WAL frame
//! per line, `[len: u32 LE][crc32: u32 LE][op document]`, written by the
//! engine before it logged records in place (each op built as a `Document`,
//! then `WalOp::encode_bytes`). Every line must pass its checksum and
//! re-frame to its own bytes, the engine must still write exactly these
//! bytes for the same operations, and a log of them must recover.
//!
//! To check that a change moves no WAL byte, run
//! `cargo test -p mystore-engine --test wal_golden`; never regenerate the
//! file to make it pass.

use std::path::PathBuf;

use mystore_bson::{doc, Document, ObjectId};
use mystore_engine::wal::{crc32, Wal};
use mystore_engine::{pack_version, Db, Record, WalOp};
use proptest::prelude::*;

const GOLDEN: &str = include_str!("golden/wal.golden");

fn golden_frames() -> Vec<Vec<u8>> {
    GOLDEN.lines().map(|line| hex(line.trim())).collect()
}

fn hex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn temp_wal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mystore-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.wal"));
    let _ = std::fs::remove_file(&path);
    path
}

/// The sample records, in golden order.
fn inserted() -> Record {
    Record::new(
        ObjectId::from_parts(0x4ee4_4627, 42, 7),
        "Resistor5",
        b"470 ohm".to_vec(),
        pack_version(10, 3),
    )
}

fn overwrite() -> Record {
    Record::new(
        ObjectId::from_parts(0x4ee4_4627, 42, 8),
        "Resistor5",
        b"1k ohm, replica copy".to_vec(),
        pack_version(20, 1),
    )
    .as_replica()
}

fn tombstone() -> Record {
    Record::tombstone(ObjectId::from_parts(1, 2, 3), "Resistor5", pack_version(30, 2))
}

fn empty_val() -> Record {
    Record::new(ObjectId::from_parts(5, 6, 7), "empty", Vec::new(), pack_version(40, 0))
}

fn hint() -> Document {
    let hinted = Record::new(
        ObjectId::from_parts(9, 9, 9),
        "hinted",
        b"for node 2".to_vec(),
        pack_version(50, 1),
    )
    .as_replica();
    doc! { "intended": 2i64, "rec": hinted.to_document() }
}

/// The golden's operations: a record insert, an overwrite, a tombstone,
/// an empty `val`, a hint document and its remove — then a legacy
/// `CreateIndex`, which nothing writes any more, appended as raw bytes.
fn write_samples(path: &PathBuf) {
    {
        let mut db = Db::open(path).unwrap();
        db.set_oid_machine(7);
        db.set_oid_secs(1_234);
        for r in [inserted(), overwrite(), tombstone(), empty_val()] {
            assert!(db.put_record("data", &r).unwrap());
        }
        let id = db.insert_doc("hints", hint()).unwrap();
        db.remove("hints", id).unwrap();
    }
    let legacy = WalOp::CreateIndex { coll: "data".into(), field: "self-key".into() };
    Wal::file(path).unwrap().append(&legacy.encode_bytes()).unwrap();
}

#[test]
fn every_golden_frame_passes_its_crc_and_reframes_to_its_own_bytes() {
    let frames = golden_frames();
    assert_eq!(frames.len(), 7);
    for (i, bytes) in frames.iter().enumerate() {
        let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        let payload = &bytes[8..];
        assert_eq!(len, payload.len(), "line {i}: length");
        assert_eq!(crc32(payload), crc, "line {i}: checksum");
        let op = WalOp::decode_bytes(payload).unwrap();
        assert_eq!(frame(&op.encode_bytes()), *bytes, "line {i}: re-framed {op:?}");
    }
}

#[test]
fn the_engine_writes_the_golden_bytes() {
    let path = temp_wal("write");
    write_samples(&path);
    assert_eq!(std::fs::read(&path).unwrap(), golden_frames().concat());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn a_golden_log_recovers_to_its_records_and_compacts_to_inserts() {
    let path = temp_wal("recover");
    std::fs::write(&path, golden_frames().concat()).unwrap();
    let mut expected = tombstone();
    expected.id = inserted().id; // an overwrite keeps the first _id
    let check = |db: &Db| {
        assert_eq!(db.get_record("data", "Resistor5").unwrap(), Some(expected.clone()));
        assert_eq!(db.get_record("data", "empty").unwrap(), Some(empty_val()));
        assert_eq!(db.collection("hints").map_or(0, |c| c.len()), 0, "the hint was removed");
    };
    let mut db = Db::open(&path).unwrap();
    check(&db);
    db.compact(false).unwrap();
    check(&db);
    drop(db);
    let frames = Wal::read_frames_from(&path).unwrap();
    let ops: Vec<WalOp> = frames.iter().map(|f| WalOp::decode_bytes(f).unwrap()).collect();
    assert_eq!(
        ops,
        vec![
            WalOp::Insert { coll: "data".into(), doc: empty_val().to_document() },
            WalOp::Insert { coll: "data".into(), doc: expected.to_document() },
        ],
        "compaction re-logs each stored document, in _id order, as the old engine did"
    );
    check(&Db::open(&path).unwrap());
    std::fs::remove_file(&path).unwrap();
}

/// One record write of a random history.
#[derive(Debug, Clone)]
struct Put {
    key: u8,
    val_len: usize,
    ver: u64,
    replica: bool,
    del: bool,
}

fn arb_put() -> impl Strategy<Value = Put> {
    (0u8..4, 0usize..40, 1u64..12, any::<bool>(), any::<bool>())
        .prop_map(|(key, val_len, ver, replica, del)| Put { key, val_len, ver, replica, del })
}

fn record(n: usize, p: &Put) -> Record {
    let id = ObjectId::from_parts(n as u32, 1, 2);
    let key = format!("key-{}", p.key);
    let mut r = if p.del {
        Record::tombstone(id, key, pack_version(p.ver, 0))
    } else {
        Record::new(id, key, vec![p.key; p.val_len], pack_version(p.ver, 0))
    };
    r.is_data = !p.replica;
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The in-place write path logs exactly the bytes of appending each
    /// op's `WalOp::encode_bytes()`: inserts, LWW overwrites that keep the
    /// first `_id`, and stale writes that log nothing.
    #[test]
    fn in_place_writes_match_encoded_ops(puts in proptest::collection::vec(arb_put(), 1..40)) {
        let (engine, reference) = (temp_wal("in-place"), temp_wal("reference"));
        let mut db = Db::open(&engine).unwrap();
        let mut wal = Wal::file(&reference).unwrap();
        let mut model: std::collections::BTreeMap<u8, (ObjectId, u64)> = Default::default();
        for (n, p) in puts.iter().enumerate() {
            let r = record(n, p);
            let op = match model.get(&p.key) {
                Some(&(_, ver)) if r.version <= ver => None,
                Some(&(id, _)) => {
                    let mut d = r.to_document();
                    d.insert("_id", id);
                    Some((id, WalOp::Update { coll: "data".into(), id, doc: d }))
                }
                None => Some((r.id, WalOp::Insert { coll: "data".into(), doc: r.to_document() })),
            };
            prop_assert_eq!(db.put_record("data", &r).unwrap(), op.is_some());
            if let Some((id, op)) = op {
                wal.append_nosync(&op.encode_bytes()).unwrap();
                model.insert(p.key, (id, r.version));
            }
        }
        wal.sync().unwrap();
        prop_assert_eq!(std::fs::read(&engine).unwrap(), std::fs::read(&reference).unwrap());
        std::fs::remove_file(&engine).unwrap();
        std::fs::remove_file(&reference).unwrap();
    }
}
