//! Property tests for the engine: keyed record reads must agree with a
//! full scan, WAL recovery must reproduce the exact state, and LWW record
//! semantics must be order-insensitive.

use std::collections::BTreeMap;

use mystore_bson::ObjectId;
use mystore_bson::{doc, Document};
use mystore_engine::{lww_winner, pack_version, Db, Record};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// A small universe of keys/values so documents collide.
fn arb_doc() -> impl Strategy<Value = Document> {
    (
        0..20i32,                      // n
        "[a-e]{1,3}",                  // k
        proptest::option::of(0..5i32), // maybe-missing field m
    )
        .prop_map(|(n, k, m)| {
            let mut d = doc! { "n": n, "k": k };
            if let Some(m) = m {
                d.insert("m", m);
            }
            d
        })
}

/// One step of a random record history over five keys.
#[derive(Debug, Clone)]
enum Step {
    Put {
        key: u8,
        val: u8,
        ver: u64,
    },
    Tombstone {
        key: u8,
        ver: u64,
    },
    /// `reap_tombstones` below `pack_version(cutoff, 0)`.
    Reap {
        cutoff: u64,
    },
    /// Physically removes the key's document, if any.
    Remove {
        key: u8,
    },
}

fn arb_step() -> impl Strategy<Value = Step> {
    let put =
        || (0u8..5, any::<u8>(), 1u64..16).prop_map(|(key, val, ver)| Step::Put { key, val, ver });
    prop_oneof![
        put(),
        put(),
        (0u8..5, 1u64..16).prop_map(|(key, ver)| Step::Tombstone { key, ver }),
        (1u64..16).prop_map(|cutoff| Step::Reap { cutoff }),
        (0u8..5).prop_map(|key| Step::Remove { key }),
    ]
}

const DATA: &str = "data";

/// Applies `steps`, each write under a fresh `_id`; returns the store and
/// a model of what each key should read: the LWW winner of the writes
/// since its document was last removed or reaped, under the `_id` of the
/// write that created the document.
fn run_history(steps: &[Step]) -> (Db, BTreeMap<String, Record>) {
    let mut db = Db::memory();
    let mut model: BTreeMap<String, Record> = BTreeMap::new();
    for (i, step) in steps.iter().enumerate() {
        let id = ObjectId::from_parts(0, 0, i as u32);
        let rec = match *step {
            Step::Put { key, val, ver } => {
                Record::new(id, format!("k{key}"), vec![val], pack_version(ver, 0))
            }
            Step::Tombstone { key, ver } => {
                Record::tombstone(id, format!("k{key}"), pack_version(ver, 0))
            }
            Step::Reap { cutoff } => {
                let cutoff = pack_version(cutoff, 0);
                let reaped = db.reap_tombstones(DATA, cutoff).unwrap();
                let before = model.len();
                model.retain(|_, r| !(r.is_del && r.version < cutoff));
                assert_eq!(reaped, before - model.len(), "{step:?}");
                continue;
            }
            Step::Remove { key } => {
                if let Some(r) = model.remove(&format!("k{key}")) {
                    db.remove(DATA, r.id).unwrap();
                }
                continue;
            }
        };
        let took = db.put_record(DATA, &rec).unwrap();
        match model.get(&rec.self_key) {
            Some(old) if !rec.wins_over(old) => assert!(!took, "{step:?} beat {old:?}"),
            incumbent => {
                assert!(took, "{step:?}");
                let id = incumbent.map_or(rec.id, |old| old.id);
                model.insert(rec.self_key.clone(), Record { id, ..rec });
            }
        }
    }
    (db, model)
}

/// Every key's `get_record` equals the LWW winner of a full scan of the
/// stored documents, and the model's record.
fn keyed_reads_match_a_scan(
    db: &Db,
    model: &BTreeMap<String, Record>,
) -> Result<(), TestCaseError> {
    let stored: Vec<Record> = match db.collection(DATA) {
        Ok(c) => c.iter().map(|(_, d)| Record::from_raw(&d).unwrap()).collect(),
        Err(_) => Vec::new(),
    };
    for key in (0..5).map(|k| format!("k{k}")) {
        let scanned = lww_winner(stored.iter().filter(|r| r.self_key == key)).cloned();
        let got = db.get_record(DATA, &key).unwrap();
        prop_assert_eq!(&got, &scanned, "key {} against a full scan", key);
        prop_assert_eq!(got.as_ref(), model.get(&key), "key {} against the model", key);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `Record::encoded_len`, which sizes records for the simulator's
    /// bandwidth model, is exactly the record document's encoded size.
    #[test]
    fn encoded_len_is_the_documents_encoded_size(
        key in "[a-zA-Z0-9 _\\-]{0,40}",
        val in proptest::collection::vec(any::<u8>(), 0..300),
        version in any::<u64>(),
        flags in (any::<bool>(), any::<bool>()),
    ) {
        let mut r = Record::new(ObjectId::from_parts(1, 2, 3), key, val, version);
        (r.is_data, r.is_del) = flags;
        let doc = r.to_document();
        prop_assert_eq!(r.encoded_len(), doc.encoded_size());
        prop_assert_eq!(r.encoded_len(), doc.to_bytes().len());
    }

    /// Random put / tombstone / reap / remove histories leave every keyed
    /// read equal to a full scan's LWW winner, before and after crash
    /// recovery from the WAL.
    #[test]
    fn keyed_reads_equal_the_scanned_lww_winner(
        steps in proptest::collection::vec(arb_step(), 1..60),
    ) {
        let (db, model) = run_history(&steps);
        keyed_reads_match_a_scan(&db, &model)?;
        let db = db.recover_from_wal().unwrap();
        keyed_reads_match_a_scan(&db, &model)?;
    }

    /// Reopening a file-backed database replays to the identical state.
    #[test]
    fn wal_recovery_reproduces_state(
        docs in proptest::collection::vec(arb_doc(), 1..30),
        removals in proptest::collection::vec(any::<proptest::sample::Index>(), 0..5),
    ) {
        let dir = std::env::temp_dir().join(format!("mystore-prop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("w{}.wal", fastrand_like(&docs)));
        let _ = std::fs::remove_file(&path);

        let mut ids = Vec::new();
        let before;
        {
            let mut db = Db::open(&path).unwrap();
            for d in &docs {
                ids.push(db.insert_doc("d", d.clone()).unwrap());
            }
            for r in &removals {
                let id = ids[r.index(ids.len())];
                let _ = db.remove("d", id); // may already be gone
            }
            before = snapshot(&db);
        }
        let db = Db::open(&path).unwrap();
        prop_assert_eq!(snapshot(&db), before);
        std::fs::remove_file(&path).unwrap();
    }

    /// LWW: whatever order versions of the same key arrive in, the highest
    /// version wins on every node.
    #[test]
    fn lww_is_order_insensitive(mut order in Just((0u16..8).collect::<Vec<u16>>()), seed in any::<u64>()) {
        // Shuffle deterministically from the seed.
        let mut s = seed;
        for i in (1..order.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (s >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        let mut db = Db::memory();
        for &v in &order {
            let rec = Record::new(
                ObjectId::from_parts(0, 0, v as u32),
                "the-key",
                vec![v as u8],
                pack_version(100 + v as u64, v),
            );
            db.put_record("data", &rec).unwrap();
        }
        let winner = db.get_record("data", "the-key").unwrap().unwrap();
        prop_assert_eq!(winner.val, vec![7u8]);
    }
}

/// Deterministic tag derived from the inputs so parallel proptest cases use
/// distinct files.
fn fastrand_like(docs: &[Document]) -> u64 {
    let mut h = 1469598103934665603u64;
    for d in docs {
        for b in d.to_bytes() {
            h = (h ^ b as u64).wrapping_mul(1099511628211);
        }
    }
    h
}

fn snapshot(db: &Db) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for name in db.collection_names() {
        let coll = db.collection(name).unwrap();
        for (id, doc) in coll.iter() {
            out.push((format!("{name}/{}", id.to_hex()), doc.as_bytes().to_vec()));
        }
    }
    out.sort();
    out
}
