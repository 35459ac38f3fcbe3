//! Property tests for the engine: keyed record reads must agree with a
//! full scan, WAL recovery must reproduce the exact state, LWW record
//! semantics must be order-insensitive, and the key map must read like a
//! `(point, key)`-ordered model under any point function.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use mystore_bson::ObjectId;
use mystore_bson::{doc, Document};
use mystore_engine::{lww_winner, pack_version, Db, KeyPoint, Record};
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

/// Keys of the ordered-map property: four first bytes, three per byte, so
/// a first-byte point function puts three keys on each point.
const MAP_KEYS: [&str; 12] =
    ["a", "a1", "a22", "b", "b1", "b22", "c", "c1", "c22", "z", "z1", "z22"];

/// A toy point function that forces collisions: a key's first byte, with
/// `a` at 0 and `z` at `u64::MAX`, the two ends of the circle.
fn first_byte(key: &[u8]) -> u64 {
    match key.first() {
        Some(b'a') | None => 0,
        Some(b'z') => u64::MAX,
        Some(&b) => u64::from(b) << 56,
    }
}

/// One write of the ordered-map property, on keys of [`MAP_KEYS`].
#[derive(Debug, Clone)]
enum MapOp {
    /// `put_record`, always the newest version.
    Put { key: usize, val: u8 },
    /// Physically removes the key's lowest-id document, if any.
    Remove { key: usize },
    /// Rewrites the key's lowest-id document under another key with
    /// `put_after_image`; onto a held key this makes ties.
    Rekey { from: usize, to: usize },
}

fn arb_map_op() -> impl Strategy<Value = MapOp> {
    let key = || 0..MAP_KEYS.len();
    let put = move || (key(), any::<u8>()).prop_map(|(key, val)| MapOp::Put { key, val });
    prop_oneof![
        put(),
        put(),
        put(),
        key().prop_map(|key| MapOp::Remove { key }),
        (key(), key()).prop_map(|(from, to)| MapOp::Rekey { from, to }),
    ]
}

/// A scan bound: the points the toy function uses, their neighbours, the
/// ends of the circle, or anything.
fn arb_point() -> impl Strategy<Value = u64> {
    let b = u64::from(b'b') << 56;
    let c = u64::from(b'c') << 56;
    prop_oneof![
        (0usize..8).prop_map(move |i| [0, 1, b - 1, b, c, c + 1, u64::MAX - 1, u64::MAX][i]),
        any::<u64>(),
    ]
}

/// `(point, key)` → the ids holding the key, each with its value.
type MapModel = BTreeMap<(u64, String), BTreeMap<ObjectId, u8>>;

/// Applies `ops` to `db` and to a model ordered by `point` (every key at
/// 0 without one); `db` may order its keys differently.
fn run_map_ops(db: &mut Db, ops: &[MapOp], point: Option<KeyPoint>) -> MapModel {
    let slot = |key: &str| (point.map_or(0, |p| p(key.as_bytes())), key.to_string());
    let mut model = MapModel::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            MapOp::Put { key, val } => {
                let key = MAP_KEYS[key];
                let rec =
                    Record::new(ObjectId::from_parts(0, 0, i as u32), key, vec![val], i as u64 + 1);
                assert!(db.put_record(DATA, &rec).unwrap());
                let ids = model.entry(slot(key)).or_default();
                let id = ids.keys().next().copied().unwrap_or(rec.id);
                ids.insert(id, val);
            }
            MapOp::Remove { key } => {
                let Some(ids) = model.get_mut(&slot(MAP_KEYS[key])) else { continue };
                let (id, _) = ids.pop_first().unwrap();
                if ids.is_empty() {
                    model.remove(&slot(MAP_KEYS[key]));
                }
                db.remove(DATA, id).unwrap();
            }
            MapOp::Rekey { from, to } => {
                let Some(mut rec) = db.get_record(DATA, MAP_KEYS[from]).unwrap() else { continue };
                let ids = model.get_mut(&slot(MAP_KEYS[from])).unwrap();
                let val = ids.remove(&rec.id).unwrap();
                if ids.is_empty() {
                    model.remove(&slot(MAP_KEYS[from]));
                }
                rec.self_key = MAP_KEYS[to].to_string();
                db.put_after_image(DATA, rec.id, rec.to_document()).unwrap();
                model.entry(slot(MAP_KEYS[to])).or_default().insert(rec.id, val);
            }
        }
    }
    model
}

/// Keyed reads and `(after, upto]` scans of `db` answer like `model`: a
/// key reads as its lowest id, and a scan lists the model's keys in the
/// range, wrapping through zero when `upto <= after`.
fn map_matches_model(db: &Db, model: &MapModel, scans: &[(u64, u64)]) -> Result<(), TestCaseError> {
    let point_of: BTreeMap<&str, u64> = model.keys().map(|(p, k)| (k.as_str(), *p)).collect();
    for key in MAP_KEYS {
        let want = point_of.get(key).and_then(|p| model[&(*p, key.to_string())].first_key_value());
        let got = db.get_record(DATA, key).unwrap();
        prop_assert_eq!(
            got.map(|r| (r.id, r.val[0])),
            want.map(|(id, v)| (*id, *v)),
            "key {}",
            key
        );
    }
    let Ok(coll) = db.collection(DATA) else {
        prop_assert!(model.is_empty());
        return Ok(());
    };
    for &(after, upto) in scans.iter().chain(&[(0, 0), (u64::MAX, u64::MAX), (7, u64::MAX)]) {
        let inside =
            |p: u64| if upto > after { p > after && p <= upto } else { p > after || p <= upto };
        let (high, low): (Vec<_>, Vec<_>) =
            model.iter().filter(|((p, _), _)| inside(*p)).partition(|((p, _), _)| *p > after);
        let want: Vec<(String, ObjectId)> = high
            .into_iter()
            .chain(low)
            .map(|((_, k), ids)| (k.clone(), *ids.keys().next().unwrap()))
            .collect();
        let got: Vec<(String, ObjectId)> = coll
            .scan_points(after, upto)
            .map(|d| (d.get_str("self-key").unwrap().to_string(), d.get_object_id("_id").unwrap()))
            .collect();
        prop_assert_eq!(got, want, "scan ({}, {}]", after, upto);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The key map reads like a `(point, key)`-ordered model, with a point
    /// function that collides and with none, whether the function is
    /// installed before the writes, after a `Db::open` replay, or after
    /// `recover_from_wal`.
    #[test]
    fn the_key_map_reads_in_point_order(
        ops in proptest::collection::vec(arb_map_op(), 1..60),
        scans in proptest::collection::vec((arb_point(), arb_point()), 1..8),
    ) {
        // No point function: every key at 0, in string order.
        let mut plain = Db::memory();
        let model = run_map_ops(&mut plain, &ops, None);
        map_matches_model(&plain, &model, &scans)?;

        // Installed before the writes, and carried through recovery.
        let mut keyed = Db::memory();
        keyed.set_key_point(first_byte);
        let model = run_map_ops(&mut keyed, &ops, Some(first_byte));
        map_matches_model(&keyed, &model, &scans)?;
        map_matches_model(&keyed.recover_from_wal().unwrap(), &model, &scans)?;

        // Installed after `recover_from_wal` re-keys what replay loaded.
        let mut recovered = plain.recover_from_wal().unwrap();
        recovered.set_key_point(first_byte);
        map_matches_model(&recovered, &model, &scans)?;

        // Installed after a `Db::open` replay.
        let dir = std::env::temp_dir().join(format!("mystore-prop-map-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        static CASE: AtomicU64 = AtomicU64::new(0);
        let path = dir.join(format!("m{}.wal", CASE.fetch_add(1, Ordering::Relaxed)));
        let _ = std::fs::remove_file(&path);
        run_map_ops(&mut Db::open(&path).unwrap(), &ops, None);
        let mut reopened = Db::open(&path).unwrap();
        reopened.set_key_point(first_byte);
        map_matches_model(&reopened, &model, &scans)?;
        std::fs::remove_file(&path).unwrap();
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
