//! Property tests for the in-place reader: `RawDocument` accepts exactly
//! the bytes the decoder accepts, reads every field the decoded document
//! holds, and over hostile bytes errors or answers `None` — never panics.

use mystore_bson::{doc, Document, ObjectId, RawDocument, Value};
use proptest::prelude::*;

/// Keys the accessors probe, present or not.
const KEYS: [&str; 6] = ["_id", "self-key", "val", "ver", "n", "d"];

fn arb_document() -> impl Strategy<Value = Document> {
    (
        "[a-zA-Z0-9\\-]{0,16}",
        proptest::collection::vec(any::<u8>(), 0..48),
        any::<u64>(),
        any::<i64>(),
        any::<bool>(),
    )
        .prop_map(|(key, val, ver, n, nested)| {
            let mut d = doc! {
                "_id": Value::ObjectId(ObjectId::from_parts(ver as u32, n as u64, 3)),
                "self-key": key.as_str(),
                "val": Value::Binary(val),
                "ver": Value::Timestamp(ver),
                "n": n,
            };
            if nested {
                d.insert("d", doc! { "self-key": key, "arr": vec![1i32, 2] });
            }
            d
        })
}

/// Every accessor, on every probe key: none may panic.
fn probe_all(raw: &RawDocument<'_>) {
    for key in KEYS {
        let _ = (raw.get_str(key), raw.get_i64(key), raw.get_binary(key));
        let _ = (raw.get_object_id(key), raw.get_timestamp(key), raw.document_range(key));
        if let Some(sub) = raw.get_document(key) {
            let _ = (sub.get_str("self-key"), sub.get_i64("n"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reads_in_place_what_the_decoder_reads(doc in arb_document()) {
        let bytes = doc.to_bytes();
        let raw = RawDocument::new(&bytes).unwrap();
        prop_assert_eq!(raw.get_str("self-key"), doc.get_str("self-key"));
        prop_assert_eq!(raw.get_binary("val"), doc.get_binary("val"));
        prop_assert_eq!(raw.get_i64("n"), doc.get_i64("n"));
        prop_assert_eq!(raw.get_object_id("_id"), doc.get_object_id("_id"));
        let nested = raw.get_document("d").map(|d| d.to_document().unwrap());
        prop_assert_eq!(nested.as_ref(), doc.get_document("d"));
        prop_assert_eq!(raw.to_document().unwrap(), doc);
    }

    #[test]
    fn random_bytes_error_or_read_as_none(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        prop_assert_eq!(RawDocument::new(&bytes).is_ok(), Document::from_bytes(&bytes).is_ok());
        probe_all(&RawDocument::from_validated(&bytes));
    }

    #[test]
    fn truncated_or_flipped_documents_error_or_read_as_none(
        doc in arb_document(),
        cut in any::<proptest::sample::Index>(),
        flip in any::<proptest::sample::Index>(),
        xor in 1u8..255,
    ) {
        let bytes = doc.to_bytes();
        let short = &bytes[..cut.index(bytes.len())];
        prop_assert!(RawDocument::new(short).is_err());
        probe_all(&RawDocument::from_validated(short));
        let mut flipped = bytes.clone();
        flipped[flip.index(bytes.len())] ^= xor;
        prop_assert_eq!(
            RawDocument::new(&flipped).is_ok(),
            Document::from_bytes(&flipped).is_ok()
        );
        probe_all(&RawDocument::from_validated(&flipped));
    }
}
