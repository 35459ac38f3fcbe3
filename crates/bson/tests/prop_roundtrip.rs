//! Property tests: any document survives an encode/decode roundtrip, and the
//! size accounting matches the codec.

use mystore_bson::{Document, ObjectId, Value};
use proptest::prelude::*;

fn arb_value(depth: u32) -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i32>().prop_map(Value::Int32),
        any::<i64>().prop_map(Value::Int64),
        any::<f64>().prop_map(Value::Double),
        any::<u64>().prop_map(Value::Timestamp),
        "[a-zA-Z0-9 _\\-]{0,24}".prop_map(Value::String),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Value::Binary),
        (any::<u32>(), any::<u64>(), any::<u32>())
            .prop_map(|(s, m, c)| Value::ObjectId(ObjectId::from_parts(s, m, c))),
    ];
    leaf.prop_recursive(depth, 64, 8, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Value::Array),
            proptest::collection::vec(("[a-z]{1,8}", inner), 0..6)
                .prop_map(|pairs| Value::Document(pairs.into_iter().collect())),
        ]
    })
}

fn arb_document() -> impl Strategy<Value = Document> {
    proptest::collection::vec(("[a-zA-Z_][a-zA-Z0-9_\\-]{0,12}", arb_value(3)), 0..8)
        .prop_map(|pairs| pairs.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn encode_decode_roundtrip(doc in arb_document()) {
        let bytes = doc.to_bytes();
        let decoded = Document::from_bytes(&bytes).unwrap();
        // NaN != NaN under PartialEq, so compare the re-encoded bytes instead.
        prop_assert_eq!(decoded.to_bytes(), bytes);
    }

    #[test]
    fn encoded_size_is_exact(doc in arb_document()) {
        prop_assert_eq!(doc.encoded_size(), doc.to_bytes().len());
    }

    #[test]
    fn decoder_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Document::from_bytes(&bytes); // must return Err, not panic
    }

    #[test]
    fn truncation_is_always_an_error(doc in arb_document(), cut_frac in 0.0f64..1.0) {
        let bytes = doc.to_bytes();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            prop_assert!(Document::from_bytes(&bytes[..cut]).is_err());
        }
    }
}
