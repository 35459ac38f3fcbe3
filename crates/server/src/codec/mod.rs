//! Deterministic binary wire codec for [`Msg`].
//!
//! Hand-rolled, length-prefixed, and bounds-checked in the same style as
//! the WAL frame decoder (`mystore_engine::wal`): every read goes through a
//! cursor that returns `None` on underflow, decode never panics on hostile
//! bytes, and a frame must be consumed *exactly* — trailing garbage is a
//! decode error, not silently ignored. Layout rules:
//!
//! * integers are little-endian fixed width;
//! * `bytes`/`String` are `u32` length + payload;
//! * `Option<T>` is a `u8` presence flag (0/1) + payload;
//! * `Vec<T>` is a `u32` count + elements, with the count sanity-checked
//!   against the bytes actually remaining so a forged count cannot drive a
//!   multi-gigabyte allocation;
//! * every [`Msg`] variant has a fixed tag byte. Tags are append-only: a
//!   new message gets a new tag, existing tags never change meaning
//!   (renumbering would silently corrupt mixed-version clusters; the frame
//!   layer's version byte exists for layout changes, not for tag reuse).
//!   `tests/golden/wire.golden` holds the committed bytes of every sample
//!   message, and the tests below keep each line decoding to itself.

use mystore_core::{Method, Msg, StoreError};
use mystore_engine::Record;
use mystore_gossip::{Digest, EndpointDelta, GossipMsg};
use mystore_net::NodeId;

/// Raw [`ObjectId`] width on the wire (bson's `OID_LEN`, not re-exported).
const OID_LEN: usize = 12;

mod decode;

pub use decode::decode_msg;

// ---- encoding --------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

fn put_opt_str(out: &mut Vec<u8>, s: &Option<String>) {
    match s {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
    }
}

fn put_node(out: &mut Vec<u8>, n: NodeId) {
    put_u32(out, n.0);
}

fn put_record(out: &mut Vec<u8>, r: &Record) {
    out.extend_from_slice(r.id.bytes());
    put_str(out, &r.self_key);
    put_bytes(out, &r.val);
    out.push(u8::from(r.is_data) | (u8::from(r.is_del) << 1));
    put_u64(out, r.version);
}

fn put_store_result(out: &mut Vec<u8>, r: &Result<(), StoreError>) {
    match r {
        Ok(()) => out.push(0),
        Err(e) => put_store_error(out, *e),
    }
}

/// Error codes 1.. so 0 can mean `Ok` in `Result` encodings.
fn put_store_error(out: &mut Vec<u8>, e: StoreError) {
    match e {
        StoreError::QuorumWriteFailed => out.push(1),
        StoreError::QuorumReadFailed => out.push(2),
        StoreError::NoRing => out.push(3),
        StoreError::CasConflict(v) => {
            out.push(4);
            put_u64(out, v);
        }
    }
}

fn put_digest(out: &mut Vec<u8>, d: &Digest) {
    put_node(out, d.endpoint);
    put_u64(out, d.generation);
    put_u64(out, d.max_version);
}

fn put_delta(out: &mut Vec<u8>, d: &EndpointDelta) {
    put_node(out, d.endpoint);
    put_u64(out, d.generation);
    match d.heartbeat {
        None => out.push(0),
        Some(h) => {
            out.push(1);
            put_u64(out, h);
        }
    }
    put_u32(out, d.app_states.len() as u32);
    for (k, v) in &d.app_states {
        put_str(out, k);
        put_str(out, &v.value);
        put_u64(out, v.version);
    }
    put_u64(out, d.max_version);
}

fn put_gossip(out: &mut Vec<u8>, g: &GossipMsg) {
    match g {
        GossipMsg::Syn(digests) => {
            out.push(1);
            put_u32(out, digests.len() as u32);
            digests.iter().for_each(|d| put_digest(out, d));
        }
        GossipMsg::Ack1 { deltas, requests } => {
            out.push(2);
            put_u32(out, deltas.len() as u32);
            deltas.iter().for_each(|d| put_delta(out, d));
            put_u32(out, requests.len() as u32);
            requests.iter().for_each(|d| put_digest(out, d));
        }
        GossipMsg::Ack2 { deltas } => {
            out.push(3);
            put_u32(out, deltas.len() as u32);
            deltas.iter().for_each(|d| put_delta(out, d));
        }
    }
}

/// Encodes `msg` into `out` (appending).
pub fn encode_msg(msg: &Msg, out: &mut Vec<u8>) {
    match msg {
        Msg::RestReq(r) => {
            out.push(1);
            put_u64(out, r.req);
            out.push(match r.method {
                Method::Get => 0,
                Method::Post => 1,
                Method::Delete => 2,
            });
            put_opt_str(out, &r.key);
            put_bytes(out, &r.body);
            put_opt_str(out, &r.if_match);
            match &r.auth {
                None => out.push(0),
                Some((user, sig)) => {
                    out.push(1);
                    put_str(out, user);
                    put_str(out, &sig.token);
                    put_str(out, &sig.digest);
                }
            }
        }
        Msg::RestResp(r) => {
            out.push(2);
            put_u64(out, r.req);
            put_u16(out, r.status);
            put_bytes(out, &r.body);
            put_opt_str(out, &r.assigned_key);
            out.push(u8::from(r.from_cache));
        }
        Msg::TokenReq { req, user } => {
            out.push(3);
            put_u64(out, *req);
            put_str(out, user);
        }
        Msg::TokenResp { req, token } => {
            out.push(4);
            put_u64(out, *req);
            put_opt_str(out, token);
        }
        Msg::CacheGet { req, key } => {
            out.push(5);
            put_u64(out, *req);
            put_str(out, key);
        }
        Msg::CacheGetResp { req, value } => {
            out.push(6);
            put_u64(out, *req);
            match value {
                None => out.push(0),
                Some(v) => {
                    out.push(1);
                    put_bytes(out, v);
                }
            }
        }
        Msg::CachePut { key, value } => {
            out.push(7);
            put_str(out, key);
            put_bytes(out, value);
        }
        Msg::CacheDel { key } => {
            out.push(8);
            put_str(out, key);
        }
        Msg::Get { req, key } => {
            out.push(9);
            put_u64(out, *req);
            put_str(out, key);
        }
        Msg::GetResp { req, result } => {
            out.push(10);
            put_u64(out, *req);
            match result {
                Ok(None) => out.push(0),
                Ok(Some(v)) => {
                    out.push(5);
                    put_bytes(out, v);
                }
                Err(e) => put_store_error(out, *e),
            }
        }
        Msg::Put { req, key, value, delete } => {
            out.push(11);
            put_u64(out, *req);
            put_str(out, key);
            put_bytes(out, value);
            out.push(u8::from(*delete));
        }
        Msg::PutResp { req, result } => {
            out.push(12);
            put_u64(out, *req);
            put_store_result(out, result);
        }
        Msg::Cas { req, key, value, expected } => {
            out.push(13);
            put_u64(out, *req);
            put_str(out, key);
            put_bytes(out, value);
            put_u64(out, *expected);
        }
        Msg::CasResp { req, result } => {
            out.push(14);
            put_u64(out, *req);
            match result {
                Ok(v) => {
                    out.push(0);
                    put_u64(out, *v);
                }
                Err(e) => put_store_error(out, *e),
            }
        }
        Msg::StoreReplica { req, record } => {
            out.push(15);
            put_u64(out, *req);
            put_record(out, record);
        }
        Msg::StoreAck { req, ok } => {
            out.push(16);
            put_u64(out, *req);
            out.push(u8::from(*ok));
        }
        Msg::StoreReplicaBatch { ops } => {
            out.push(17);
            put_u32(out, ops.len() as u32);
            for op in ops {
                put_u64(out, op.req);
                put_record(out, &op.record);
            }
        }
        Msg::StoreAckBatch { acks } => {
            out.push(18);
            put_u32(out, acks.len() as u32);
            for (req, ok) in acks {
                put_u64(out, *req);
                out.push(u8::from(*ok));
            }
        }
        Msg::FetchReplica { req, key } => {
            out.push(19);
            put_u64(out, *req);
            put_str(out, key);
        }
        Msg::FetchAck { req, found, ok } => {
            out.push(20);
            put_u64(out, *req);
            match found {
                None => out.push(0),
                Some(r) => {
                    out.push(1);
                    put_record(out, r);
                }
            }
            out.push(u8::from(*ok));
        }
        Msg::StoreHint { req, intended, record } => {
            out.push(21);
            put_u64(out, *req);
            put_node(out, *intended);
            put_record(out, record);
        }
        Msg::TransferRecords { records } => {
            out.push(22);
            put_u32(out, records.len() as u32);
            records.iter().for_each(|r| put_record(out, r));
        }
        Msg::SyncDigest { entries } => {
            out.push(23);
            put_u32(out, entries.len() as u32);
            for (k, v) in entries {
                put_str(out, k);
                put_u64(out, *v);
            }
        }
        Msg::SyncRecords { records } => {
            out.push(24);
            put_u32(out, records.len() as u32);
            records.iter().for_each(|r| put_record(out, r));
        }
        Msg::Gossip(g) => {
            out.push(25);
            put_gossip(out, g);
        }
        Msg::RingReq { req } => {
            out.push(26);
            put_u64(out, *req);
        }
        Msg::RingResp { req, members } => {
            out.push(27);
            put_u64(out, *req);
            put_u32(out, members.len() as u32);
            members.iter().for_each(|n| put_node(out, *n));
        }
        Msg::SyncTreeRequest { ring_hash, root } => {
            out.push(28);
            put_u64(out, *ring_hash);
            put_u64(out, *root);
        }
        Msg::SyncTreeLevel { ring_hash, nodes } => {
            out.push(29);
            put_u64(out, *ring_hash);
            put_u32(out, nodes.len() as u32);
            for (idx, h) in nodes {
                put_u32(out, *idx);
                put_u64(out, *h);
            }
        }
        Msg::MigrateCutover { start, end } => {
            out.push(31);
            put_u64(out, *start);
            put_u64(out, *end);
        }
        Msg::MigrateBegin { start, end } => {
            out.push(32);
            put_u64(out, *start);
            put_u64(out, *end);
        }
        Msg::SyncLeafDigest { ring_hash, leaves, entries } => {
            out.push(30);
            put_u64(out, *ring_hash);
            put_u32(out, leaves.len() as u32);
            leaves.iter().for_each(|l| put_u32(out, *l));
            put_u32(out, entries.len() as u32);
            for (k, v) in entries {
                put_str(out, k);
                put_u64(out, *v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::decode::decode_traced;
    use super::*;
    use mystore_bson::ObjectId;
    use mystore_core::{status, BatchPut, RestRequest, RestResponse, Signature};
    use mystore_gossip::VersionedValue;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    /// Every frame the codec has ever been committed to: one hex line per
    /// encoding, append-only (`#` lines are comments).
    const WIRE_GOLDEN: &str = include_str!("../../tests/golden/wire.golden");

    /// The highest tag [`tag_of`] returns.
    const LAST_TAG: u8 = 32;

    /// The wire tag of each `Msg` variant. Exhaustive on purpose: a new
    /// variant does not compile until it has an arm here (and `LAST_TAG`
    /// moves), and `every_variant_has_a_sample` then fails until
    /// `sample_msgs` holds one.
    fn tag_of(msg: &Msg) -> u8 {
        match msg {
            Msg::RestReq(_) => 1,
            Msg::RestResp(_) => 2,
            Msg::TokenReq { .. } => 3,
            Msg::TokenResp { .. } => 4,
            Msg::CacheGet { .. } => 5,
            Msg::CacheGetResp { .. } => 6,
            Msg::CachePut { .. } => 7,
            Msg::CacheDel { .. } => 8,
            Msg::Get { .. } => 9,
            Msg::GetResp { .. } => 10,
            Msg::Put { .. } => 11,
            Msg::PutResp { .. } => 12,
            Msg::Cas { .. } => 13,
            Msg::CasResp { .. } => 14,
            Msg::StoreReplica { .. } => 15,
            Msg::StoreAck { .. } => 16,
            Msg::StoreReplicaBatch { .. } => 17,
            Msg::StoreAckBatch { .. } => 18,
            Msg::FetchReplica { .. } => 19,
            Msg::FetchAck { .. } => 20,
            Msg::StoreHint { .. } => 21,
            Msg::TransferRecords { .. } => 22,
            Msg::SyncDigest { .. } => 23,
            Msg::SyncRecords { .. } => 24,
            Msg::Gossip(_) => 25,
            Msg::RingReq { .. } => 26,
            Msg::RingResp { .. } => 27,
            Msg::SyncTreeRequest { .. } => 28,
            Msg::SyncTreeLevel { .. } => 29,
            Msg::SyncLeafDigest { .. } => 30,
            Msg::MigrateCutover { .. } => 31,
            Msg::MigrateBegin { .. } => 32,
        }
    }

    fn encode(msg: &Msg) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_msg(msg, &mut buf);
        buf
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(line: &str) -> Vec<u8> {
        (0..line.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&line[i..i + 2], 16).expect("hex golden line"))
            .collect()
    }

    fn golden_lines() -> impl Iterator<Item = &'static str> {
        WIRE_GOLDEN.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#'))
    }

    fn sample_record(key: &str) -> Record {
        Record {
            id: ObjectId::from_parts(7, 0x1234, 99),
            self_key: key.to_string(),
            val: vec![1, 2, 3, 250],
            is_data: true,
            is_del: false,
            version: mystore_engine::pack_version(1_000_000, 3),
        }
    }

    fn sample_msgs() -> Vec<Msg> {
        vec![
            Msg::RestReq(RestRequest {
                req: 1,
                method: Method::Post,
                key: Some("k".into()),
                body: Arc::new(b"abc".to_vec()),
                if_match: Some("42".into()),
                auth: Some((
                    "user".into(),
                    Signature { token: "tok".into(), digest: "d1g".into() },
                )),
            }),
            Msg::RestReq(RestRequest {
                req: 2,
                method: Method::Get,
                key: None,
                body: Arc::new(Vec::new()),
                if_match: None,
                auth: None,
            }),
            Msg::RestReq(RestRequest {
                req: 3,
                method: Method::Delete,
                key: Some("gone".into()),
                body: Arc::new(Vec::new()),
                if_match: None,
                auth: None,
            }),
            Msg::RestResp(RestResponse {
                req: 1,
                status: status::CREATED,
                body: Arc::new(b"out".to_vec()),
                assigned_key: Some("assigned".into()),
                from_cache: false,
            }),
            Msg::RestResp(RestResponse {
                req: 2,
                status: status::OK,
                body: Arc::new(b"hit".to_vec()),
                assigned_key: None,
                from_cache: true,
            }),
            Msg::TokenReq { req: 3, user: "alice".into() },
            Msg::TokenResp { req: 3, token: Some("t".into()) },
            Msg::TokenResp { req: 4, token: None },
            Msg::CacheGet { req: 5, key: "ck".into() },
            Msg::CacheGetResp { req: 5, value: Some(Arc::new(vec![9])) },
            Msg::CacheGetResp { req: 6, value: None },
            Msg::CachePut { key: "ck".into(), value: Arc::new(vec![1]) },
            Msg::CacheDel { key: "ck".into() },
            Msg::Get { req: 7, key: "gk".into() },
            Msg::GetResp { req: 7, result: Ok(Some(Arc::new(vec![1, 2]))) },
            Msg::GetResp { req: 8, result: Ok(None) },
            Msg::GetResp { req: 9, result: Err(StoreError::QuorumReadFailed) },
            Msg::Put { req: 10, key: "pk".into(), value: Arc::new(vec![3]), delete: true },
            Msg::Put { req: 11, key: "pk".into(), value: Arc::new(vec![5]), delete: false },
            Msg::PutResp { req: 10, result: Ok(()) },
            Msg::PutResp { req: 11, result: Err(StoreError::NoRing) },
            Msg::PutResp { req: 12, result: Err(StoreError::QuorumWriteFailed) },
            Msg::Cas { req: 12, key: "c".into(), value: Arc::new(vec![4]), expected: 17 },
            Msg::CasResp { req: 12, result: Ok(18) },
            Msg::CasResp { req: 13, result: Err(StoreError::CasConflict(19)) },
            Msg::StoreReplica { req: 14, record: Arc::new(sample_record("r1")) },
            Msg::StoreAck { req: 14, ok: true },
            Msg::StoreAck { req: 15, ok: false },
            Msg::StoreReplicaBatch {
                ops: vec![
                    BatchPut { req: 15, record: Arc::new(sample_record("b1")) },
                    BatchPut { req: 16, record: Arc::new(sample_record("b2")) },
                ],
            },
            Msg::StoreAckBatch { acks: vec![(15, true), (16, false)] },
            Msg::FetchReplica { req: 17, key: "fk".into() },
            Msg::FetchAck { req: 17, found: Some(sample_record("f1")), ok: true },
            Msg::FetchAck { req: 18, found: None, ok: false },
            Msg::StoreHint { req: 19, intended: NodeId(4), record: Arc::new(sample_record("h")) },
            Msg::TransferRecords { records: vec![Arc::new(sample_record("t1"))] },
            Msg::SyncDigest { entries: vec![("s1".into(), 100), ("s2".into(), 200)] },
            Msg::SyncRecords { records: vec![sample_record("s1")] },
            Msg::SyncTreeRequest { ring_hash: 0xfeed, root: 0xbeef },
            Msg::SyncTreeLevel { ring_hash: 0xfeed, nodes: vec![(1, 77), (2, 88)] },
            Msg::SyncLeafDigest {
                ring_hash: 0xfeed,
                leaves: vec![15, 16],
                entries: vec![("lk".into(), 300)],
            },
            Msg::Gossip(GossipMsg::Syn(vec![Digest {
                endpoint: NodeId(1),
                generation: 2,
                max_version: 3,
            }])),
            Msg::Gossip(GossipMsg::Ack1 {
                deltas: vec![EndpointDelta {
                    endpoint: NodeId(2),
                    generation: 5,
                    heartbeat: Some(77),
                    app_states: vec![(
                        "load".into(),
                        VersionedValue { value: "12".into(), version: 9 },
                    )],
                    max_version: 9,
                }],
                requests: vec![Digest { endpoint: NodeId(0), generation: 1, max_version: 0 }],
            }),
            Msg::Gossip(GossipMsg::Ack1 {
                deltas: vec![EndpointDelta {
                    endpoint: NodeId(5),
                    generation: 6,
                    heartbeat: None,
                    app_states: vec![],
                    max_version: 4,
                }],
                requests: vec![],
            }),
            Msg::Gossip(GossipMsg::Ack2 {
                deltas: vec![EndpointDelta {
                    endpoint: NodeId(3),
                    generation: 1,
                    heartbeat: None,
                    app_states: vec![],
                    max_version: 0,
                }],
            }),
            // Dense minimal app_states at the tail: regression for the
            // count() sanity bound — it must reflect the true per-element
            // minimum (16 bytes), or legitimate tight encodings get
            // rejected as forged counts.
            Msg::Gossip(GossipMsg::Ack2 {
                deltas: vec![EndpointDelta {
                    endpoint: NodeId(4),
                    generation: 2,
                    heartbeat: Some(1),
                    app_states: vec![
                        (String::new(), VersionedValue { value: String::new(), version: 1 }),
                        (String::new(), VersionedValue { value: String::new(), version: 2 }),
                        ("r".into(), VersionedValue { value: "1".into(), version: 3 }),
                    ],
                    max_version: 3,
                }],
            }),
            Msg::RingReq { req: 20 },
            Msg::RingResp { req: 20, members: vec![NodeId(0), NodeId(1), NodeId(2)] },
            Msg::MigrateCutover { start: 0xdead_beef, end: 0xcafe_f00d },
            Msg::MigrateBegin { start: 0x1111, end: 0x2222 },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for msg in sample_msgs() {
            let mut buf = Vec::new();
            encode_msg(&msg, &mut buf);
            let back = decode_msg(&buf)
                .unwrap_or_else(|| panic!("decode failed for {msg:?} ({} bytes)", buf.len()));
            // Msg has no PartialEq (Arc payloads); compare debug forms.
            assert_eq!(format!("{msg:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        for msg in sample_msgs() {
            let mut buf = Vec::new();
            encode_msg(&msg, &mut buf);
            for cut in 0..buf.len() {
                assert!(
                    decode_msg(&buf[..cut]).is_none(),
                    "truncated frame ({cut}/{} bytes) decoded for {msg:?}",
                    buf.len()
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for msg in sample_msgs() {
            let mut buf = Vec::new();
            encode_msg(&msg, &mut buf);
            buf.push(0);
            assert!(decode_msg(&buf).is_none(), "trailing byte accepted for {msg:?}");
        }
    }

    #[test]
    fn every_variant_has_a_sample() {
        let mut tags = BTreeSet::new();
        for msg in sample_msgs() {
            assert_eq!(encode(&msg)[0], tag_of(&msg), "encoded tag of {msg:?}");
            tags.insert(tag_of(&msg));
        }
        assert_eq!(tags, (1..=LAST_TAG).collect(), "a Msg variant has no sample");
        // The decoder knows no tag past LAST_TAG: a zero body of any
        // length after it is still rejected.
        for len in 0..=256 {
            let mut buf = vec![0u8; len + 1];
            buf[0] = LAST_TAG + 1;
            assert!(decode_msg(&buf).is_none(), "tag {} decodes; give it a sample", LAST_TAG + 1);
        }
    }

    #[test]
    fn committed_frames_decode_and_re_encode_byte_for_byte() {
        let mut lines = 0;
        for line in golden_lines() {
            let msg = decode_msg(&unhex(line))
                .unwrap_or_else(|| panic!("committed wire frame no longer decodes: {line}"));
            assert_eq!(hex(&encode(&msg)), line, "committed frame re-encodes differently: {msg:?}");
            lines += 1;
        }
        assert!(lines >= sample_msgs().len());
    }

    #[test]
    fn every_sample_encoding_is_committed() {
        let committed: BTreeSet<&str> = golden_lines().collect();
        let missing: Vec<String> = sample_msgs()
            .iter()
            .map(|msg| hex(&encode(msg)))
            .filter(|h| !committed.contains(h.as_str()))
            .collect();
        assert!(
            missing.is_empty(),
            "sample encodings missing from tests/golden/wire.golden. Existing frames are \
             frozen; if this is a deliberate append (a new tag or a new sample), append:\n{}",
            missing.join("\n")
        );
    }

    #[test]
    fn forged_counts_are_rejected_before_allocating() {
        let mut forged_fields = 0;
        for msg in sample_msgs() {
            let clean = encode(&msg);
            let (back, counts) = decode_traced(&clean);
            assert!(back.is_some(), "{msg:?}");
            for (at, _) in counts {
                for forged in [0x00FF_FFFFu32, u32::MAX] {
                    let mut dirty = clean.clone();
                    dirty[at..at + 4].copy_from_slice(&forged.to_le_bytes());
                    let (got, reserved) = decode_traced(&dirty);
                    assert!(got.is_none(), "count at byte {at} forged to {forged:#x}: {msg:?}");
                    for (_, capacity) in reserved {
                        assert!(
                            capacity <= dirty.len(),
                            "reserved {capacity} elements for a {}-byte frame: {msg:?}",
                            dirty.len()
                        );
                    }
                }
                forged_fields += 1;
            }
        }
        // The samples reach each of decode.rs's 14 `seq` call sites.
        assert!(forged_fields >= 14, "only {forged_fields} count fields swept");
    }

    #[test]
    fn bad_tag_and_bad_flags_are_rejected() {
        assert!(decode_msg(&[]).is_none());
        assert!(decode_msg(&[99]).is_none());
        // StoreAck with flag byte 2 (not a bool).
        let mut buf = vec![16u8];
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.push(2);
        assert!(decode_msg(&buf).is_none());
        // Non-UTF8 key in Get.
        let mut buf = vec![9u8];
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert!(decode_msg(&buf).is_none());
    }

    #[test]
    fn byte_flip_fuzz_never_panics() {
        // Deterministic single-byte corruption sweep: decode must return
        // (Some or None) without panicking, and if it decodes, re-encoding
        // must be stable (decode ∘ encode is idempotent).
        for msg in sample_msgs() {
            let mut clean = Vec::new();
            encode_msg(&msg, &mut clean);
            for i in 0..clean.len() {
                for flip in [0x01u8, 0x80, 0xFF] {
                    let mut dirty = clean.clone();
                    dirty[i] ^= flip;
                    if let Some(decoded) = decode_msg(&dirty) {
                        let mut re = Vec::new();
                        encode_msg(&decoded, &mut re);
                        let back = decode_msg(&re).expect("re-encode of decoded msg");
                        assert_eq!(format!("{decoded:?}"), format!("{back:?}"));
                    }
                }
            }
        }
    }
}
