//! Decoding half of the wire codec: the bounds-checked `Rd` cursor and
//! [`decode_msg`]. The layout rules and `encode_msg` live in the parent
//! module ([`crate::codec`]); the round-trip tests there cover both halves.

use std::sync::Arc;

use mystore_bson::ObjectId;
use mystore_core::{BatchPut, Method, Msg, RestRequest, RestResponse, Signature, StoreError};
use mystore_engine::Record;
use mystore_gossip::{Digest, EndpointDelta, GossipMsg, VersionedValue};
use mystore_net::NodeId;

use super::OID_LEN;

/// Bounds-checked cursor over a received frame. Every accessor returns
/// `None` on underflow; nothing here can panic on hostile input.
struct Rd<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Rd<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let s = self.buf.get(self.at..end)?;
        self.at = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    fn bytes(&mut self) -> Option<Vec<u8>> {
        let n = self.u32()? as usize;
        Some(self.take(n)?.to_vec())
    }

    fn str(&mut self) -> Option<String> {
        String::from_utf8(self.bytes()?).ok()
    }

    fn opt_str(&mut self) -> Option<Option<String>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(self.str()?)),
            _ => None,
        }
    }

    fn node(&mut self) -> Option<NodeId> {
        Some(NodeId(self.u32()?))
    }

    /// One `(key, version)` entry of a sync digest.
    fn str_u64(&mut self) -> Option<(String, u64)> {
        Some((self.str()?, self.u64()?))
    }

    /// Reads a `u32` count and then that many elements with `elem`. The
    /// only place a decoded count sizes an allocation: the count is first
    /// checked against the bytes left, given a (conservative) minimum
    /// encoded size per element, so a forged count fails here instead of
    /// reserving gigabytes.
    fn seq<T>(
        &mut self,
        min_elem: usize,
        mut elem: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        #[cfg(test)]
        let count_at = self.at;
        let n = self.u32()? as usize;
        if n.checked_mul(min_elem)? > self.buf.len() - self.at {
            return None;
        }
        let mut out = Vec::with_capacity(n);
        #[cfg(test)]
        SEQ_TRACE.with(|t| t.borrow_mut().push((count_at, out.capacity())));
        for _ in 0..n {
            out.push(elem(self)?);
        }
        Some(out)
    }

    fn record(&mut self) -> Option<Record> {
        let oid: [u8; OID_LEN] = self.take(OID_LEN)?.try_into().ok()?;
        let self_key = self.str()?;
        let val = self.bytes()?;
        let flags = self.u8()?;
        if flags & !0b11 != 0 {
            return None;
        }
        let version = self.u64()?;
        Some(Record {
            id: ObjectId::from_bytes(oid),
            self_key,
            val,
            is_data: flags & 1 != 0,
            is_del: flags & 2 != 0,
            version,
        })
    }

    fn store_error(&mut self, code: u8) -> Option<StoreError> {
        match code {
            1 => Some(StoreError::QuorumWriteFailed),
            2 => Some(StoreError::QuorumReadFailed),
            3 => Some(StoreError::NoRing),
            4 => Some(StoreError::CasConflict(self.u64()?)),
            _ => None,
        }
    }

    fn store_result(&mut self) -> Option<Result<(), StoreError>> {
        match self.u8()? {
            0 => Some(Ok(())),
            code => Some(Err(self.store_error(code)?)),
        }
    }

    fn digest(&mut self) -> Option<Digest> {
        Some(Digest { endpoint: self.node()?, generation: self.u64()?, max_version: self.u64()? })
    }

    fn delta(&mut self) -> Option<EndpointDelta> {
        let endpoint = self.node()?;
        let generation = self.u64()?;
        let heartbeat = match self.u8()? {
            0 => None,
            1 => Some(self.u64()?),
            _ => return None,
        };
        // Minimum app_state: two empty strings (4-byte lengths) + version.
        let app_states = self.seq(4 + 4 + 8, |rd| {
            Some((rd.str()?, VersionedValue { value: rd.str()?, version: rd.u64()? }))
        })?;
        let max_version = self.u64()?;
        Some(EndpointDelta { endpoint, generation, heartbeat, app_states, max_version })
    }

    fn gossip(&mut self) -> Option<GossipMsg> {
        match self.u8()? {
            1 => Some(GossipMsg::Syn(self.seq(20, Self::digest)?)),
            2 => Some(GossipMsg::Ack1 {
                deltas: self.seq(21, Self::delta)?,
                requests: self.seq(20, Self::digest)?,
            }),
            3 => Some(GossipMsg::Ack2 { deltas: self.seq(21, Self::delta)? }),
            _ => None,
        }
    }
}

/// Minimum encoded size of a [`Record`]: oid + two lengths + flags + version.
const RECORD_MIN: usize = OID_LEN + 4 + 4 + 1 + 8;

/// Decodes one message. `None` on any malformation: truncation, bad tag or
/// flag byte, invalid UTF-8, forged count, or trailing bytes.
pub fn decode_msg(buf: &[u8]) -> Option<Msg> {
    let mut rd = Rd { buf, at: 0 };
    let msg = match rd.u8()? {
        1 => {
            let req = rd.u64()?;
            let method = match rd.u8()? {
                0 => Method::Get,
                1 => Method::Post,
                2 => Method::Delete,
                _ => return None,
            };
            let key = rd.opt_str()?;
            let body = Arc::new(rd.bytes()?);
            let if_match = rd.opt_str()?;
            let auth = match rd.u8()? {
                0 => None,
                1 => {
                    let user = rd.str()?;
                    let token = rd.str()?;
                    let digest = rd.str()?;
                    Some((user, Signature { token, digest }))
                }
                _ => return None,
            };
            Msg::RestReq(RestRequest { req, method, key, body, if_match, auth })
        }
        2 => Msg::RestResp(RestResponse {
            req: rd.u64()?,
            status: rd.u16()?,
            body: Arc::new(rd.bytes()?),
            assigned_key: rd.opt_str()?,
            from_cache: rd.bool()?,
        }),
        3 => Msg::TokenReq { req: rd.u64()?, user: rd.str()? },
        4 => Msg::TokenResp { req: rd.u64()?, token: rd.opt_str()? },
        5 => Msg::CacheGet { req: rd.u64()?, key: rd.str()? },
        6 => {
            let req = rd.u64()?;
            let value = match rd.u8()? {
                0 => None,
                1 => Some(Arc::new(rd.bytes()?)),
                _ => return None,
            };
            Msg::CacheGetResp { req, value }
        }
        7 => Msg::CachePut { key: rd.str()?, value: Arc::new(rd.bytes()?) },
        8 => Msg::CacheDel { key: rd.str()? },
        9 => Msg::Get { req: rd.u64()?, key: rd.str()? },
        10 => {
            let req = rd.u64()?;
            let result = match rd.u8()? {
                0 => Ok(None),
                5 => Ok(Some(Arc::new(rd.bytes()?))),
                code => Err(rd.store_error(code)?),
            };
            Msg::GetResp { req, result }
        }
        11 => Msg::Put {
            req: rd.u64()?,
            key: rd.str()?,
            value: Arc::new(rd.bytes()?),
            delete: rd.bool()?,
        },
        12 => Msg::PutResp { req: rd.u64()?, result: rd.store_result()? },
        13 => Msg::Cas {
            req: rd.u64()?,
            key: rd.str()?,
            value: Arc::new(rd.bytes()?),
            expected: rd.u64()?,
        },
        14 => {
            let req = rd.u64()?;
            let result = match rd.u8()? {
                0 => Ok(rd.u64()?),
                code => Err(rd.store_error(code)?),
            };
            Msg::CasResp { req, result }
        }
        15 => Msg::StoreReplica { req: rd.u64()?, record: Arc::new(rd.record()?) },
        16 => Msg::StoreAck { req: rd.u64()?, ok: rd.bool()? },
        17 => Msg::StoreReplicaBatch {
            ops: rd.seq(8 + RECORD_MIN, |rd| {
                Some(BatchPut { req: rd.u64()?, record: Arc::new(rd.record()?) })
            })?,
        },
        18 => Msg::StoreAckBatch { acks: rd.seq(9, |rd| Some((rd.u64()?, rd.bool()?)))? },
        19 => Msg::FetchReplica { req: rd.u64()?, key: rd.str()? },
        20 => {
            let req = rd.u64()?;
            let found = match rd.u8()? {
                0 => None,
                1 => Some(rd.record()?),
                _ => return None,
            };
            Msg::FetchAck { req, found, ok: rd.bool()? }
        }
        21 => {
            Msg::StoreHint { req: rd.u64()?, intended: rd.node()?, record: Arc::new(rd.record()?) }
        }
        22 => Msg::TransferRecords { records: rd.seq(RECORD_MIN, |rd| rd.record().map(Arc::new))? },
        23 => Msg::SyncDigest { entries: rd.seq(4 + 8, Rd::str_u64)? },
        24 => Msg::SyncRecords { records: rd.seq(RECORD_MIN, Rd::record)? },
        25 => Msg::Gossip(rd.gossip()?),
        26 => Msg::RingReq { req: rd.u64()? },
        27 => Msg::RingResp { req: rd.u64()?, members: rd.seq(4, Rd::node)? },
        28 => Msg::SyncTreeRequest { ring_hash: rd.u64()?, root: rd.u64()? },
        29 => Msg::SyncTreeLevel {
            ring_hash: rd.u64()?,
            nodes: rd.seq(4 + 8, |rd| Some((rd.u32()?, rd.u64()?)))?,
        },
        30 => Msg::SyncLeafDigest {
            ring_hash: rd.u64()?,
            leaves: rd.seq(4, Rd::u32)?,
            entries: rd.seq(4 + 8, Rd::str_u64)?,
        },
        31 => Msg::MigrateCutover { start: rd.u64()?, end: rd.u64()? },
        32 => Msg::MigrateBegin { start: rd.u64()?, end: rd.u64()? },
        _ => return None,
    };
    // Strictness: the tag's grammar must account for every byte.
    if rd.at != buf.len() {
        return None;
    }
    Some(msg)
}

#[cfg(test)]
thread_local! {
    /// `(offset of the count, capacity reserved)` for every `Rd::seq` call
    /// on this thread, read by [`decode_traced`].
    static SEQ_TRACE: std::cell::RefCell<Vec<(usize, usize)>> = const {
        std::cell::RefCell::new(Vec::new())
    };
}

/// [`decode_msg`] plus, for every count it read, the count's offset in
/// `buf` and the capacity `Rd::seq` reserved for it.
#[cfg(test)]
pub(super) fn decode_traced(buf: &[u8]) -> (Option<Msg>, Vec<(usize, usize)>) {
    SEQ_TRACE.with(|t| t.borrow_mut().clear());
    let msg = decode_msg(buf);
    (msg, SEQ_TRACE.with(|t| t.take()))
}
