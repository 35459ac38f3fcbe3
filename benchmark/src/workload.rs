//! The four workloads, the seeded op stream, and self-describing bodies.
//!
//! Everything the cluster sees is a function of `--seed`: which key each op
//! touches, whether it is a GET or a PUT, and every body byte. The cluster
//! receives only the generated requests.

use std::sync::atomic::{AtomicU32, Ordering};

/// How requests enter the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// HTTP/1.1 keep-alive connections to host 0's REST listener.
    Http,
    /// Binary wire frames (`Msg::RestReq`) to host 0's frontend, pipelined.
    Wire,
}

/// One traffic mix. The table in `README.md` is generated from these
/// values by hand; keep the two in step.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why this workload exists: which layer carries it, and which
    /// optimisation it bypasses. Copied into `BENCHMARK.json`.
    pub why: &'static str,
    pub entry: Entry,
    /// File WAL with real fsync (default commit policy) instead of memory.
    pub durable: bool,
    pub keys: u32,
    pub value_bytes: usize,
    pub get_percent: u32,
    /// Open-loop offered rate, ops/s over all connections.
    pub rate: u32,
    pub conns: u32,
    /// Closed-loop requests outstanding per connection.
    pub window: usize,
    /// A completed op slower than this (from its due time), or a failed
    /// one, counts towards `client.over_limit_ratio`.
    pub p99_limit_us: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "rest_small",
        why: "1 KiB values over HTTP: per-request fixed costs (HTTP parse, codec, gateway hops, \
              thread hand-offs, ring lookup) do the work; a payload-copy optimisation must show no change.",
        entry: Entry::Http,
        durable: false,
        keys: 20_000,
        value_bytes: 1024,
        get_percent: 80,
        rate: 1500,
        conns: 2,
        window: 1,
        p99_limit_us: 5_000,
    },
    Workload {
        name: "rest_large",
        why: "16 KiB values over HTTP: per-byte costs (payload copies, BSON, CRC, socket bytes, \
              allocation) dominate; the one-encoded-record work shows here and nowhere else.",
        entry: Entry::Http,
        durable: false,
        keys: 1_000,
        value_bytes: 16 * 1024,
        get_percent: 90,
        rate: 800,
        conns: 2,
        window: 1,
        p99_limit_us: 20_000,
    },
    Workload {
        name: "rest_durable",
        why: "Write-heavy on the file WAL with real fsync and the default commit policy: append + \
              fsync carry the PUTs while GETs share the engine, so a commit-path change or default flip shows.",
        entry: Entry::Http,
        durable: true,
        keys: 4_000,
        value_bytes: 1024,
        get_percent: 30,
        rate: 800,
        conns: 2,
        window: 1,
        p99_limit_us: 10_000,
    },
    Workload {
        name: "wire_pipelined",
        why: "One pipelined binary-wire connection, many requests in flight: bypasses http entirely \
              and is the only regime that loads gateway queues, peer-socket batching and coordinator concurrency.",
        entry: Entry::Wire,
        durable: false,
        keys: 20_000,
        value_bytes: 256,
        get_percent: 80,
        rate: 3000,
        conns: 1,
        window: 16,
        p99_limit_us: 5_000,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One generated request: a GET when `seq == 0`, else the PUT that writes
/// sequence `seq` of its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub key: u32,
    pub seq: u32,
}

impl Op {
    pub fn is_get(&self) -> bool {
        self.seq == 0
    }
}

pub fn key_name(key: u32) -> String {
    format!("k{key:06}")
}

/// Per-key sequence numbers, shared by every stream that drives one
/// cluster. `issued` is bumped when a PUT is generated (always before it is
/// sent), `acked` when its success reply arrives. Concurrent connections
/// own disjoint keys, so each key has one writer and both are monotone.
pub struct KeyState {
    issued: Vec<AtomicU32>,
    acked: Vec<AtomicU32>,
}

impl KeyState {
    pub fn new(keys: u32) -> Self {
        let zeros = || (0..keys).map(|_| AtomicU32::new(0)).collect();
        KeyState { issued: zeros(), acked: zeros() }
    }

    pub fn next_seq(&self, key: u32) -> u32 {
        // SeqCst: the receiver thread of a pipelined connection reads this
        // after the reply that can first carry the new sequence.
        self.issued[key as usize].fetch_add(1, Ordering::SeqCst) + 1
    }

    pub fn issued(&self, key: u32) -> u32 {
        self.issued[key as usize].load(Ordering::SeqCst)
    }

    pub fn ack(&self, key: u32, seq: u32) {
        self.acked[key as usize].fetch_max(seq, Ordering::SeqCst);
    }

    pub fn acked(&self, key: u32) -> u32 {
        self.acked[key as usize].load(Ordering::SeqCst)
    }
}

/// xorshift64*: small, seedable, and good enough for uniform keys.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        // splitmix64 step so that nearby seeds give unrelated streams.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// A key is not written again until this many later PUTs of its stream have
/// been generated. Each host of the TCP mesh stamps LWW versions from its
/// own boot-relative clock, so two PUTs of one key a few milliseconds apart
/// through different coordinators can be ordered against their send order;
/// the acked-write check could not tell that from a lost write.
const REWRITE_GAP: usize = 64;

/// The seeded op stream of one connection: uniform keys among those the
/// connection owns (`key % conns == conn`), the workload's GET share.
pub struct OpStream {
    rng: Rng,
    conn: u32,
    conns: u32,
    owned: u32,
    get_percent: u32,
    recent_puts: [u32; REWRITE_GAP],
    puts: usize,
}

impl OpStream {
    pub fn new(w: &Workload, seed: u64, conn: u32, conns: u32) -> Self {
        let owned = (w.keys - conn).div_ceil(conns);
        assert!(owned as usize > 2 * REWRITE_GAP, "keyspace too small for {conns} connections");
        OpStream {
            rng: Rng::new(seed ^ ((conn as u64 + 1) << 48) ^ ((w.keys as u64) << 20)),
            conn,
            conns,
            owned,
            get_percent: w.get_percent,
            recent_puts: [u32::MAX; REWRITE_GAP],
            puts: 0,
        }
    }

    pub fn next_op(&mut self, keys: &KeyState) -> Op {
        let is_get = self.rng.next() % 100 < self.get_percent as u64;
        loop {
            let key = self.conn + self.conns * (self.rng.next() % self.owned as u64) as u32;
            if is_get {
                return Op { key, seq: 0 };
            }
            if self.recent_puts.contains(&key) {
                continue;
            }
            self.recent_puts[self.puts % REWRITE_GAP] = key;
            self.puts += 1;
            return Op { key, seq: keys.next_seq(key) };
        }
    }
}

// ---- bodies ----------------------------------------------------------------

/// Header: key hash (8) + sequence (4) + length (4) + checksum (8).
const BODY_HDR: usize = 24;

fn key_hash(key: u32) -> u64 {
    (key as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31)
}

/// 64-bit multiply-rotate hash, eight bytes a step: a 32 KiB body must
/// cost the generator microseconds, not tens of them.
fn checksum(parts: [&[u8]; 2]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for part in parts {
        let mut chunks = part.chunks_exact(8);
        for c in &mut chunks {
            let w = u64::from_le_bytes(c.try_into().expect("8 bytes"));
            h = (h ^ w).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(29);
        }
        for &b in chunks.remainder() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// The size of the value `(key, seq)` carries: uniform within a quarter
/// either side of the workload's nominal size, and a function of the pair,
/// so a reader can check it.
///
/// Sizes vary because real values do, and because fixed ones put the seed
/// in an erratic regime of its own making: equal-sized frames on a peer
/// socket without `TCP_NODELAY` trip Linux's receive-MSS estimate into
/// delaying every ACK, and the share of ops that sit out a 40 ms timer then
/// swings between runs.
pub fn value_len(nominal: usize, key: u32, seq: u32) -> usize {
    let h = key_hash(key ^ seq.rotate_left(16)).wrapping_mul(0xD6E8_FEB8_6659_FD93) >> 33;
    let span = nominal / 2;
    (nominal - span / 2 + (h as usize % (span + 1))).max(BODY_HDR)
}

/// Builds PUT bodies: a self-describing header, then seeded padding up to
/// the value's size.
pub struct Bodies {
    padding: Vec<u8>,
    nominal: usize,
}

impl Bodies {
    pub fn new(seed: u64, nominal: usize) -> Self {
        let mut rng = Rng::new(seed ^ 0x00B0_D1E5);
        let longest = nominal + nominal / 4;
        Bodies { padding: (0..longest).map(|_| rng.next() as u8).collect(), nominal }
    }

    /// The longest body, for sizing buffers.
    pub fn max_len(&self) -> usize {
        self.padding.len()
    }

    /// Writes the body of `(key, seq)` into `out` (cleared first).
    pub fn fill(&self, key: u32, seq: u32, out: &mut Vec<u8>) {
        let len = value_len(self.nominal, key, seq);
        let padding = &self.padding[..len - BODY_HDR];
        out.clear();
        out.extend_from_slice(&key_hash(key).to_le_bytes());
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(&(len as u32).to_le_bytes());
        let sum = checksum([&out[..16], padding]);
        out.extend_from_slice(&sum.to_le_bytes());
        out.extend_from_slice(padding);
    }
}

/// Checks a body read back for `key` and returns the sequence it carries.
/// `None`: another key's body, a length that is not that sequence's, or
/// bytes that fail the checksum.
pub fn verify_body(key: u32, nominal: usize, body: &[u8]) -> Option<u32> {
    if body.len() < BODY_HDR {
        return None;
    }
    let field = |at: usize, n: usize| &body[at..at + n];
    if u64::from_le_bytes(field(0, 8).try_into().ok()?) != key_hash(key) {
        return None;
    }
    let seq = u32::from_le_bytes(field(8, 4).try_into().ok()?);
    let len = u32::from_le_bytes(field(12, 4).try_into().ok()?) as usize;
    if len != body.len() || len != value_len(nominal, key, seq) {
        return None;
    }
    let sum = u64::from_le_bytes(field(16, 8).try_into().ok()?);
    if sum != checksum([&body[..16], &body[BODY_HDR..]]) {
        return None;
    }
    Some(seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stream as the cluster would see it: verb, key and body bytes.
    fn stream_bytes(w: &Workload, seed: u64, n: usize) -> Vec<u8> {
        let keys = KeyState::new(w.keys);
        let bodies = Bodies::new(seed, w.value_bytes);
        let mut out = Vec::new();
        let mut body = Vec::new();
        for conn in 0..w.conns {
            let mut stream = OpStream::new(w, seed, conn, w.conns);
            for _ in 0..n {
                let op = stream.next_op(&keys);
                out.extend_from_slice(key_name(op.key).as_bytes());
                out.push(op.is_get() as u8);
                if !op.is_get() {
                    bodies.fill(op.key, op.seq, &mut body);
                    out.extend_from_slice(&body);
                }
            }
        }
        out
    }

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        for w in &WORKLOADS {
            assert_eq!(stream_bytes(w, 7, 300), stream_bytes(w, 7, 300), "{}", w.name);
        }
    }

    #[test]
    fn another_seed_gives_another_stream() {
        for w in &WORKLOADS {
            assert_ne!(stream_bytes(w, 7, 300), stream_bytes(w, 8, 300), "{}", w.name);
        }
    }

    #[test]
    fn connections_own_disjoint_keys_and_the_mix_holds() {
        let w = &WORKLOADS[0];
        let keys = KeyState::new(w.keys);
        let mut gets = 0;
        for conn in 0..w.conns {
            let mut stream = OpStream::new(w, 1, conn, w.conns);
            for _ in 0..10_000 {
                let op = stream.next_op(&keys);
                assert_eq!(op.key % w.conns, conn);
                assert!(op.key < w.keys);
                gets += op.is_get() as u32;
            }
        }
        let share = gets as f64 / 20_000.0;
        assert!((share - 0.8).abs() < 0.02, "GET share {share}");
    }

    #[test]
    fn a_key_is_not_rewritten_within_the_gap() {
        let w = &WORKLOADS[2];
        let keys = KeyState::new(w.keys);
        let mut stream = OpStream::new(w, 3, 0, w.conns);
        let puts: Vec<u32> = (0..50_000)
            .map(|_| stream.next_op(&keys))
            .filter(|op| !op.is_get())
            .map(|op| op.key)
            .collect();
        for (i, key) in puts.iter().enumerate() {
            let from = i.saturating_sub(REWRITE_GAP - 1);
            assert!(!puts[from..i].contains(key), "key {key} rewritten at put {i}");
        }
    }

    #[test]
    fn bodies_verify_and_corruption_is_caught() {
        let bodies = Bodies::new(5, 1024);
        let mut body = Vec::new();
        bodies.fill(42, 9, &mut body);
        assert_eq!(body.len(), value_len(1024, 42, 9));
        assert_eq!(verify_body(42, 1024, &body), Some(9));
        assert_eq!(verify_body(43, 1024, &body), None, "another key's body");
        assert_eq!(verify_body(42, 4096, &body), None, "another workload's length");
        assert_eq!(verify_body(42, 1024, &body[..body.len() - 1]), None, "cut short");
        for at in [0, 9, 13, 17, 24, 500, body.len() - 1] {
            let mut bad = body.clone();
            bad[at] ^= 1;
            assert_eq!(verify_body(42, 1024, &bad), None, "flip at {at}");
        }
    }

    #[test]
    fn value_sizes_spread_around_the_nominal_size() {
        let lens: Vec<usize> = (0..4000).map(|i| value_len(1024, i % 100, 1 + i / 100)).collect();
        assert!(lens.iter().all(|&l| (768..=1280).contains(&l)));
        let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
        assert!((mean - 1024.0).abs() < 16.0, "mean {mean}");
        let same = lens.windows(2).filter(|p| p[0] == p[1]).count();
        assert!(same < 40, "{same} equal neighbours");
    }
}
