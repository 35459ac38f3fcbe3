//! The traced pass's instruments: spans recorded by the benchmark around
//! its calls into each layer, the layer replay, and `/proc/self` readings.
//!
//! Nothing here is active while the end-to-end metrics are measured.

use std::io::{Cursor, Write as _};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mystore_bson::{Document, ObjectId};
use mystore_core::Msg;
use mystore_engine::wal::Wal;
use mystore_engine::{pack_version, Db, Record};
use mystore_net::NodeId;
use mystore_ring::HashRing;
use mystore_serverd::{decode_msg, encode_msg, read_frame, write_frame};

use crate::cluster::{TempDir, NODES};
use crate::workload::{key_name, Bodies, KeyState, Op, OpStream, Workload};

/// One timed call: `(name, start, end, parent span, op id)`.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u32,
}

/// Spans kept in memory and written out when the pass ends.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { t0: Instant::now(), spans: Vec::new() }
    }

    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        op: u32,
    ) -> u32 {
        let ns = |t: Instant| t.duration_since(self.t0).as_nanos() as u64;
        self.spans.push(Span { name, start_ns: ns(start), end_ns: ns(end), parent, op });
        self.spans.len() as u32 - 1
    }

    /// Times one call into a layer.
    fn time<T>(&mut self, name: &'static str, parent: u32, op: u32, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        self.push(name, start, Instant::now(), Some(parent), op);
        out
    }

    /// Mean duration of the spans called `name`, and how many there are.
    pub fn mean_ns(&self, name: &str) -> (f64, usize) {
        let (sum, n) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0usize), |(sum, n), s| (sum + (s.end_ns - s.start_ns), n + 1));
        (if n == 0 { 0.0 } else { sum as f64 / n as f64 }, n)
    }

    /// `{"workload": .., "spans": [[name, start_ns, end_ns, parent, op], ..]}`;
    /// `parent` is an index into `spans`, or -1.
    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"workload\": \"{workload}\", \"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let sep = if i == 0 { "" } else { "," };
            write!(out, "{sep}\n[\"{}\",{},{},{parent},{}]", s.name, s.start_ns, s.end_ns, s.op)?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

// ---- /proc/self ---------------------------------------------------------------

/// Kernel accounting of this process; every reading includes the load
/// generator's own threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStat {
    /// User and system CPU in clock ticks (USER_HZ, 100 per second on
    /// Linux), summed over all threads, living or ended.
    pub utime_ticks: u64,
    pub stime_ticks: u64,
    /// Page faults served without I/O: first touches of fresh memory.
    pub minor_faults: u64,
    /// Voluntary + involuntary context switches, summed over the threads
    /// alive at the reading.
    pub ctx_switches: u64,
    pub threads: u64,
}

pub const TICK_US: f64 = 10_000.0;

fn status_field(status: &str, name: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

impl ProcStat {
    pub fn read() -> ProcStat {
        let mut stat = ProcStat::default();
        if let Ok(line) = std::fs::read_to_string("/proc/self/stat") {
            // Fields after the parenthesised command name: minflt, utime and
            // stime are the 10th, 14th and 15th of the line, so the 8th,
            // 12th and 13th here.
            let rest = line.rsplit_once(')').map_or("", |(_, r)| r);
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let field = |at: usize| fields.get(at).and_then(|v| v.parse().ok()).unwrap_or(0);
            stat.minor_faults = field(7);
            stat.utime_ticks = field(11);
            stat.stime_ticks = field(12);
        }
        for task in std::fs::read_dir("/proc/self/task").into_iter().flatten().flatten() {
            if let Ok(status) = std::fs::read_to_string(task.path().join("status")) {
                stat.threads += 1;
                stat.ctx_switches += status_field(&status, "voluntary_ctxt_switches")
                    + status_field(&status, "nonvoluntary_ctxt_switches");
            }
        }
        stat
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM") as f64 / 1024.0
}

// ---- layer replay -------------------------------------------------------------

/// Byte counts the replay gathers next to its spans.
#[derive(Default)]
pub struct ReplayBytes {
    pub ops: usize,
    pub user: u64,
    pub wire: u64,
    pub puts: u64,
    pub put_user: u64,
    pub bson: u64,
}

/// Pushes the first ops of the workload's stream through each layer's
/// public functions, in request order, one span per call. Stops after
/// `max_ops` or when `budget` is spent, whichever is first.
///
/// A PUT exercises what a replica write does (ring lookup, the
/// `StoreReplica` message through codec and frame, record → BSON → bytes
/// and back, the engine, WAL append + fsync on a real file); a GET what a
/// replica read does (ring lookup, the engine, the `FetchAck` message
/// through codec and frame).
pub fn replay(
    w: &Workload,
    seed: u64,
    max_ops: usize,
    budget: Duration,
    tracer: &mut Tracer,
) -> Result<ReplayBytes, String> {
    let err = |what: &str, e: &dyn std::fmt::Display| format!("replay {what}: {e}");
    let bodies = Bodies::new(seed, w.value_bytes);
    let keys = KeyState::new(w.keys);
    let mut body = Vec::new();

    let mut ring: HashRing<NodeId> = HashRing::new();
    for n in 0..NODES {
        ring.add_node(NodeId(n), format!("node{n}"), 64).map_err(|e| err("ring", &e))?;
    }
    // The engine at the workload's keyspace and value size.
    let mut db = Db::memory();
    db.create_index("data", "self-key").map_err(|e| err("index", &e))?;
    let record = |key: u32, seq: u32, val: Vec<u8>| {
        let id = ObjectId::from_parts(0, 1, key);
        Record::new(id, key_name(key), val, pack_version(seq as u64, 0))
    };
    for key in 0..w.keys {
        bodies.fill(key, 1, &mut body);
        db.put_record("data", &record(key, 1, body.clone())).map_err(|e| err("preload", &e))?;
    }
    let dir = TempDir::new("replay").map_err(|e| err("temp dir", &e))?;
    let mut wal = Wal::file(dir.path().join("replay.wal")).map_err(|e| err("wal", &e))?;

    let mut stream = OpStream::new(w, seed, 0, 1);
    let mut bytes = ReplayBytes::default();
    let began = Instant::now();
    while bytes.ops < max_ops && began.elapsed() < budget {
        let op: Op = stream.next_op(&keys);
        let id = bytes.ops as u32;
        let start = Instant::now();
        let root = tracer.push("replay.op", start, start, None, id);
        let t = &mut *tracer;
        let key = key_name(op.key);
        t.time("ring.key_point", root, id, || HashRing::<NodeId>::key_point(key.as_bytes()));
        t.time("ring.preference_list", root, id, || ring.preference_list(key.as_bytes(), 3));

        let msg = if op.is_get() {
            let found = t
                .time("engine.get_record", root, id, || db.get_record("data", &key))
                .map_err(|e| err("get_record", &e))?;
            Msg::FetchAck { req: id as u64, found, ok: true }
        } else {
            bodies.fill(op.key, op.seq + 1, &mut body);
            let rec = record(op.key, op.seq + 1, body.clone());
            let encoded = t.time("bson.encode", root, id, || rec.to_document().to_bytes());
            let back = t.time("bson.decode", root, id, || {
                Document::from_bytes(&encoded).ok().and_then(|d| Record::from_document(&d).ok())
            });
            if back.as_ref() != Some(&rec) {
                return Err("replay: BSON round trip changed the record".into());
            }
            t.time("engine.put_record", root, id, || db.put_record("data", &rec))
                .map_err(|e| err("put_record", &e))?;
            t.time("wal.append", root, id, || wal.append_nosync(&encoded))
                .map_err(|e| err("wal append", &e))?;
            t.time("wal.sync", root, id, || wal.sync()).map_err(|e| err("wal sync", &e))?;
            bytes.puts += 1;
            bytes.put_user += body.len() as u64;
            bytes.bson += encoded.len() as u64;
            Msg::StoreReplica { req: id as u64, record: Arc::new(rec) }
        };

        let mut encoded = Vec::with_capacity(128); // as `write_frame` starts
        t.time("codec.encode", root, id, || encode_msg(&msg, &mut encoded));
        if t.time("codec.decode", root, id, || decode_msg(&encoded)).is_none() {
            return Err("replay: codec round trip failed".into());
        }
        let mut framed = Vec::with_capacity(encoded.len() + 16);
        t.time("frame.write", root, id, || write_frame(&mut framed, NodeId(0), NodeId(1), &msg))
            .map_err(|e| err("write_frame", &e))?;
        let mut rd = Cursor::new(&framed);
        match t.time("frame.read", root, id, || read_frame(&mut rd)) {
            Ok(Some(_)) => {}
            other => {
                return Err(format!("replay: read_frame gave {:?}", other.map(|f| f.is_some())))
            }
        }
        bytes.user += match &msg {
            Msg::FetchAck { found: Some(rec), .. } => rec.val.len(),
            _ => body.len(),
        } as u64;
        bytes.wire += encoded.len() as u64;
        bytes.ops += 1;
        tracer.spans[root as usize].end_ns =
            Instant::now().duration_since(tracer.t0).as_nanos() as u64;
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn replay_covers_every_layer_and_nests_its_spans() {
        let mut tracer = Tracer::new();
        let bytes = replay(&WORKLOADS[3], 1, 200, Duration::from_secs(30), &mut tracer).unwrap();
        assert_eq!(bytes.ops, 200);
        for name in [
            "ring.key_point",
            "ring.preference_list",
            "codec.encode",
            "codec.decode",
            "frame.write",
            "frame.read",
            "bson.encode",
            "bson.decode",
            "engine.put_record",
            "engine.get_record",
            "wal.append",
            "wal.sync",
        ] {
            assert!(tracer.mean_ns(name).1 > 0, "no span for {name}");
        }
        assert_eq!(tracer.mean_ns("replay.op").1, 200);
        for s in tracer.spans.iter().filter(|s| s.name != "replay.op") {
            let parent = &tracer.spans[s.parent.expect("layer spans have a parent") as usize];
            assert_eq!(parent.name, "replay.op");
            assert_eq!(parent.op, s.op);
            assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
        }
        assert!(bytes.wire > bytes.user, "the wire form carries the value and more");
        assert!(bytes.bson > bytes.put_user);
    }

    #[test]
    fn proc_readings_are_plausible() {
        let stat = ProcStat::read();
        assert!(stat.threads >= 1);
        assert!(stat.minor_faults > 0, "a running process has touched memory");
        assert!(peak_rss_mb() > 1.0);
    }
}
