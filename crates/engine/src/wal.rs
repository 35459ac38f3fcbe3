//! Write-ahead log.
//!
//! Durability substrate for the engine: every mutation is framed, checksummed
//! and appended to the log before being applied in memory. Recovery replays
//! intact frames and truncates at the first torn or corrupt one (the standard
//! crash-consistency contract).
//!
//! Frame format: `[len: u32 LE][crc32: u32 LE][payload: len bytes]`.
//!
//! Two backends: an in-memory buffer (used by simulated nodes, where disk
//! timing is modelled separately) and a real file (used by examples and
//! durability tests).
//!
//! # Group commit
//!
//! An `fsync` per append caps write throughput at the disk's sync rate, so
//! the log supports *group commit* (Spinnaker-style log force):
//! [`Wal::append_nosync`] stages frames without forcing them to disk, and a
//! sync makes everything staged so far durable at once.
//!
//! A sync is split in two so its I/O can run off the caller's thread:
//! [`Wal::begin_sync`] fixes the position it covers and hands out the I/O
//! (a cloned file handle to `sync_data`, nothing for the memory backend),
//! and [`Wal::finish_sync`] applies the outcome. Appends continue while a
//! sync is in flight; they ride the next one. Every position is measured
//! in bytes appended since open ([`Wal::end_pos`]), which a rewrite does not
//! reset, and the *durable watermark* ([`Wal::durable_pos`]) is the
//! position below which every frame survives a crash. [`Wal::sync`] is the
//! blocking composition of the two halves, and the classic
//! one-frame-one-sync [`Wal::append`] is `append_nosync` plus `sync`.
//!
//! Frames above the watermark are exactly what a crash may lose; the memory
//! backend drops them on a simulated crash, so seeded chaos runs exercise
//! the same contract (see [`Wal::discard_unsynced`]).

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use mystore_obs::{Counter, Histogram, Registry, Stopwatch};

use crate::error::{EngineError, Result};

/// Observability handles for WAL hot paths. A default-constructed set is
/// standalone (recorded but invisible); attach registry-backed handles via
/// [`Wal::set_metrics`] to fold a node's WAL activity into `/_stats`.
#[derive(Debug, Clone, Default)]
pub struct WalMetrics {
    /// Frames appended.
    pub appends: Counter,
    /// Bytes appended (frame headers included).
    pub append_bytes: Counter,
    /// Syncs that completed successfully, counted by
    /// [`Wal::finish_sync`]: real `sync_data()` calls on the file backend,
    /// modelled syncs on the memory backend. One sync covers every frame
    /// staged before it began, so under load this stays below `appends`.
    pub fsyncs: Counter,
    /// Wall-clock append latency, µs (framing + buffered write; the sync is
    /// accounted separately in `sync_us`).
    pub append_us: Histogram,
    /// Wall-clock time from [`Wal::begin_sync`] to [`Wal::finish_sync`],
    /// µs: for a sync run on another thread, the wait for that thread, the
    /// `sync_data`, and the hand-off of its outcome back to the log's
    /// owner.
    pub sync_us: Histogram,
    /// Frames made durable per sync (the group-commit batch size).
    pub batch_ops: Histogram,
}

impl WalMetrics {
    /// Resolves the standard `wal.*` metric names in `registry`.
    pub fn from_registry(registry: &Registry) -> Self {
        WalMetrics {
            appends: registry.counter("wal.appends"),
            append_bytes: registry.counter("wal.append_bytes"),
            fsyncs: registry.counter("wal.fsyncs"),
            append_us: registry.histogram("wal.append_us"),
            sync_us: registry.histogram("wal.sync_us"),
            batch_ops: registry.histogram("wal.batch_ops"),
        }
    }
}

/// CRC-32 (IEEE 802.3, reflected) — implemented here to keep the engine
/// dependency-free.
pub fn crc32(data: &[u8]) -> u32 {
    // Generate the table on first use.
    fn table() -> &'static [u32; 256] {
        static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
        TABLE.get_or_init(|| {
            let mut t = [0u32; 256];
            for (i, entry) in t.iter_mut().enumerate() {
                let mut c = i as u32;
                for _ in 0..8 {
                    c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                }
                *entry = c;
            }
            t
        })
    }
    let t = table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        // lint:allow(no-panic-hot-path): index is masked to 0..256 of a [u32; 256] table
        c = t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

enum Backend {
    Memory { buf: Vec<u8> },
    File { file: File, path: PathBuf },
}

/// The sync [`Wal::begin_sync`] started and [`Wal::finish_sync`] has not
/// applied yet.
struct InFlight {
    /// The position the sync makes durable.
    upto: u64,
    /// Frames it covers.
    ops: usize,
    started: Stopwatch,
}

/// An append-only checksummed log.
pub struct Wal {
    backend: Backend,
    /// Bytes appended since open: the log position every staged frame and
    /// the durable watermark are measured in. A rewrite does not reset it.
    appended: u64,
    /// Current log size in bytes (open length + appends; reset by rewrite),
    /// tracked so the hot path never has to `stat` the file.
    len: u64,
    /// The durable watermark: frames ending at or below this position
    /// survive a crash.
    durable: u64,
    /// Frames staged and not covered by a started sync.
    pending_ops: usize,
    in_flight: Option<InFlight>,
    metrics: WalMetrics,
}

impl Wal {
    /// Opens an in-memory log (starts empty).
    pub fn memory() -> Self {
        Self::with_backend(Backend::Memory { buf: Vec::new() }, 0)
    }

    fn with_backend(backend: Backend, len: u64) -> Self {
        Wal {
            backend,
            appended: 0,
            len,
            durable: 0,
            pending_ops: 0,
            in_flight: None,
            metrics: WalMetrics::default(),
        }
    }

    /// Opens (creating if needed) a file-backed log at `path`. Existing
    /// contents are preserved; call [`Wal::read_frames_from`] first to
    /// recover them. A stale `.compact` sibling (a compaction that crashed
    /// before its rename) is removed — the original log is still the
    /// authoritative copy.
    pub fn file(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let stale = path.with_extension("compact");
        if stale.exists() {
            let _ = std::fs::remove_file(&stale);
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let len = file.metadata().map(|m| m.len()).unwrap_or(0);
        Ok(Self::with_backend(Backend::File { file, path }, len))
    }

    /// Attaches registry-backed metric handles.
    pub fn set_metrics(&mut self, metrics: WalMetrics) {
        self.metrics = metrics;
    }

    /// Appends one frame and makes it durable immediately (one sync per
    /// append — the pre-group-commit write path).
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        self.append_nosync(payload)?;
        self.sync()?;
        Ok(())
    }

    /// Stages one frame without forcing it to disk. The frame is not
    /// durable until a sync that begins after it finishes; a crash in
    /// between may lose it.
    pub fn append_nosync(&mut self, payload: &[u8]) -> Result<()> {
        let sw = Stopwatch::start();
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        match &mut self.backend {
            Backend::Memory { buf, .. } => buf.extend_from_slice(&frame),
            Backend::File { file, .. } => file.write_all(&frame)?,
        }
        self.appended += frame.len() as u64;
        self.len += frame.len() as u64;
        self.pending_ops += 1;
        self.metrics.appends.inc();
        self.metrics.append_bytes.add(frame.len() as u64);
        sw.observe(&self.metrics.append_us);
        Ok(())
    }

    /// Makes every staged frame durable and waits for it: the blocking
    /// composition of [`Wal::begin_sync`], the `sync_data()` it hands out
    /// (file backend) and [`Wal::finish_sync`]. A sync already in flight is
    /// superseded, and its late completion is then a no-op. Returns the
    /// number of frames made durable; `0` means nothing was pending and no
    /// sync was issued (and none is counted).
    pub fn sync(&mut self) -> Result<usize> {
        if self.pending_ops() == 0 {
            return Ok(0);
        }
        let (_, file) = self.begin_sync()?;
        let synced = file.map_or(Ok(()), |f| f.sync_data());
        let frames = self.finish_sync(synced.is_ok());
        synced?;
        Ok(frames)
    }

    /// Starts a sync of every frame staged so far and returns the position
    /// it will make durable plus the I/O that does it: a clone of the log's
    /// file handle to call `sync_data()` on, from any thread, or `None` for
    /// the memory backend, whose disk timing the simulator models. The sync
    /// takes effect when [`Wal::finish_sync`] reports its outcome; frames
    /// appended meanwhile are left for the next sync. One sync is in flight
    /// at a time: beginning another supersedes the first.
    pub fn begin_sync(&mut self) -> Result<(u64, Option<File>)> {
        let file = match &self.backend {
            Backend::Memory { .. } => None,
            Backend::File { file, .. } => Some(file.try_clone()?),
        };
        let ops = self.pending_ops + self.in_flight.take().map_or(0, |f| f.ops);
        self.pending_ops = 0;
        self.in_flight = Some(InFlight { upto: self.appended, ops, started: Stopwatch::start() });
        Ok((self.appended, file))
    }

    /// Applies the outcome of the sync in flight and returns how many frames
    /// it made durable. On success the durable watermark advances to the
    /// position [`Wal::begin_sync`] returned, and `wal.fsyncs`,
    /// `wal.batch_ops` and `wal.sync_us` record it. A failed sync moves
    /// nothing and its frames are not retried: after a failed `fsync` the
    /// kernel may already have dropped their dirty pages, so their writes
    /// must be reported lost, not synced again. With no sync in flight
    /// (superseded, or overtaken by a rewrite or a crash) this is a no-op.
    pub fn finish_sync(&mut self, ok: bool) -> usize {
        let Some(sync) = self.in_flight.take() else { return 0 };
        if !ok || sync.ops == 0 {
            return 0;
        }
        self.durable = self.durable.max(sync.upto);
        self.metrics.fsyncs.inc();
        self.metrics.batch_ops.record(sync.ops as u64);
        sync.started.observe(&self.metrics.sync_us);
        sync.ops
    }

    /// Frames not yet durable: staged, or covered by a sync in flight.
    pub fn pending_ops(&self) -> usize {
        self.pending_ops + self.in_flight.as_ref().map_or(0, |f| f.ops)
    }

    /// The position just past the last staged frame, in bytes appended
    /// since open. A frame is durable once [`Wal::durable_pos`] reaches the
    /// `end_pos` read right after staging it.
    pub fn end_pos(&self) -> u64 {
        self.appended
    }

    /// The durable watermark (see [`Wal::end_pos`]).
    pub fn durable_pos(&self) -> u64 {
        self.durable
    }

    /// Models the effect of a crash on the memory backend: frames above the
    /// durable watermark are discarded, exactly as an OS crash discards
    /// unsynced page-cache data, and a sync in flight is forgotten. The file
    /// backend is left alone — an in-process restart cannot unwrite the page
    /// cache, and after a real machine crash the file simply comes back
    /// shorter.
    pub fn discard_unsynced(&mut self) {
        if let Backend::Memory { buf } = &mut self.backend {
            let lost = usize::try_from(self.appended - self.durable).unwrap_or(usize::MAX);
            let keep = buf.len().saturating_sub(lost);
            self.len -= (buf.len() - keep) as u64;
            buf.truncate(keep);
        }
        self.durable = self.appended;
        self.pending_ops = 0;
        self.in_flight = None;
    }

    /// Total bytes appended through this handle.
    pub fn appended_bytes(&self) -> u64 {
        self.appended
    }

    /// Current log size in bytes (tracked, not `stat`ed).
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Decodes all intact frames in this log. A torn tail (from a crash mid
    /// append) is silently dropped; a corrupt checksum in the *middle* of
    /// the log is reported as corruption.
    pub fn read_frames(&self) -> Result<Vec<Vec<u8>>> {
        match &self.backend {
            Backend::Memory { buf, .. } => decode_frames(buf),
            Backend::File { path, .. } => Self::read_frames_from(path),
        }
    }

    /// Reads and decodes frames from a log file on disk.
    pub fn read_frames_from(path: impl AsRef<Path>) -> Result<Vec<Vec<u8>>> {
        let mut buf = Vec::new();
        match File::open(path.as_ref()) {
            Ok(mut f) => {
                f.read_to_end(&mut buf)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        }
        decode_frames(&buf)
    }

    /// Atomically replaces the log contents with the given frames
    /// (compaction). For files this writes a sibling `.compact` file, syncs
    /// it, renames it over the original, and syncs the parent directory —
    /// without the directory sync a crash right after the rename could
    /// resurrect the old log (the rename itself is metadata the directory
    /// holds). The rewritten log is durable as a whole, so the watermark
    /// moves to [`Wal::end_pos`] and a sync in flight is forgotten.
    pub fn rewrite(&mut self, payloads: &[Vec<u8>]) -> Result<()> {
        let mut fresh = Vec::new();
        for p in payloads {
            fresh.extend_from_slice(&(p.len() as u32).to_le_bytes());
            fresh.extend_from_slice(&crc32(p).to_le_bytes());
            fresh.extend_from_slice(p);
        }
        let fresh_len = fresh.len() as u64;
        match &mut self.backend {
            Backend::Memory { buf } => *buf = fresh,
            Backend::File { file, path } => {
                let tmp = path.with_extension("compact");
                {
                    let mut out = File::create(&tmp)?;
                    out.write_all(&fresh)?;
                    out.sync_all()?;
                }
                std::fs::rename(&tmp, &*path)?;
                if let Some(parent) = path.parent() {
                    // `.` when the path has no directory component.
                    let dir = if parent.as_os_str().is_empty() { Path::new(".") } else { parent };
                    File::open(dir)?.sync_all()?;
                }
                *file = OpenOptions::new().append(true).open(&*path)?;
            }
        }
        self.len = fresh_len;
        self.durable = self.appended;
        self.pending_ops = 0;
        self.in_flight = None;
        Ok(())
    }
}

/// Reads the little-endian `u32` at `at`, or `None` past the buffer end.
fn read_u32_le(buf: &[u8], at: usize) -> Option<u32> {
    let bytes = buf.get(at..at.checked_add(4)?)?;
    let mut raw = [0u8; 4];
    raw.copy_from_slice(bytes);
    Some(u32::from_le_bytes(raw))
}

fn decode_frames(buf: &[u8]) -> Result<Vec<Vec<u8>>> {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    while pos < buf.len() {
        let (Some(len), Some(crc)) = (read_u32_le(buf, pos), read_u32_le(buf, pos + 4)) else {
            break; // torn header at tail
        };
        let len = len as usize;
        let body_start = pos + 8;
        let Some(body) = body_start.checked_add(len).and_then(|end| buf.get(body_start..end))
        else {
            break; // torn body at tail
        };
        if crc32(body) != crc {
            // Corruption mid-log is only tolerable at the tail.
            if body_start + len == buf.len() {
                break;
            }
            return Err(EngineError::Corrupt {
                detail: format!("crc mismatch in frame at byte {pos}"),
            });
        }
        frames.push(body.to_vec());
        pos = body_start + len;
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mystore-wal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn memory_roundtrip() {
        let mut wal = Wal::memory();
        wal.append(b"one").unwrap();
        wal.append(b"two").unwrap();
        wal.append(b"").unwrap();
        let frames = wal.read_frames().unwrap();
        assert_eq!(frames, vec![b"one".to_vec(), b"two".to_vec(), vec![]]);
        assert_eq!(wal.appended_bytes(), 8 + 3 + 8 + 3 + 8);
        assert_eq!(wal.len_bytes(), wal.appended_bytes());
    }

    #[test]
    fn file_roundtrip_and_reopen() {
        let path = temp_dir("roundtrip").join("test.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::file(&path).unwrap();
            wal.append(b"alpha").unwrap();
            wal.append(b"beta").unwrap();
        }
        // Re-open and append more.
        {
            let mut wal = Wal::file(&path).unwrap();
            assert_eq!(wal.len_bytes(), 8 + 5 + 8 + 4, "reopen length from metadata");
            wal.append(b"gamma").unwrap();
            assert_eq!(wal.len_bytes(), 8 + 5 + 8 + 4 + 8 + 5, "appends tracked, not stat'ed");
        }
        let frames = Wal::read_frames_from(&path).unwrap();
        assert_eq!(frames, vec![b"alpha".to_vec(), b"beta".to_vec(), b"gamma".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped() {
        let mut wal = Wal::memory();
        wal.append(b"keep-me").unwrap();
        wal.append(b"torn").unwrap();
        // Corrupt the backend by truncating mid-frame.
        if let Backend::Memory { buf, .. } = &mut wal.backend {
            let cut = buf.len() - 2;
            buf.truncate(cut);
        }
        let frames = wal.read_frames().unwrap();
        assert_eq!(frames, vec![b"keep-me".to_vec()]);
    }

    #[test]
    fn mid_log_corruption_is_an_error() {
        let mut wal = Wal::memory();
        wal.append(b"first").unwrap();
        wal.append(b"second").unwrap();
        if let Backend::Memory { buf, .. } = &mut wal.backend {
            buf[9] ^= 0xFF; // flip a byte inside the first frame body
        }
        assert!(matches!(wal.read_frames(), Err(EngineError::Corrupt { .. })));
    }

    #[test]
    fn rewrite_replaces_contents() {
        let mut wal = Wal::memory();
        wal.append(b"old").unwrap();
        wal.rewrite(&[b"new1".to_vec(), b"new2".to_vec()]).unwrap();
        assert_eq!(wal.read_frames().unwrap(), vec![b"new1".to_vec(), b"new2".to_vec()]);
        assert_eq!(wal.len_bytes(), (8 + 4) * 2);
        wal.append(b"tail").unwrap();
        assert_eq!(wal.read_frames().unwrap().len(), 3);
    }

    #[test]
    fn metrics_count_appends_and_bytes() {
        let reg = Registry::new();
        let mut wal = Wal::memory();
        wal.set_metrics(WalMetrics::from_registry(&reg));
        wal.append(b"abc").unwrap();
        wal.append(b"defgh").unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counters["wal.appends"], 2);
        assert_eq!(snap.counters["wal.append_bytes"], 8 + 3 + 8 + 5);
        // One modelled sync per append without group commit.
        assert_eq!(snap.counters.get("wal.fsyncs"), Some(&2));
        assert_eq!(snap.histograms["wal.append_us"].count, 2);
        assert_eq!(snap.histograms["wal.batch_ops"].count, 2);
    }

    #[test]
    fn group_commit_staging_and_sync_accounting() {
        let reg = Registry::new();
        let mut wal = Wal::memory();
        wal.set_metrics(WalMetrics::from_registry(&reg));
        wal.append_nosync(b"a").unwrap();
        wal.append_nosync(b"b").unwrap();
        wal.append_nosync(b"c").unwrap();
        assert_eq!(wal.pending_ops(), 3);
        assert_eq!(wal.sync().unwrap(), 3);
        assert_eq!(wal.pending_ops(), 0);
        // An empty sync is a no-op and is not counted.
        assert_eq!(wal.sync().unwrap(), 0);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["wal.appends"], 3);
        assert_eq!(snap.counters["wal.fsyncs"], 1, "one sync covered the whole batch");
        assert_eq!(snap.histograms["wal.batch_ops"].count, 1);
        assert_eq!(snap.histograms["wal.batch_ops"].max, 3);
    }

    #[test]
    fn crash_discards_only_unsynced_frames() {
        let mut wal = Wal::memory();
        wal.append_nosync(b"durable-1").unwrap();
        wal.append_nosync(b"durable-2").unwrap();
        wal.sync().unwrap();
        wal.append_nosync(b"staged-only").unwrap();
        assert_eq!(wal.read_frames().unwrap().len(), 3, "staged frames readable pre-crash");
        wal.discard_unsynced();
        assert_eq!(
            wal.read_frames().unwrap(),
            vec![b"durable-1".to_vec(), b"durable-2".to_vec()],
            "crash must lose exactly the unsynced tail"
        );
        assert_eq!(wal.len_bytes(), (8 + 9) * 2);
    }

    #[test]
    fn split_sync_lets_appends_continue_and_covers_only_its_frames() {
        let reg = Registry::new();
        let path = temp_dir("split").join("split.wal");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::file(&path).unwrap();
        wal.set_metrics(WalMetrics::from_registry(&reg));
        wal.append_nosync(b"first").unwrap();
        let (upto, file) = wal.begin_sync().unwrap();
        assert_eq!(upto, wal.end_pos());
        // The I/O runs on another thread while the log keeps appending.
        let io = std::thread::spawn(move || file.expect("file backend").sync_data().is_ok());
        wal.append_nosync(b"second").unwrap();
        assert_eq!(wal.pending_ops(), 2, "in flight and staged frames are both not durable");
        assert_eq!(wal.durable_pos(), 0);
        assert_eq!(wal.finish_sync(io.join().unwrap()), 1);
        assert_eq!(wal.durable_pos(), upto, "the watermark stops at the sync's position");
        assert!(wal.end_pos() > upto);
        assert_eq!(wal.pending_ops(), 1, "the later frame rides the next sync");
        assert_eq!(wal.finish_sync(true), 0, "a second completion is a no-op");
        assert_eq!(wal.sync().unwrap(), 1);
        assert_eq!(wal.durable_pos(), wal.end_pos());
        let snap = reg.snapshot();
        assert_eq!(snap.counters["wal.fsyncs"], 2);
        assert_eq!(snap.histograms["wal.sync_us"].count, 2);
        assert_eq!(Wal::read_frames_from(&path).unwrap().len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_sync_moves_nothing_and_is_not_retried() {
        let mut wal = Wal::memory();
        wal.append_nosync(b"lost").unwrap();
        wal.begin_sync().unwrap();
        assert_eq!(wal.finish_sync(false), 0);
        assert_eq!((wal.durable_pos(), wal.pending_ops()), (0, 0));
        assert_eq!(wal.sync().unwrap(), 0, "no sync is issued for frames whose sync failed");
        wal.discard_unsynced();
        assert!(wal.read_frames().unwrap().is_empty(), "a crash loses the unsynced frame");
    }

    #[test]
    fn rewrite_during_a_sync_moves_the_watermark_and_the_late_completion_is_harmless() {
        let mut wal = Wal::memory();
        wal.append_nosync(b"old").unwrap();
        let (upto, _) = wal.begin_sync().unwrap();
        wal.append_nosync(b"staged").unwrap();
        wal.rewrite(&[b"compacted".to_vec()]).unwrap();
        assert_eq!(wal.durable_pos(), wal.end_pos(), "the rewritten log is durable as a whole");
        assert!(wal.durable_pos() > upto);
        wal.append_nosync(b"after").unwrap();
        let watermark = wal.durable_pos();
        assert_eq!(wal.finish_sync(true), 0, "the superseded sync completes as a no-op");
        assert_eq!(wal.durable_pos(), watermark, "the late completion must not cover `after`");
        assert_eq!(wal.pending_ops(), 1);
        wal.discard_unsynced();
        assert_eq!(wal.read_frames().unwrap(), vec![b"compacted".to_vec()]);
    }

    #[test]
    fn file_rewrite_fsyncs_dir_and_leaves_no_compact_sibling() {
        let dir = temp_dir("rewrite");
        let path = dir.join("compact.wal");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::file(&path).unwrap();
        wal.append(b"one").unwrap();
        wal.append(b"two").unwrap();
        wal.rewrite(&[b"merged".to_vec()]).unwrap();
        assert!(!path.with_extension("compact").exists(), "temp file must be renamed away");
        assert_eq!(Wal::read_frames_from(&path).unwrap(), vec![b"merged".to_vec()]);
        assert_eq!(wal.len_bytes(), 8 + 6);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crash_before_compaction_rename_keeps_old_log() {
        // A compaction that crashed after writing `.compact` but before the
        // rename leaves both files behind. Re-opening must serve the
        // original log and clear the stale sibling so a later compaction
        // cannot collide with it.
        let dir = temp_dir("compact-crash");
        let path = dir.join("victim.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::file(&path).unwrap();
            wal.append(b"survivor").unwrap();
        }
        let stale = path.with_extension("compact");
        std::fs::write(&stale, b"half-written compaction output").unwrap();
        {
            let wal = Wal::file(&path).unwrap();
            assert!(!stale.exists(), "stale .compact must be cleaned up on open");
            assert_eq!(wal.read_frames().unwrap(), vec![b"survivor".to_vec()]);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_reads_empty() {
        let frames = Wal::read_frames_from("/nonexistent/definitely/not/here.wal").unwrap();
        assert!(frames.is_empty());
    }
}
