//! Write-ahead log.
//!
//! Durability substrate for the engine: every mutation is framed, checksummed
//! and appended to the log before being applied in memory. Recovery replays
//! intact frames and truncates at the first torn or corrupt one (the standard
//! crash-consistency contract).
//!
//! Frame format: `[len: u32 LE][crc32: u32 LE][payload: len bytes]`.
//!
//! Two backends: an in-memory list of frames (used by simulated and
//! memory-backed nodes, where disk timing is modelled separately) and a
//! real file (used by examples, durability tests and the durable server).
//! A frame is an immutable shared buffer ([`Frame`]): the engine writes an
//! op straight into one ([`frame_buf`], then [`Wal::append_frame`] seals
//! it) and keeps its stored document in that same buffer, which is also
//! what the memory backend holds.
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

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

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

/// The reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slice-by-16 tables: `CRC_TABLES[0]` is the byte-at-a-time table, and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// so sixteen lookups advance the checksum sixteen bytes at once.
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

#[allow(clippy::indexing_slicing, reason = "const evaluation; k < 16, i < 256, masked byte")]
const fn crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { CRC_POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Entry `b` of a CRC table.
#[inline(always)]
#[allow(clippy::indexing_slicing, reason = "a u8 index cannot leave a [u32; 256] table")]
fn lookup(table: &[u32; 256], b: u8) -> u32 {
    table[usize::from(b)]
}

/// CRC-32 (IEEE 802.3, reflected) — implemented here to keep the engine
/// dependency-free. Slice-by-16: sixteen table lookups per sixteen input
/// bytes, then byte-at-a-time over the tail.
pub fn crc32(data: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15] = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        let Ok::<[u8; 16], _>(b) = chunk.try_into() else { continue };
        let [b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15] = b;
        let [x0, x1, x2, x3] = (c ^ u32::from_le_bytes([b0, b1, b2, b3])).to_le_bytes();
        c = lookup(t15, x0)
            ^ lookup(t14, x1)
            ^ lookup(t13, x2)
            ^ lookup(t12, x3)
            ^ lookup(t11, b4)
            ^ lookup(t10, b5)
            ^ lookup(t9, b6)
            ^ lookup(t8, b7)
            ^ lookup(t7, b8)
            ^ lookup(t6, b9)
            ^ lookup(t5, b10)
            ^ lookup(t4, b11)
            ^ lookup(t3, b12)
            ^ lookup(t2, b13)
            ^ lookup(t1, b14)
            ^ lookup(t0, b15);
    }
    for &b in chunks.remainder() {
        c = lookup(t0, c as u8 ^ b) ^ (c >> 8);
    }
    !c
}

/// A sealed log frame, `[len][crc32][payload]`, shared between the log that
/// appended it and whoever reads its payload in place: the engine keeps
/// each stored document as a range of the frame that logged it, and the
/// memory backend keeps the frame itself, so the two are one allocation.
pub type Frame = Arc<Vec<u8>>;

/// Bytes of frame header ahead of the payload.
pub const FRAME_HEADER: usize = 8;

/// Starts a frame: the header placeholder, with room for `payload` more
/// bytes. Write the payload after it, then hand the buffer to
/// [`Wal::append_frame`] (or [`Wal::rewrite`]), which seals it.
pub fn frame_buf(payload: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(FRAME_HEADER + payload);
    buf.extend_from_slice(&[0; FRAME_HEADER]);
    buf
}

/// A payload length as the header's `u32`; longer payloads are refused
/// rather than wrapped into a frame that cannot be read back.
fn payload_len(len: usize) -> Result<u32> {
    u32::try_from(len).map_err(|_| EngineError::FrameTooLarge(len))
}

/// Patches the length and checksum of a buffer [`frame_buf`] started.
fn seal(mut buf: Vec<u8>) -> Result<Frame> {
    let payload = buf.get(FRAME_HEADER..).unwrap_or_default();
    let len = payload_len(payload.len())?;
    let crc = crc32(payload);
    if let Some(h) = buf.get_mut(..4) {
        h.copy_from_slice(&len.to_le_bytes());
    }
    if let Some(h) = buf.get_mut(4..FRAME_HEADER) {
        h.copy_from_slice(&crc.to_le_bytes());
    }
    Ok(Arc::new(buf))
}

enum Backend {
    /// Sealed frames in log order.
    Memory {
        frames: Vec<Frame>,
    },
    File {
        file: File,
        path: PathBuf,
    },
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
        Self::with_backend(Backend::Memory { frames: Vec::new() }, 0)
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

    /// Opens (creating if needed) a file-backed log at `path`, keeping its
    /// intact frames; see [`Wal::open`].
    pub fn file(path: impl AsRef<Path>) -> Result<Self> {
        Self::open(path).map(|(wal, _)| wal)
    }

    /// Opens (creating if needed) a file-backed log at `path` and returns
    /// it with the intact frames it holds, for recovery. A torn tail (a
    /// crash mid-append) is cut off and the cut synced before anything is
    /// appended: a frame written behind the torn bytes would read back as
    /// part of the torn tail and be dropped. Corruption mid-log is an
    /// error. A stale `.compact` sibling (a compaction that crashed before
    /// its rename) is removed — the original log is still the
    /// authoritative copy.
    pub fn open(path: impl AsRef<Path>) -> Result<(Self, Vec<Frame>)> {
        let path = path.as_ref().to_path_buf();
        let stale = path.with_extension("compact");
        if stale.exists() {
            let _ = std::fs::remove_file(&stale);
        }
        let mut file = OpenOptions::new().create(true).read(true).append(true).open(&path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let ranges = scan_frames(&buf)?;
        let intact = ranges.last().map_or(0, |r| r.end) as u64;
        if intact < buf.len() as u64 {
            file.set_len(intact)?;
            file.sync_all()?;
        }
        let frames = copy_frames(&buf, ranges);
        Ok((Self::with_backend(Backend::File { file, path }, intact), frames))
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
        let mut buf = frame_buf(payload.len());
        buf.extend_from_slice(payload);
        self.stage(buf, sw).map(drop)
    }

    /// Stages a frame whose payload was written in place after a
    /// [`frame_buf`] header: seals it (length and checksum) and appends it
    /// like [`Wal::append_nosync`], without copying the payload. Returns
    /// the sealed frame, which the memory backend keeps as it is.
    pub fn append_frame(&mut self, buf: Vec<u8>) -> Result<Frame> {
        self.stage(buf, Stopwatch::start())
    }

    fn stage(&mut self, buf: Vec<u8>, sw: Stopwatch) -> Result<Frame> {
        let frame = seal(buf)?;
        match &mut self.backend {
            Backend::Memory { frames } => frames.push(Arc::clone(&frame)),
            Backend::File { file, .. } => file.write_all(&frame)?,
        }
        let n = frame.len() as u64;
        self.appended += n;
        self.len += n;
        self.pending_ops += 1;
        self.metrics.appends.inc();
        self.metrics.append_bytes.add(n);
        sw.observe(&self.metrics.append_us);
        Ok(frame)
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
        if let Backend::Memory { frames } = &mut self.backend {
            // The watermark sits on a frame boundary, so whole frames go.
            let mut lost = self.appended - self.durable;
            while lost > 0 {
                let Some(frame) = frames.pop() else { break };
                let n = frame.len() as u64;
                lost = lost.saturating_sub(n);
                self.len = self.len.saturating_sub(n);
            }
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
            Backend::Memory { frames } => {
                Ok(intact_prefix(frames)?.iter().map(|f| payload(f).to_vec()).collect())
            }
            Backend::File { path, .. } => Self::read_frames_from(path),
        }
    }

    /// The intact frames of this log, checked as [`Wal::read_frames`]
    /// checks them, for recovery: the memory backend hands out the frames
    /// it holds, the file backend one copy of each frame it reads.
    pub fn frames(&self) -> Result<Vec<Frame>> {
        match &self.backend {
            Backend::Memory { frames } => Ok(intact_prefix(frames)?.to_vec()),
            Backend::File { path, .. } => {
                let buf = read_file(path)?;
                Ok(copy_frames(&buf, scan_frames(&buf)?))
            }
        }
    }

    /// The frames the memory backend holds (none for a file log).
    #[cfg(test)]
    pub(crate) fn held_frames(&self) -> &[Frame] {
        match &self.backend {
            Backend::Memory { frames } => frames,
            Backend::File { .. } => &[],
        }
    }

    /// Reads and decodes frames from a log file on disk.
    pub fn read_frames_from(path: impl AsRef<Path>) -> Result<Vec<Vec<u8>>> {
        let buf = read_file(path.as_ref())?;
        let frames = scan_frames(&buf)?;
        Ok(frames.into_iter().map(|r| payload(buf.get(r).unwrap_or_default()).to_vec()).collect())
    }

    /// Atomically replaces the log contents with the given frames
    /// (compaction), each a [`frame_buf`] with its payload written, and
    /// returns them sealed. For files this writes a sibling `.compact`
    /// file, syncs it, renames it over the original, and syncs the parent
    /// directory — without the directory sync a crash right after the
    /// rename could resurrect the old log (the rename itself is metadata
    /// the directory holds). The rewritten log is durable as a whole, so
    /// the watermark moves to [`Wal::end_pos`] and a sync in flight is
    /// forgotten.
    pub fn rewrite(&mut self, bufs: Vec<Vec<u8>>) -> Result<Vec<Frame>> {
        let sealed = bufs.into_iter().map(seal).collect::<Result<Vec<Frame>>>()?;
        let fresh_len: u64 = sealed.iter().map(|f| f.len() as u64).sum();
        match &mut self.backend {
            Backend::Memory { frames } => frames.clone_from(&sealed),
            Backend::File { file, path } => {
                let tmp = path.with_extension("compact");
                {
                    let mut out = std::io::BufWriter::new(File::create(&tmp)?);
                    for frame in &sealed {
                        out.write_all(frame)?;
                    }
                    out.into_inner().map_err(|e| e.into_error())?.sync_all()?;
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
        Ok(sealed)
    }
}

/// A whole log file's bytes; a missing file reads as empty.
fn read_file(path: &Path) -> Result<Vec<u8>> {
    let mut buf = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut buf)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e.into()),
    }
    Ok(buf)
}

/// A sealed frame's payload.
fn payload(frame: &[u8]) -> &[u8] {
    frame.get(FRAME_HEADER..).unwrap_or_default()
}

/// Reads the little-endian `u32` at `at`, or `None` past the buffer end.
fn read_u32_le(buf: &[u8], at: usize) -> Option<u32> {
    let bytes = buf.get(at..at.checked_add(4)?)?;
    let mut raw = [0u8; 4];
    raw.copy_from_slice(bytes);
    Some(u32::from_le_bytes(raw))
}

/// The frame starting at `pos` in `buf`.
enum FrameRead {
    /// Intact, ending at this position.
    Intact(usize),
    /// Cut short by the end of `buf`: a torn write.
    Torn,
    /// Whole but failing its checksum, ending at this position.
    BadCrc(usize),
}

fn read_frame(buf: &[u8], pos: usize) -> FrameRead {
    let (Some(len), Some(crc)) = (read_u32_le(buf, pos), read_u32_le(buf, pos + 4)) else {
        return FrameRead::Torn;
    };
    let body_start = pos + FRAME_HEADER;
    let Some(end) = body_start.checked_add(len as usize).filter(|&end| end <= buf.len()) else {
        return FrameRead::Torn;
    };
    if crc32(buf.get(body_start..end).unwrap_or_default()) == crc {
        FrameRead::Intact(end)
    } else {
        FrameRead::BadCrc(end)
    }
}

fn crc_mismatch(pos: usize) -> EngineError {
    EngineError::Corrupt { detail: format!("crc mismatch in frame at byte {pos}") }
}

/// Where each intact frame of a contiguous log sits. A torn tail ends the
/// scan; a checksum failure is tolerated only in the last frame.
fn scan_frames(buf: &[u8]) -> Result<Vec<std::ops::Range<usize>>> {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    while pos < buf.len() {
        match read_frame(buf, pos) {
            FrameRead::Intact(end) => {
                frames.push(pos..end);
                pos = end;
            }
            FrameRead::Torn => break,
            // Corruption mid-log is only tolerable at the tail.
            FrameRead::BadCrc(end) if end == buf.len() => break,
            FrameRead::BadCrc(_) => return Err(crc_mismatch(pos)),
        }
    }
    Ok(frames)
}

/// One shared copy of each frame `ranges` picks out of `buf`.
fn copy_frames(buf: &[u8], ranges: Vec<std::ops::Range<usize>>) -> Vec<Frame> {
    ranges.into_iter().map(|r| Arc::new(buf.get(r).unwrap_or_default().to_vec())).collect()
}

/// The frames of a frame list up to a torn or corrupt last one, checked
/// as [`scan_frames`] checks a contiguous log: a bad frame anywhere before
/// the last is corruption.
fn intact_prefix(frames: &[Frame]) -> Result<&[Frame]> {
    let mut pos = 0usize;
    for (i, frame) in frames.iter().enumerate() {
        match read_frame(frame, 0) {
            FrameRead::Intact(end) if end == frame.len() => pos += end,
            _ if i + 1 == frames.len() => return Ok(frames.get(..i).unwrap_or_default()),
            _ => return Err(crc_mismatch(pos)),
        }
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

    /// A frame buffer holding `payload`, ready to seal.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut buf = frame_buf(payload.len());
        buf.extend_from_slice(payload);
        buf
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        // Past one 16-byte block, so the sliced loop and the tail both run.
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn an_oversized_payload_is_refused_not_wrapped() {
        assert_eq!(payload_len(u32::MAX as usize).unwrap(), u32::MAX);
        let too_long = u32::MAX as usize + 1;
        assert!(
            matches!(payload_len(too_long), Err(EngineError::FrameTooLarge(n)) if n == too_long)
        );
    }

    #[test]
    fn a_frame_written_in_place_matches_append_nosync() {
        let mut copied = Wal::memory();
        copied.append_nosync(b"payload").unwrap();
        let mut in_place = Wal::memory();
        let frame = in_place.append_frame(framed(b"payload")).unwrap();
        assert_eq!(copied.held_frames(), in_place.held_frames());
        assert!(
            Arc::ptr_eq(&frame, &in_place.held_frames()[0]),
            "the log keeps the frame it sealed"
        );
        assert_eq!(in_place.frames().unwrap().len(), 1);
        assert_eq!(in_place.appended_bytes(), 8 + 7);
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
        if let Backend::Memory { frames } = &mut wal.backend {
            let last = frames.last_mut().unwrap();
            let cut = last.len() - 2;
            Arc::make_mut(last).truncate(cut);
        }
        let frames = wal.read_frames().unwrap();
        assert_eq!(frames, vec![b"keep-me".to_vec()]);
        assert_eq!(wal.frames().unwrap().len(), 1, "recovery drops the torn frame too");
    }

    #[test]
    fn a_torn_header_or_corrupt_last_frame_is_a_torn_tail() {
        for cut_to in [0usize, 3, 8] {
            let mut wal = Wal::memory();
            wal.append(b"keep-me").unwrap();
            wal.append(b"torn").unwrap();
            if let Backend::Memory { frames } = &mut wal.backend {
                Arc::make_mut(frames.last_mut().unwrap()).truncate(cut_to);
            }
            assert_eq!(wal.read_frames().unwrap(), vec![b"keep-me".to_vec()], "cut to {cut_to}");
        }
        let mut wal = Wal::memory();
        wal.append(b"keep-me").unwrap();
        wal.append(b"flipped").unwrap();
        if let Backend::Memory { frames } = &mut wal.backend {
            Arc::make_mut(frames.last_mut().unwrap())[9] ^= 0xFF;
        }
        assert_eq!(wal.read_frames().unwrap(), vec![b"keep-me".to_vec()]);
    }

    #[test]
    fn reopen_cuts_a_torn_tail_before_appending() {
        // A torn header (3 bytes) and a torn body (a header claiming more
        // bytes than follow) are both cut off at reopen, so the next frame
        // lands right after the last intact one and survives.
        let torn_header = vec![7u8, 0, 0];
        let mut torn_body = 100u32.to_le_bytes().to_vec();
        torn_body.extend_from_slice(&[0xAB; 7]);
        for (tag, torn) in [("header", torn_header), ("body", torn_body)] {
            let path = temp_dir("torn").join(format!("{tag}.wal"));
            let _ = std::fs::remove_file(&path);
            Wal::file(&path).unwrap().append(b"before").unwrap();
            let intact = std::fs::metadata(&path).unwrap().len();
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&torn).unwrap();
            drop(f);
            let (mut wal, frames) = Wal::open(&path).unwrap();
            let payloads: Vec<&[u8]> = frames.iter().map(|f| payload(f)).collect();
            assert_eq!(payloads, vec![&b"before"[..]], "{tag}");
            assert_eq!(std::fs::metadata(&path).unwrap().len(), intact, "{tag}: cut on open");
            assert_eq!(wal.len_bytes(), intact, "{tag}");
            wal.append(b"after").unwrap();
            assert_eq!(
                Wal::read_frames_from(&path).unwrap(),
                vec![b"before".to_vec(), b"after".to_vec()],
                "{tag}: the frame appended after the cut must read back"
            );
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn open_refuses_mid_log_corruption() {
        let path = temp_dir("midlog").join("corrupt.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::file(&path).unwrap();
            wal.append(b"first").unwrap();
            wal.append(b"second").unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[9] ^= 0xFF; // inside the first frame's body
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(Wal::open(&path), Err(EngineError::Corrupt { .. })));
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "a refused log is left as it was");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mid_log_corruption_is_an_error() {
        let mut wal = Wal::memory();
        wal.append(b"first").unwrap();
        wal.append(b"second").unwrap();
        if let Backend::Memory { frames } = &mut wal.backend {
            Arc::make_mut(&mut frames[0])[9] ^= 0xFF; // flip a byte inside the first frame body
        }
        assert!(matches!(wal.read_frames(), Err(EngineError::Corrupt { .. })));
        assert!(matches!(wal.frames(), Err(EngineError::Corrupt { .. })));
        // A frame torn short before the last one is corruption as well.
        let mut wal = Wal::memory();
        wal.append(b"first").unwrap();
        wal.append(b"second").unwrap();
        if let Backend::Memory { frames } = &mut wal.backend {
            Arc::make_mut(&mut frames[0]).truncate(10);
        }
        assert!(matches!(wal.read_frames(), Err(EngineError::Corrupt { .. })));
    }

    #[test]
    fn rewrite_replaces_contents() {
        let mut wal = Wal::memory();
        wal.append(b"old").unwrap();
        let sealed = wal.rewrite(vec![framed(b"new1"), framed(b"new2")]).unwrap();
        assert!(sealed.iter().zip(wal.held_frames()).all(|(a, b)| Arc::ptr_eq(a, b)));
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
        wal.rewrite(vec![framed(b"compacted")]).unwrap();
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
        wal.rewrite(vec![framed(b"merged")]).unwrap();
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
