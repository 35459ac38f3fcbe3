//! Length-prefixed message framing over a byte stream.
//!
//! One frame on the wire:
//!
//! ```text
//! [ len: u32 LE ][ version: u8 ][ from: u32 LE ][ to: u32 LE ][ msg bytes ]
//!                `------------------- len bytes -------------------------'
//! ```
//!
//! `len` counts everything after itself, so a reader can skip a frame it
//! cannot parse. The version byte is checked before any payload decoding;
//! a mismatch is a hard protocol error (mixed-version clusters are out of
//! scope — the byte exists so a future layout change fails loudly instead
//! of mis-decoding). `len` is bounded by [`MAX_FRAME`] so a hostile or
//! corrupt peer cannot make the reader allocate unbounded memory, mirroring
//! the WAL decoder's torn-frame discipline.

use std::io::{self, Read, Write};

use mystore_core::Msg;
use mystore_net::NodeId;

use crate::codec::{decode_msg, encode_msg};

/// Wire protocol version. Bump on any layout change to the frame header or
/// the codec's encoding rules (tag additions do NOT need a bump).
pub const WIRE_VERSION: u8 = 1;

/// Upper bound on `len` (and therefore on a single message): 32 MiB,
/// comfortably above the largest anti-entropy or transfer batch we emit.
pub const MAX_FRAME: usize = 32 << 20;

/// Header bytes covered by `len`: version + from + to.
const FRAME_HDR: usize = 1 + 4 + 4;

/// Appends one `(from, to, msg)` frame to `buf`: the header, then the
/// message encoded in place, then the length patched in. A batch of frames
/// encoded into one buffer leaves in one write.
///
/// A message over [`MAX_FRAME`] is an error, and `buf` is truncated back
/// to where this frame began, so the frames already in it stay intact.
pub fn encode_frame(buf: &mut Vec<u8>, from: NodeId, to: NodeId, msg: &Msg) -> io::Result<()> {
    let start = buf.len();
    buf.extend_from_slice(&[0; 4]);
    buf.push(WIRE_VERSION);
    buf.extend_from_slice(&from.0.to_le_bytes());
    buf.extend_from_slice(&to.0.to_le_bytes());
    encode_msg(msg, buf);
    let len = buf.len() - start - 4;
    if len > MAX_FRAME {
        buf.truncate(start);
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("message encodes to {len} bytes, over the {MAX_FRAME}-byte frame cap"),
        ));
    }
    buf[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

/// Writes one `(from, to, msg)` frame with a single `write_all`. Does not
/// flush.
pub fn write_frame(w: &mut impl Write, from: NodeId, to: NodeId, msg: &Msg) -> io::Result<()> {
    let mut buf = Vec::with_capacity(128);
    encode_frame(&mut buf, from, to, msg)?;
    w.write_all(&buf)
}

/// Reads one frame. Returns `Ok(None)` on a clean EOF at a frame boundary
/// (orderly peer close); any EOF mid-frame, oversized length, version
/// mismatch, or undecodable payload is an error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<(NodeId, NodeId, Msg)>> {
    // A clean close is EOF before ANY byte of the next frame; EOF after a
    // partial length prefix is a torn frame. `read_exact` cannot tell the
    // two apart, so probe the first byte separately.
    let mut len_buf = [0u8; 4];
    let mut got = 0usize;
    while got < 1 {
        match r.read(&mut len_buf[..1]) {
            Ok(0) => return Ok(None),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    r.read_exact(&mut len_buf[1..])?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if !(FRAME_HDR..=MAX_FRAME).contains(&len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} outside [{FRAME_HDR}, {MAX_FRAME}]"),
        ));
    }
    let mut frame = vec![0u8; len];
    r.read_exact(&mut frame)?;
    if frame[0] != WIRE_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("wire version {} (expected {WIRE_VERSION})", frame[0]),
        ));
    }
    let from = NodeId(u32::from_le_bytes(frame[1..5].try_into().expect("4 bytes")));
    let to = NodeId(u32::from_le_bytes(frame[5..9].try_into().expect("4 bytes")));
    let msg = decode_msg(&frame[FRAME_HDR..])
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "undecodable message payload"))?;
    Ok(Some((from, to, msg)))
}

/// Incremental frame reader for sockets with a read timeout.
///
/// [`read_frame`] assumes a blocking stream: if a read times out halfway
/// through a frame, the already-consumed bytes are lost and the stream
/// desyncs. `FrameReader` instead accumulates partial input across calls —
/// a timeout (`WouldBlock`/`TimedOut`) surfaces as an error from
/// [`FrameReader::next_frame`] but leaves the parse state intact, so the caller
/// can poll a shutdown flag and try again.
pub struct FrameReader<R: Read> {
    r: R,
    buf: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a stream (typically one with a read timeout set).
    pub fn new(r: R) -> Self {
        FrameReader { r, buf: Vec::with_capacity(4096) }
    }

    /// Access to the wrapped stream (e.g. to `try_clone` a socket).
    pub fn get_ref(&self) -> &R {
        &self.r
    }

    /// Returns the next complete frame, `Ok(None)` on clean EOF at a frame
    /// boundary, or an error. Timeout errors are retryable; all others
    /// (mid-frame EOF, protocol violations) are terminal.
    pub fn next_frame(&mut self) -> io::Result<Option<(NodeId, NodeId, Msg)>> {
        loop {
            if let Some(parsed) = self.try_parse()? {
                return Ok(Some(parsed));
            }
            let mut chunk = [0u8; 4096];
            match self.r.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Ok(None)
                    } else {
                        Err(io::Error::new(io::ErrorKind::UnexpectedEof, "EOF mid-frame"))
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e), // includes retryable timeouts
            }
        }
    }

    /// Parses one frame off the front of the buffer, if complete.
    fn try_parse(&mut self) -> io::Result<Option<(NodeId, NodeId, Msg)>> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
        if !(FRAME_HDR..=MAX_FRAME).contains(&len) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} outside [{FRAME_HDR}, {MAX_FRAME}]"),
            ));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let frame = &self.buf[4..4 + len];
        if frame[0] != WIRE_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("wire version {} (expected {WIRE_VERSION})", frame[0]),
            ));
        }
        let from = NodeId(u32::from_le_bytes(frame[1..5].try_into().expect("4 bytes")));
        let to = NodeId(u32::from_le_bytes(frame[5..9].try_into().expect("4 bytes")));
        let msg = decode_msg(&frame[FRAME_HDR..]).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "undecodable message payload")
        })?;
        self.buf.drain(..4 + len);
        Ok(Some((from, to, msg)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn put(req: u64) -> Msg {
        Msg::Put {
            req,
            key: format!("k{req}"),
            value: std::sync::Arc::new(vec![req as u8; 8]),
            delete: false,
        }
    }

    #[test]
    fn frames_round_trip_in_sequence() {
        let mut buf = Vec::new();
        for i in 0..5u64 {
            write_frame(&mut buf, NodeId(i as u32), NodeId(9), &put(i)).unwrap();
        }
        let mut rd = Cursor::new(buf);
        for i in 0..5u64 {
            let (from, to, msg) = read_frame(&mut rd).unwrap().expect("frame");
            assert_eq!(from, NodeId(i as u32));
            assert_eq!(to, NodeId(9));
            assert!(matches!(msg, Msg::Put { req, .. } if req == i));
        }
        assert!(read_frame(&mut rd).unwrap().is_none(), "clean EOF at boundary");
    }

    /// The frame layout built by hand: the reference `encode_frame` and
    /// `write_frame` must reproduce byte for byte.
    fn reference_frame(from: NodeId, to: NodeId, msg: &Msg) -> Vec<u8> {
        let mut payload = Vec::new();
        encode_msg(msg, &mut payload);
        let mut out = ((FRAME_HDR + payload.len()) as u32).to_le_bytes().to_vec();
        out.push(WIRE_VERSION);
        out.extend_from_slice(&from.0.to_le_bytes());
        out.extend_from_slice(&to.0.to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    #[test]
    fn a_batch_encoded_into_one_buffer_is_the_per_frame_bytes_and_reads_back() {
        let frames: Vec<(NodeId, NodeId, Msg)> =
            (0..6u64).map(|i| (NodeId(i as u32), NodeId(9), put(i))).collect();
        let (mut batch, mut one_by_one, mut reference) = (Vec::new(), Vec::new(), Vec::new());
        for (from, to, msg) in &frames {
            encode_frame(&mut batch, *from, *to, msg).unwrap();
            write_frame(&mut one_by_one, *from, *to, msg).unwrap();
            reference.extend(reference_frame(*from, *to, msg));
        }
        assert_eq!(batch, one_by_one);
        assert_eq!(batch, reference);

        let mut rd = Cursor::new(batch.clone());
        let mut fr = FrameReader::new(Cursor::new(batch));
        for i in 0..6u64 {
            for got in [read_frame(&mut rd), fr.next_frame()] {
                let (from, to, msg) = got.unwrap().expect("frame");
                assert_eq!((from, to), (NodeId(i as u32), NodeId(9)));
                assert!(matches!(msg, Msg::Put { req, .. } if req == i));
            }
        }
        assert!(read_frame(&mut rd).unwrap().is_none());
        assert!(fr.next_frame().unwrap().is_none());
    }

    #[test]
    fn an_oversized_message_leaves_the_earlier_frames_intact() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, NodeId(0), NodeId(1), &put(1)).unwrap();
        let before = buf.clone();
        let huge = Msg::Put {
            req: 2,
            key: "huge".to_string(),
            value: std::sync::Arc::new(vec![0; MAX_FRAME]),
            delete: false,
        };
        let err = encode_frame(&mut buf, NodeId(0), NodeId(1), &huge).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(buf, before, "the failed frame must be rolled back");
        assert!(write_frame(&mut Vec::new(), NodeId(0), NodeId(1), &huge).is_err());

        encode_frame(&mut buf, NodeId(0), NodeId(1), &put(3)).unwrap();
        let mut rd = Cursor::new(buf);
        for want in [1, 3] {
            let (_, _, msg) = read_frame(&mut rd).unwrap().expect("frame");
            assert!(matches!(msg, Msg::Put { req, .. } if req == want));
        }
        assert!(read_frame(&mut rd).unwrap().is_none());
    }

    #[test]
    fn torn_tail_is_an_error_not_a_frame() {
        let mut buf = Vec::new();
        write_frame(&mut buf, NodeId(0), NodeId(1), &put(1)).unwrap();
        for cut in 1..buf.len() {
            let mut rd = Cursor::new(&buf[..cut]);
            assert!(read_frame(&mut rd).is_err(), "torn frame at {cut} bytes accepted");
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, NodeId(0), NodeId(1), &put(1)).unwrap();
        buf[4] ^= 0xFF;
        assert!(read_frame(&mut Cursor::new(buf)).is_err());
    }

    #[test]
    fn oversized_length_is_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        assert!(read_frame(&mut Cursor::new(buf)).is_err());
    }

    /// A reader that yields input in dribbles with timeouts interleaved,
    /// like a socket with a read timeout under slow traffic.
    struct Dribble {
        data: Vec<u8>,
        at: usize,
        step: usize,
        timeout_next: bool,
    }

    impl Read for Dribble {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.timeout_next {
                self.timeout_next = false;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "tick"));
            }
            self.timeout_next = true;
            let n = self.step.min(self.data.len() - self.at).min(out.len());
            out[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_survives_timeouts_mid_frame() {
        let mut data = Vec::new();
        for i in 0..3u64 {
            write_frame(&mut data, NodeId(i as u32), NodeId(5), &put(i)).unwrap();
        }
        let mut fr = FrameReader::new(Dribble { data, at: 0, step: 3, timeout_next: false });
        let mut got = 0;
        while got < 3 {
            match fr.next_frame() {
                Ok(Some((from, _, _))) => {
                    assert_eq!(from, NodeId(got as u32));
                    got += 1;
                }
                Ok(None) => panic!("EOF before all frames"),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(e) => panic!("terminal error: {e}"),
            }
        }
        loop {
            match fr.next_frame() {
                Ok(None) => break,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                other => panic!("expected clean EOF, got {other:?}"),
            }
        }
    }
}
