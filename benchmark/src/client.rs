//! The benchmark's own clients: a keep-alive HTTP/1.1 connection and a
//! binary-wire connection, both speaking to real sockets of the cluster.
//!
//! The wire client can address four depths of the stack, which is what the
//! traced pass's cut-point ladder is built from.

use std::io::{self, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use mystore_core::{Method, Msg, RestRequest};
use mystore_net::NodeId;
use mystore_serverd::{write_frame, FrameReader};

use crate::workload::{key_name, Op};

/// An op still unanswered after this long is a failure.
pub const OP_TIMEOUT: Duration = Duration::from_secs(10);

/// What a wire frame is addressed to.
#[derive(Debug, Clone, Copy)]
pub enum WireMode {
    /// `RestReq` to a frontend: everything but the HTTP adapter.
    Rest(NodeId),
    /// `Put`/`Get` straight to a storage node acting as coordinator.
    Coord(NodeId),
    /// `RingReq` → `RingResp`: gateway, socket and node thread, no storage.
    Floor(NodeId),
}

impl WireMode {
    pub fn request(self, op: &Op, req: u64, body: &[u8]) -> (NodeId, Msg) {
        match self {
            WireMode::Rest(frontend) => {
                let (method, body) = if op.is_get() {
                    (Method::Get, Vec::new())
                } else {
                    (Method::Post, body.to_vec())
                };
                let rest = RestRequest {
                    req,
                    method,
                    key: Some(key_name(op.key)),
                    body: Arc::new(body),
                    if_match: None,
                    auth: None,
                };
                (frontend, Msg::RestReq(rest))
            }
            WireMode::Coord(node) if op.is_get() => (node, Msg::Get { req, key: key_name(op.key) }),
            WireMode::Coord(node) => (
                node,
                Msg::Put {
                    req,
                    key: key_name(op.key),
                    value: Arc::new(body.to_vec()),
                    delete: false,
                },
            ),
            WireMode::Floor(node) => (node, Msg::RingReq { req }),
        }
    }
}

/// A reply reduced to what the benchmark checks.
pub struct Reply {
    pub req: u64,
    /// HTTP status, or its equivalent for coordinator-level replies.
    pub status: u16,
    pub body: Arc<Vec<u8>>,
}

/// `None` for frames that answer no benchmark request.
pub fn parse_reply(msg: Msg) -> Option<Reply> {
    let empty = || Arc::new(Vec::new());
    Some(match msg {
        Msg::RestResp(r) => Reply { req: r.req, status: r.status, body: r.body },
        Msg::PutResp { req, result } => {
            Reply { req, status: if result.is_ok() { 200 } else { 500 }, body: empty() }
        }
        Msg::GetResp { req, result } => match result {
            Ok(Some(body)) => Reply { req, status: 200, body },
            Ok(None) => Reply { req, status: 404, body: empty() },
            Err(_) => Reply { req, status: 500, body: empty() },
        },
        Msg::RingResp { req, .. } => Reply { req, status: 200, body: empty() },
        _ => return None,
    })
}

pub fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// The write half of a wire connection.
pub struct WireSender {
    w: BufWriter<TcpStream>,
    mode: WireMode,
}

impl WireSender {
    pub fn send(&mut self, op: &Op, req: u64, body: &[u8]) -> io::Result<()> {
        let (to, msg) = self.mode.request(op, req, body);
        write_frame(&mut self.w, NodeId::EXTERNAL, to, &msg)?;
        self.w.flush()
    }
}

/// A wire connection; the halves can go to a sender and a receiver thread.
pub struct WireConn {
    pub tx: WireSender,
    pub rx: FrameReader<TcpStream>,
}

impl WireConn {
    /// `read_timeout` bounds one blocking read, not one op: the pipelined
    /// receiver polls with a short one, serial callers use [`OP_TIMEOUT`].
    pub fn connect(addr: SocketAddr, mode: WireMode, read_timeout: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(read_timeout))?;
        let w = BufWriter::with_capacity(128 << 10, stream.try_clone()?);
        Ok(WireConn { tx: WireSender { w, mode }, rx: FrameReader::new(stream) })
    }

    /// Sends one request and waits for its reply.
    fn exchange(&mut self, op: &Op, req: u64, body: &[u8]) -> io::Result<Reply> {
        self.tx.send(op, req, body)?;
        loop {
            match self.rx.next_frame()? {
                Some((_, _, msg)) => match parse_reply(msg) {
                    Some(reply) if reply.req == req => return Ok(reply),
                    _ => {} // a stray: late reply to an abandoned request
                },
                None => return Err(io::ErrorKind::UnexpectedEof.into()),
            }
        }
    }
}

pub struct HttpConn {
    stream: TcpStream,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
}

impl HttpConn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(OP_TIMEOUT))?;
        Ok(HttpConn { stream, wbuf: Vec::new(), rbuf: Vec::with_capacity(64 << 10) })
    }

    fn exchange(&mut self, op: &Op, req: u64, body: &[u8]) -> io::Result<Reply> {
        // One write per request: head and body leave in the same segment
        // train, so Nagle and delayed ACKs never see a lone head.
        self.wbuf.clear();
        let key = key_name(op.key);
        if op.is_get() {
            write!(self.wbuf, "GET /data/{key} HTTP/1.1\r\nHost: mystore\r\n\r\n")?;
        } else {
            write!(
                self.wbuf,
                "POST /data/{key} HTTP/1.1\r\nHost: mystore\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )?;
            self.wbuf.extend_from_slice(body);
        }
        self.stream.write_all(&self.wbuf)?;

        self.rbuf.clear();
        let head_end = loop {
            if let Some(at) = self.rbuf.windows(4).position(|w| w == b"\r\n\r\n") {
                break at;
            }
            self.fill()?;
        };
        let bad = |why: &str| io::Error::new(io::ErrorKind::InvalidData, why.to_string());
        let head = std::str::from_utf8(&self.rbuf[..head_end]).map_err(|_| bad("non-UTF8 head"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status"))?;
        let len: usize = lines
            .filter_map(|l| l.split_once(':'))
            .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse().ok())
            .ok_or_else(|| bad("no content-length"))?;
        let total = head_end + 4 + len;
        while self.rbuf.len() < total {
            self.fill()?;
        }
        Ok(Reply { req, status, body: Arc::new(self.rbuf[head_end + 4..total].to_vec()) })
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 << 10];
        match self.stream.read(&mut chunk)? {
            0 => Err(io::ErrorKind::UnexpectedEof.into()),
            n => {
                self.rbuf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
        }
    }
}

/// A connection that issues one request at a time.
pub enum Client {
    Http(HttpConn),
    Wire(WireConn),
}

impl Client {
    pub fn exchange(&mut self, op: &Op, req: u64, body: &[u8]) -> io::Result<Reply> {
        match self {
            Client::Http(c) => c.exchange(op, req, body),
            Client::Wire(c) => c.exchange(op, req, body),
        }
    }
}
