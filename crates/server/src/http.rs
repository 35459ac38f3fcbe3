//! Minimal REST adapter: real HTTP/1.1 sockets in front of the existing
//! [`Frontend`] process.
//!
//! The frontend already speaks REST *semantically* ([`RestRequest`] /
//! [`RestResponse`] messages, including `/_stats` and `If-Match`); this
//! module only translates between HTTP byte streams and those messages.
//! Each accepted connection gets a thread, a gateway client identity, and
//! a monotonically increasing request id; responses are correlated by id,
//! so a slow request cannot steal a later one's answer.
//!
//! Endpoints: `GET /_stats`, `GET /_ready` (ring-convergence probe),
//! `GET|POST|DELETE /data/{key}`, `POST /data` (server-assigned key).
//!
//! [`Frontend`]: mystore_core::Frontend
//! [`RestRequest`]: mystore_core::RestRequest
//! [`RestResponse`]: mystore_core::RestResponse

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mystore_core::{Method, Msg, RestRequest};
use mystore_net::{Injector, NodeId};

use crate::gateway::{accept_until, stop_accepting, write_batch, ClientRegistry};
use crate::host::{poll_ring_ready, recv_channel};

/// How long a translated request may wait for the cluster's response
/// before the adapter answers 504 on its behalf. Above the frontend's own
/// internal deadline, so the cluster's verdict normally wins.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// How long `GET /_ready` polls the local nodes' rings before answering
/// 503: every local node must report the full spec membership by then.
const READY_TIMEOUT: Duration = Duration::from_millis(500);

/// A running REST listener. Stop with [`HttpServer::shutdown`].
pub struct HttpServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: JoinHandle<()>,
}

impl HttpServer {
    /// Spawns the accept loop. `frontend` receives the translated REST
    /// traffic; `local_storage`/`all_storage` parameterize `/_ready`.
    pub fn spawn(
        listener: TcpListener,
        injector: Injector<Msg>,
        registry: ClientRegistry,
        frontend: NodeId,
        local_storage: Vec<NodeId>,
        all_storage: Vec<NodeId>,
    ) -> io::Result<HttpServer> {
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("mystore-http-accept".into())
                .spawn(move || {
                    accept_until(&listener, &shutdown, |stream| {
                        let ctx = ConnCtx {
                            injector: injector.clone(),
                            registry: registry.clone(),
                            frontend,
                            local_storage: local_storage.clone(),
                            all_storage: all_storage.clone(),
                            shutdown: Arc::clone(&shutdown),
                        };
                        std::thread::Builder::new()
                            .name("mystore-http-conn".into())
                            .spawn(move || serve_connection(stream, ctx))
                            .expect("spawn http connection");
                    });
                })
                .expect("spawn http accept")
        };
        Ok(HttpServer { local_addr, shutdown, accept_thread })
    }

    /// The bound REST address (resolves port 0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting new connections and joins the accept loop. Open
    /// connections finish their in-flight request and close on their next
    /// read (they observe the same flag).
    pub fn shutdown(self) {
        stop_accepting(self.local_addr, &self.shutdown);
        let _ = self.accept_thread.join();
    }
}

struct ConnCtx {
    injector: Injector<Msg>,
    registry: ClientRegistry,
    frontend: NodeId,
    local_storage: Vec<NodeId>,
    all_storage: Vec<NodeId>,
    shutdown: Arc<AtomicBool>,
}

/// One parsed HTTP request.
struct HttpReq {
    method: String,
    path: String,
    headers: BTreeMap<String, String>,
    body: Vec<u8>,
}

fn serve_connection(stream: TcpStream, ctx: ConnCtx) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.set_nodelay(true);
    let (client_id, reply_rx) = ctx.registry.register();
    let mut out = match stream.try_clone() {
        Ok(stream) => Responder { stream, buf: Vec::new() },
        Err(_) => {
            ctx.registry.unregister(client_id);
            return;
        }
    };
    let mut parser = HttpParser::new(stream);
    let mut next_req: u64 = 1;
    while let Ok(Some(req)) = parser.next_request(&ctx.shutdown) {
        let keep_alive =
            req.headers.get("connection").map(|v| !v.eq_ignore_ascii_case("close")).unwrap_or(true);
        let ok = match route(req) {
            Route::Ready => {
                let ready = poll_ring_ready(
                    &ctx.local_storage,
                    &ctx.all_storage,
                    READY_TIMEOUT,
                    |node, msg| {
                        ctx.injector.send_from(client_id, node, msg);
                    },
                    |left| recv_channel(&reply_rx, left),
                );
                let (code, body) =
                    if ready.is_ok() { (200, "ready\n") } else { (503, "ring not converged\n") };
                out.send(code, body.as_bytes(), &[], keep_alive).is_ok()
            }
            Route::Rest(rest) => {
                let req_id = next_req;
                next_req += 1;
                ctx.injector.send_from(
                    client_id,
                    ctx.frontend,
                    Msg::RestReq(RestRequest { req: req_id, ..rest }),
                );
                match await_reply(&reply_rx, req_id) {
                    Some(resp) => {
                        let mut extra = Vec::new();
                        if let Some(k) = &resp.assigned_key {
                            extra.push(("X-Assigned-Key", k.clone()));
                        }
                        if resp.from_cache {
                            extra.push(("X-From-Cache", "1".to_string()));
                        }
                        out.send(resp.status, &resp.body, &extra, keep_alive).is_ok()
                    }
                    None => out.send(504, b"cluster timeout\n", &[], keep_alive).is_ok(),
                }
            }
            Route::NotFound => out.send(404, b"no such endpoint\n", &[], keep_alive).is_ok(),
            Route::BadRequest(why) => out.send(400, why.as_bytes(), &[], keep_alive).is_ok(),
        };
        if !ok || !keep_alive {
            break;
        }
    }
    ctx.registry.unregister(client_id);
}

enum Route {
    Ready,
    Rest(RestRequest),
    NotFound,
    BadRequest(String),
}

fn route(req: HttpReq) -> Route {
    let rest = |method: Method, key: Option<String>| {
        Route::Rest(RestRequest {
            req: 0, // assigned by the connection loop
            method,
            key,
            body: Arc::new(req.body),
            if_match: req.headers.get("if-match").cloned(),
            auth: None,
        })
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/_ready") => Route::Ready,
        ("GET", "/_stats") => rest(Method::Get, Some("_stats".to_string())),
        ("POST", "/data") => rest(Method::Post, None),
        (m, p) => match p.strip_prefix("/data/") {
            Some(key) if !key.is_empty() && !key.contains('/') => match m {
                "GET" => rest(Method::Get, Some(key.to_string())),
                "POST" | "PUT" => rest(Method::Post, Some(key.to_string())),
                "DELETE" => rest(Method::Delete, Some(key.to_string())),
                _ => Route::BadRequest(format!("unsupported method {m}\n")),
            },
            _ => Route::NotFound,
        },
    }
}

/// Waits for the `RestResp` correlated with `req_id`, discarding strays
/// (late responses to requests this adapter already gave up on).
fn await_reply(
    rx: &crossbeam::channel::Receiver<(NodeId, Msg)>,
    req_id: u64,
) -> Option<mystore_core::RestResponse> {
    let deadline = std::time::Instant::now() + REPLY_TIMEOUT;
    loop {
        let left = deadline.saturating_duration_since(std::time::Instant::now());
        if left.is_zero() {
            return None;
        }
        match rx.recv_timeout(left) {
            Ok((_, Msg::RestResp(resp))) if resp.req == req_id => return Some(resp),
            Ok(_) => {}
            Err(_) => return None,
        }
    }
}

// ---- HTTP wire handling ----------------------------------------------------

/// Incremental HTTP/1.1 request parser, timeout-tolerant in the same way
/// as [`crate::frame::FrameReader`]: bytes accumulate across read
/// timeouts, so a slow client cannot desync the connection.
struct HttpParser {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// Caps on hostile input: header block and body sizes.
const MAX_HEAD: usize = 16 << 10;
const MAX_BODY: usize = 32 << 20;

impl HttpParser {
    fn new(stream: TcpStream) -> Self {
        HttpParser { stream, buf: Vec::with_capacity(1024) }
    }

    /// Returns the next request, `Ok(None)` on clean connection close (or
    /// shutdown), `Err` on malformed input.
    fn next_request(&mut self, shutdown: &AtomicBool) -> io::Result<Option<HttpReq>> {
        loop {
            if let Some(head_end) = find_head_end(&self.buf) {
                if let Some(req) = self.try_finish(head_end)? {
                    return Ok(Some(req));
                }
            } else if self.buf.len() > MAX_HEAD {
                return Err(bad("header block too large"));
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Ok(None)
                    } else {
                        Err(bad("connection closed mid-request"))
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    if shutdown.load(Ordering::Relaxed) {
                        return Ok(None);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// With a complete header block at `..head_end`, returns the request
    /// once its body has fully arrived too.
    fn try_finish(&mut self, head_end: usize) -> io::Result<Option<HttpReq>> {
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF8 head"))?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().ok_or_else(|| bad("empty request"))?;
        let mut parts = request_line.split(' ');
        let method = parts.next().unwrap_or("").to_string();
        let path = parts.next().ok_or_else(|| bad("no path"))?.to_string();
        let mut headers = BTreeMap::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (name, value) = line.split_once(':').ok_or_else(|| bad("malformed header"))?;
            headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
        }
        let body_len = match headers.get("content-length") {
            Some(v) => v.parse::<usize>().map_err(|_| bad("bad content-length"))?,
            None => 0,
        };
        if body_len > MAX_BODY {
            return Err(bad("body too large"));
        }
        let total = head_end + 4 + body_len;
        if self.buf.len() < total {
            return Ok(None); // body still arriving
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(HttpReq { method, path, headers, body }))
    }
}

/// Index of the `\r\n\r\n` terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn bad(why: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why.to_string())
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        409 => "Conflict",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// The write half of a connection: its socket and the buffer each
/// response is built in, reused from one response to the next.
struct Responder {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Responder {
    /// Sends head and body in one write, so the `TCP_NODELAY` socket never
    /// emits the head as a segment of its own.
    fn send(
        &mut self,
        status: u16,
        body: &[u8],
        extra_headers: &[(&str, String)],
        keep_alive: bool,
    ) -> io::Result<()> {
        write!(
            self.buf,
            "HTTP/1.1 {status} {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            reason(status),
            body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )?;
        for (name, value) in extra_headers {
            write!(self.buf, "{name}: {value}\r\n")?;
        }
        self.buf.extend_from_slice(b"\r\n");
        self.buf.extend_from_slice(body);
        write_batch(&mut self.stream, &mut self.buf)
    }
}
