//! TCP gateway: the boundary between a host's in-process cluster and the
//! network.
//!
//! A [`Gateway`] owns one listening socket and three kinds of threads:
//!
//! * **pump** — drains the cluster's external stream (`(from, to, msg)`
//!   triples the node threads addressed to ids with no local mailbox) and
//!   routes each triple: to a *peer link* when `to` is a node hosted by
//!   another process, or to a *client connection* when `to` is a client id
//!   this gateway allocated.
//! * **reader** (one per accepted connection) — decodes inbound frames and
//!   injects them into the local cluster. Frames claiming `from ==`
//!   [`NodeId::EXTERNAL`] are rewritten to the connection's allocated
//!   client id, so replies route back to the right socket; frames with a
//!   real node id are peer traffic and inject verbatim.
//! * **peer writer** (one per remote peer, lazily) — connects to the
//!   peer's listen address and writes outbound frames, reconnecting with
//!   backoff. Delivery is best-effort: the replication protocol already
//!   tolerates message loss (retries, hinted handoff, read repair), so a
//!   down peer costs retransmissions, never correctness.
//! * **client writer** (one per wire client connection) — writes the
//!   replies routed to that connection's client id.
//!
//! Both writers batch by backlog, never by a timer: each encodes the frame
//! it woke for plus whatever is already queued behind it (up to
//! `BATCH_FRAMES`) into one reusable buffer, and sends it with one
//! `write_all` on a `TCP_NODELAY` socket. Nagle would hold a small frame
//! until the previous one is ACKed, and each direction of a node pair has
//! a socket of its own, so that ACK is a delayed one (up to 40 ms on
//! Linux). One contiguous buffer per batch also never emits a lone header
//! segment, which a buffered writer does for a frame larger than its
//! capacity.
//!
//! Client ids are allocated from [`CLIENT_BASE`] upward — disjoint from
//! storage/frontend ids (low u32s) and from [`NodeId::EXTERNAL`]
//! (`u32::MAX`), so routing is a plain range test.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use mystore_core::Msg;
use mystore_net::{Injector, NodeId};

use crate::frame::{encode_frame, FrameReader};

/// Frames a writer sends in one write: the one it woke for plus up to
/// `BATCH_FRAMES - 1` already queued behind it.
const BATCH_FRAMES: usize = 64;

/// Capacity a write buffer keeps between writes. A batch that grew it past
/// this (64 frames of 16 KiB values are ~1 MiB) gives the excess back, so
/// retained memory does not follow the largest batch ever seen.
const RETAINED_BUF: usize = 64 << 10;

/// Sends `buf` in one `write_all`, then empties it for the next batch and
/// shrinks it back to [`RETAINED_BUF`] if this batch grew it past that.
pub(crate) fn write_batch(out: &mut impl Write, buf: &mut Vec<u8>) -> io::Result<()> {
    let res = out.write_all(buf);
    buf.clear();
    buf.shrink_to(RETAINED_BUF);
    res
}

/// Encodes `first` and up to `BATCH_FRAMES - 1` items already queued on
/// `rx` into `buf`, and writes them with [`write_batch`].
fn drain_and_write<T>(
    out: &mut impl Write,
    buf: &mut Vec<u8>,
    first: T,
    rx: &Receiver<T>,
    encode: impl Fn(&mut Vec<u8>, &T) -> io::Result<()>,
) -> io::Result<()> {
    let queued = std::iter::from_fn(|| rx.try_recv().ok()).take(BATCH_FRAMES - 1);
    for item in std::iter::once(first).chain(queued) {
        // Only a message over `MAX_FRAME` fails, and it can never be sent:
        // it is dropped like a lost message, and `encode_frame` has
        // already rolled it back out of `buf`.
        let _ = encode(buf, &item);
    }
    write_batch(out, buf)
}

/// First client id. Everything at or above this (and below `u32::MAX`) is
/// a gateway-allocated per-connection identity.
pub const CLIENT_BASE: u32 = 0x8000_0000;

/// True if `id` is a gateway-allocated client identity.
pub fn is_client_id(id: NodeId) -> bool {
    id.0 >= CLIENT_BASE && id != NodeId::EXTERNAL
}

/// Client id → that connection's outbound queue of `(from, msg)` replies.
type ClientQueues = BTreeMap<u32, Sender<(NodeId, Msg)>>;

/// Registry of live client connections: client id → that connection's
/// outbound queue. Shared between the pump (routes in) and the HTTP
/// adapter (registers virtual clients the same way socket clients are).
///
/// Lock order: `inner` is first in the declared canonical order
/// (`crates/lint/src/policy.rs::LOCK_ORDER`) — it may be taken before
/// `queues` or the threaded-runtime trace, never after. The lock-order
/// analysis (DESIGN.md §15) checks this mechanically.
#[derive(Clone, Default)]
pub struct ClientRegistry {
    inner: Arc<Mutex<ClientQueues>>,
    next: Arc<AtomicU32>,
}

impl ClientRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh client id and registers its outbound queue.
    pub fn register(&self) -> (NodeId, Receiver<(NodeId, Msg)>) {
        let id = CLIENT_BASE + self.next.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = unbounded();
        self.inner.lock().expect("registry lock").insert(id, tx);
        (NodeId(id), rx)
    }

    /// Drops a client registration; later messages to it are discarded.
    pub fn unregister(&self, id: NodeId) {
        self.inner.lock().expect("registry lock").remove(&id.0);
    }

    /// Routes `(from, msg)` to client `to`, if still connected.
    pub fn route(&self, to: NodeId, from: NodeId, msg: Msg) -> bool {
        let guard = self.inner.lock().expect("registry lock");
        match guard.get(&to.0) {
            Some(tx) => tx.send((from, msg)).is_ok(),
            None => false,
        }
    }
}

/// Outbound links to the other processes' nodes.
/// Per-peer outbound queues of `(from, to, msg)` frames.
type PeerQueues = BTreeMap<u32, Sender<(NodeId, NodeId, Msg)>>;

struct PeerLinks {
    addrs: BTreeMap<u32, SocketAddr>,
    /// Second in the declared lock order (`policy.rs::LOCK_ORDER`): held
    /// only around queue lookup/insert — the blocking `recv` loop runs on
    /// the spawned writer thread, never under this lock.
    queues: Mutex<PeerQueues>,
    shutdown: Arc<AtomicBool>,
}

impl PeerLinks {
    /// Queues a frame for `to`'s host, spinning up the writer on first use.
    fn send(&self, from: NodeId, to: NodeId, msg: Msg) {
        let Some(&addr) = self.addrs.get(&to.0) else { return };
        let mut queues = self.queues.lock().expect("peer queues lock");
        let tx = queues.entry(to.0).or_insert_with(|| {
            let (tx, rx) = unbounded();
            let shutdown = Arc::clone(&self.shutdown);
            std::thread::Builder::new()
                .name(format!("mystore-peer-{}", to.0))
                .spawn(move || peer_writer(addr, rx, shutdown))
                .expect("spawn peer writer");
            tx
        });
        let _ = tx.send((from, to, msg));
    }
}

/// Writes queued frames to one peer, (re)connecting as needed. Frames that
/// cannot be delivered while the peer is unreachable are dropped — the
/// protocol's retry machinery owns recovery.
fn peer_writer(addr: SocketAddr, rx: Receiver<(NodeId, NodeId, Msg)>, shutdown: Arc<AtomicBool>) {
    let mut conn: Option<TcpStream> = None;
    let mut buf = Vec::new();
    loop {
        let first = match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(t) => t,
            Err(RecvTimeoutError::Timeout) => {
                if shutdown.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => return,
        };
        if conn.is_none() {
            conn = TcpStream::connect_timeout(&addr, Duration::from_millis(250)).ok();
            if let Some(stream) = &conn {
                let _ = stream.set_nodelay(true);
            }
        }
        let Some(stream) = conn.as_mut() else { continue };
        let sent = drain_and_write(stream, &mut buf, first, &rx, |buf, (from, to, msg)| {
            encode_frame(buf, *from, *to, msg)
        });
        if sent.is_err() {
            conn = None; // reconnect on the next frame
        }
    }
}

/// A running gateway. Dropping it does not stop its threads; call
/// [`Gateway::shutdown`].
pub struct Gateway {
    local_addr: SocketAddr,
    registry: ClientRegistry,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Gateway {
    /// Spawns a gateway for `cluster`'s host.
    ///
    /// * `listener` — the wire socket peers and clients connect to.
    /// * `injector` — ingress into the local cluster.
    /// * `external_rx` — the cluster's external stream (from
    ///   `take_external_rx`).
    /// * `peers` — node id → listen address for every node hosted by
    ///   *other* processes (empty when the whole cluster is local).
    /// * `registry` — client registry, shared with the HTTP adapter.
    pub fn spawn(
        listener: TcpListener,
        injector: Injector<Msg>,
        external_rx: Receiver<(NodeId, NodeId, Msg)>,
        peers: BTreeMap<u32, SocketAddr>,
        registry: ClientRegistry,
    ) -> io::Result<Gateway> {
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let links = Arc::new(PeerLinks {
            addrs: peers,
            queues: Mutex::new(BTreeMap::new()),
            shutdown: Arc::clone(&shutdown),
        });
        let mut threads = Vec::new();

        // Pump: cluster's external stream → peers / clients.
        {
            let links = Arc::clone(&links);
            let registry = registry.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("mystore-gw-pump".into())
                    .spawn(move || {
                        // Exits when the cluster shuts down (stream closes).
                        while let Ok((from, to, msg)) = external_rx.recv() {
                            if links.addrs.contains_key(&to.0) {
                                links.send(from, to, msg);
                            } else if is_client_id(to) {
                                registry.route(to, from, msg);
                            }
                            // else: EXTERNAL/unknown with no consumer — drop.
                        }
                    })
                    .expect("spawn gateway pump"),
            );
        }

        // Accept loop.
        {
            let shutdown = Arc::clone(&shutdown);
            let registry = registry.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("mystore-gw-accept".into())
                    .spawn(move || {
                        while !shutdown.load(Ordering::Relaxed) {
                            match listener.accept() {
                                Ok((stream, _)) => {
                                    spawn_connection(
                                        stream,
                                        injector.clone(),
                                        registry.clone(),
                                        Arc::clone(&shutdown),
                                    );
                                }
                                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                                    std::thread::sleep(Duration::from_millis(5));
                                }
                                Err(_) => return,
                            }
                        }
                    })
                    .expect("spawn gateway accept"),
            );
        }

        Ok(Gateway { local_addr, registry, shutdown, threads })
    }

    /// The bound wire address (resolves port 0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The client registry (shared with the HTTP adapter).
    pub fn registry(&self) -> ClientRegistry {
        self.registry.clone()
    }

    /// Stops accepting, tears down peer links, and joins gateway threads.
    /// Call *after* the cluster itself has shut down (the pump exits when
    /// the external stream closes).
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// One accepted connection: a reader thread injecting frames, and — once
/// the connection sends any client-originated frame — a writer thread
/// carrying replies back.
fn spawn_connection(
    stream: TcpStream,
    injector: Injector<Msg>,
    registry: ClientRegistry,
    shutdown: Arc<AtomicBool>,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.set_nodelay(true);
    std::thread::Builder::new()
        .name("mystore-gw-conn".into())
        .spawn(move || {
            let mut client: Option<NodeId> = None;
            let mut writer: Option<JoinHandle<()>> = None;
            let mut rd = FrameReader::new(stream);
            loop {
                match rd.next_frame() {
                    Ok(Some((from, to, msg))) => {
                        let from = if from == NodeId::EXTERNAL {
                            // Client traffic: pin this connection's identity
                            // and a writer for the replies, lazily.
                            *client.get_or_insert_with(|| {
                                let (id, rx) = registry.register();
                                let out = rd.get_ref().try_clone().expect("clone client stream");
                                writer = Some(
                                    std::thread::Builder::new()
                                        .name("mystore-gw-client-wr".into())
                                        .spawn(move || client_writer(out, rx))
                                        .expect("spawn client writer"),
                                );
                                id
                            })
                        } else {
                            from // peer traffic keeps its identity
                        };
                        injector.send_from(from, to, msg);
                    }
                    Ok(None) => break, // orderly close
                    Err(e) if is_timeout(&e) => {
                        if shutdown.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    Err(_) => break, // protocol violation or reset
                }
            }
            if let Some(id) = client {
                registry.unregister(id);
            }
            // Unregistering closed the reply channel; the writer drains
            // what's left and exits.
            if let Some(w) = writer {
                let _ = w.join();
            }
        })
        .expect("spawn connection reader");
}

/// Writes reply frames to a client connection (a `TCP_NODELAY` socket, set
/// in [`spawn_connection`]) until its channel closes.
fn client_writer(mut out: TcpStream, rx: Receiver<(NodeId, Msg)>) {
    let mut buf = Vec::new();
    while let Ok(first) = rx.recv() {
        let sent = drain_and_write(&mut out, &mut buf, first, &rx, |buf, (from, msg)| {
            encode_frame(buf, *from, NodeId::EXTERNAL, msg)
        });
        if sent.is_err() {
            return;
        }
    }
}

/// Read-timeout classification across platforms (`WouldBlock` on Unix,
/// `TimedOut` on Windows).
fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::read_frame;

    /// A socket stand-in that records the size of every `write` call.
    #[derive(Default)]
    struct Writes {
        sizes: Vec<usize>,
        bytes: Vec<u8>,
    }

    impl Write for Writes {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            self.sizes.push(data.len());
            self.bytes.extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn ping(req: u64) -> (NodeId, Msg) {
        (NodeId(req as u32), Msg::RingReq { req })
    }

    #[test]
    fn a_drained_batch_leaves_in_one_write_of_at_most_batch_frames() {
        let (tx, rx) = unbounded();
        for req in 1..100 {
            tx.send(ping(req)).unwrap();
        }
        let (mut out, mut buf) = (Writes::default(), Vec::new());
        drain_and_write(&mut out, &mut buf, ping(0), &rx, |buf, (from, msg)| {
            encode_frame(buf, *from, NodeId::EXTERNAL, msg)
        })
        .unwrap();
        assert_eq!(out.sizes.len(), 1, "one write per batch");
        assert_eq!(rx.len(), 100 - BATCH_FRAMES, "the rest waits for the next batch");
        let mut rd = io::Cursor::new(out.bytes);
        for want in 0..BATCH_FRAMES as u64 {
            let (from, _, msg) = read_frame(&mut rd).unwrap().expect("frame");
            assert_eq!(from, NodeId(want as u32));
            assert!(matches!(msg, Msg::RingReq { req } if req == want));
        }
        assert!(read_frame(&mut rd).unwrap().is_none());
    }

    #[test]
    fn a_batch_that_grew_the_buffer_gives_the_excess_back() {
        let mut buf = Vec::with_capacity(1024);
        buf.extend_from_slice(&[1; 512]);
        write_batch(&mut io::sink(), &mut buf).unwrap();
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), 1024, "a batch within the bound keeps its buffer");

        buf.extend_from_slice(&vec![2; 1 << 20]);
        write_batch(&mut io::sink(), &mut buf).unwrap();
        assert!(buf.is_empty());
        assert!(buf.capacity() <= RETAINED_BUF, "kept {} bytes", buf.capacity());
    }
}
