//! TCP gateway: the boundary between a host's in-process cluster and the
//! network.
//!
//! # Routing
//!
//! A [`Router`] is built once at boot, before the cluster, and installed as
//! the cluster's route (`ThreadedClusterBuilder::route_external`): the host
//! loop calls [`Router::route`] for every message a process sends to an id
//! the host does not run. A frame for a node or frontend on another host
//! goes on that host's writer queue; a reply for a client id goes on that
//! connection's reply queue; anything else ([`NodeId::EXTERNAL`], an
//! unknown id) is dropped.
//!
//! **The host loop never touches a socket.** Routing is a map lookup plus a
//! send on an unbounded channel, and the client registry's lock is held only
//! for that lookup and send. The writer threads are the only thing a slow
//! or dead peer can stall. A cross-host message crosses three thread
//! hand-offs: sending host's loop → peer writer → (socket) → the remote
//! host's connection reader → receiving host's loop.
//!
//! # Threads
//!
//! A [`Gateway`] owns one listening socket and these threads:
//!
//! * **accept** — blocks in `accept`; [`Gateway::shutdown`] sets a flag and
//!   connects once to the listener to wake it.
//! * **reader** (one per accepted connection) — decodes inbound frames and
//!   injects them into the local cluster. Frames claiming `from ==`
//!   [`NodeId::EXTERNAL`] are rewritten to the connection's allocated
//!   client id, so replies route back to the right socket; frames with a
//!   real node id are peer traffic and inject verbatim.
//! * **peer writer** (one per remote host, spawned by [`Router::new`] and
//!   named `mystore-peer-<first node id of that host>`) — connects to the
//!   host's listen address and writes the frames for every node and
//!   frontend it hosts, reconnecting on the next frame after a failure.
//!   Delivery is best-effort: the replication protocol already tolerates
//!   message loss (retries, hinted handoff, read repair), so a down peer
//!   costs retransmissions, never correctness.
//! * **client writer** (one per wire client connection) — writes the
//!   replies routed to that connection's client id.
//!
//! [`Gateway::shutdown`] joins all of them.
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
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
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

/// Accepts connections on `listener`, handing each to `serve`, until
/// `shutdown` is set. The accept blocks: [`stop_accepting`] sets the flag
/// and connects once to wake it.
pub(crate) fn accept_until(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    mut serve: impl FnMut(TcpStream),
) {
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match stream {
            Ok(stream) => serve(stream),
            Err(_) => return,
        }
    }
}

/// Stops the [`accept_until`] loop of the listener bound to `addr`.
pub(crate) fn stop_accepting(addr: SocketAddr, shutdown: &AtomicBool) {
    shutdown.store(true, Ordering::SeqCst);
    let mut wake = addr;
    if wake.ip().is_unspecified() {
        wake.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    // A failed connect means the loop has already exited, listener and all.
    let _ = TcpStream::connect(wake);
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
/// outbound queue. Shared between the [`Router`] (routes replies in) and
/// the connections, socket and HTTP alike (register and unregister).
///
/// Lock discipline: `inner` is the only mutex in `net` and `server`, so no
/// lock order exists to break. It is held only around a map lookup and an
/// unbounded (never blocking) send: host loops take it in
/// [`Router::route`], connection threads to register and unregister
/// (DESIGN.md §12).
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

/// One frame queued for a peer writer: `(from, to, msg)`.
type Frame = (NodeId, NodeId, Msg);

/// Outbound links to the other hosts: one queue and one writer per remote
/// listen address. Built once at boot and never changed after that, so
/// routing to a peer needs no lock.
struct PeerLinks {
    /// Every remote node and frontend id → its host's queue. Ids on one
    /// host share the queue, so their frames leave in send order and batch
    /// together.
    by_id: BTreeMap<u32, Sender<Frame>>,
    writers: Vec<JoinHandle<()>>,
}

impl PeerLinks {
    fn new(peers: &BTreeMap<u32, SocketAddr>) -> PeerLinks {
        let mut by_addr: BTreeMap<SocketAddr, Sender<Frame>> = BTreeMap::new();
        let mut by_id = BTreeMap::new();
        let mut writers = Vec::new();
        for (&id, &addr) in peers {
            let tx = by_addr.entry(addr).or_insert_with(|| {
                let (tx, rx) = unbounded();
                // Ids ascend, so this is the host's first node id. A thread
                // name keeps 15 bytes, which a frontend id would overflow.
                writers.push(
                    std::thread::Builder::new()
                        .name(format!("mystore-peer-{id}"))
                        .spawn(move || peer_writer(addr, rx))
                        .expect("spawn peer writer"),
                );
                tx
            });
            by_id.insert(id, tx.clone());
        }
        PeerLinks { by_id, writers }
    }

    /// Closes every queue, then waits for each writer to send what was
    /// queued and exit.
    fn close(self) {
        drop(self.by_id);
        for writer in self.writers {
            let _ = writer.join();
        }
    }
}

/// Routes what the cluster's processes send to ids the host does not
/// run: to a peer host's writer, or to a client connection's reply
/// queue (module docs, "Routing").
pub struct Router {
    links: PeerLinks,
    registry: ClientRegistry,
}

impl Router {
    /// A router to the nodes in `peers` (remote node or frontend id → its
    /// host's listen address; empty when the whole cluster is local) and to
    /// the clients in `registry`. Spawns one peer writer per distinct
    /// address.
    pub fn new(peers: &BTreeMap<u32, SocketAddr>, registry: ClientRegistry) -> Router {
        Router { links: PeerLinks::new(peers), registry }
    }

    /// Hands `msg` from local node `from` to `to`'s host writer or client
    /// reply queue, and drops it if `to` is neither. Never blocks on a
    /// socket.
    pub fn route(&self, from: NodeId, to: NodeId, msg: Msg) {
        if let Some(tx) = self.links.by_id.get(&to.0) {
            let _ = tx.send((from, to, msg));
        } else if is_client_id(to) {
            self.registry.route(to, from, msg);
        }
    }
}

/// Writes queued frames to one peer host, (re)connecting as needed, until
/// [`PeerLinks::close`] closes the queue or the router is dropped. Frames
/// that cannot be delivered while the peer is unreachable are dropped —
/// the protocol's retry machinery owns recovery.
fn peer_writer(addr: SocketAddr, rx: Receiver<Frame>) {
    let mut conn: Option<TcpStream> = None;
    let mut buf = Vec::new();
    while let Ok(first) = rx.recv() {
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
    router: Arc<Router>,
    shutdown: Arc<AtomicBool>,
    accept: JoinHandle<()>,
}

impl Gateway {
    /// Spawns a gateway for `cluster`'s host.
    ///
    /// * `listener` — the wire socket peers and clients connect to.
    /// * `injector` — ingress into the local cluster.
    /// * `router` — the router installed as the cluster's route; its
    ///   registry gives wire clients their identities.
    pub fn spawn(
        listener: TcpListener,
        injector: Injector<Msg>,
        router: &Arc<Router>,
    ) -> io::Result<Gateway> {
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let registry = router.registry.clone();
            std::thread::Builder::new()
                .name("mystore-gw-accept".into())
                .spawn(move || {
                    let mut conns: Vec<JoinHandle<()>> = Vec::new();
                    accept_until(&listener, &shutdown, |stream| {
                        conns.retain(|conn| !conn.is_finished());
                        conns.push(spawn_connection(
                            stream,
                            injector.clone(),
                            registry.clone(),
                            Arc::clone(&shutdown),
                        ));
                    });
                    for conn in conns {
                        let _ = conn.join();
                    }
                })
                .expect("spawn gateway accept")
        };
        Ok(Gateway { local_addr, router: Arc::clone(router), shutdown, accept })
    }

    /// The bound wire address (resolves port 0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The client registry (shared with the HTTP adapter).
    pub fn registry(&self) -> ClientRegistry {
        self.router.registry.clone()
    }

    /// Stops accepting, closes every connection and peer link, and joins
    /// every gateway thread. Call *after* the cluster itself has shut down:
    /// the peer writers exit once the last handle on the router is gone,
    /// and the host loop's route holds one until the loop exits.
    pub fn shutdown(self) {
        stop_accepting(self.local_addr, &self.shutdown);
        // Joins the connection threads too; each sees the flag after its
        // next frame or read timeout.
        let _ = self.accept.join();
        if let Ok(router) = Arc::try_unwrap(self.router) {
            router.links.close();
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
) -> JoinHandle<()> {
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
                    Err(e) if is_timeout(&e) => {}
                    Err(_) => break, // protocol violation or reset
                }
                // After every frame too: a live peer's gossip keeps a link
                // busy past any read timeout.
                if shutdown.load(Ordering::Relaxed) {
                    break;
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
        .expect("spawn connection reader")
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

    /// Every `(from, to, req)` of the `RingReq` frames a peer link carried,
    /// read from the link's listener until the writer closed it.
    fn frames_on(listener: &TcpListener) -> Vec<(u32, u32, u64)> {
        let (mut conn, _) = listener.accept().unwrap();
        std::iter::from_fn(|| read_frame(&mut conn).unwrap())
            .map(|(from, to, msg)| match msg {
                Msg::RingReq { req } => (from.0, to.0, req),
                other => panic!("unexpected frame {other:?}"),
            })
            .collect()
    }

    #[test]
    fn a_router_gives_each_remote_host_one_link_and_each_client_its_queue() {
        use crate::host::FRONTEND_BASE as FE;
        let hosts =
            [TcpListener::bind("127.0.0.1:0").unwrap(), TcpListener::bind("127.0.0.1:0").unwrap()];
        let addr = |i: usize| hosts[i].local_addr().unwrap();
        let peers =
            BTreeMap::from([(1, addr(0)), (FE + 1, addr(0)), (2, addr(1)), (FE + 2, addr(1))]);
        let registry = ClientRegistry::new();
        let (client, replies) = registry.register();
        let router = Router::new(&peers, registry);
        assert_eq!(router.links.writers.len(), 2, "one link per remote host");

        let sent = [(0, 1, 1), (0, FE + 1, 2), (3, 1, 3), (0, 2, 4), (3, FE + 1, 5)];
        for (from, to, req) in sent {
            router.route(NodeId(from), NodeId(to), Msg::RingReq { req });
        }
        router.route(NodeId(0), client, Msg::RingReq { req: 6 });
        router.route(NodeId(0), NodeId(7), Msg::RingReq { req: 7 }); // unknown id
        router.route(NodeId(0), NodeId::EXTERNAL, Msg::RingReq { req: 8 });
        router.links.close();

        let host1 = vec![(0, 1, 1), (0, FE + 1, 2), (3, 1, 3), (3, FE + 1, 5)];
        assert_eq!(frames_on(&hosts[0]), host1, "node 1 and its frontend share one queue");
        assert_eq!(frames_on(&hosts[1]), vec![(0, 2, 4)]);
        let (from, reply) = replies.try_recv().expect("the client's reply");
        assert!(from == NodeId(0) && matches!(reply, Msg::RingReq { req: 6 }));
        assert!(replies.try_recv().is_err(), "the unknown and EXTERNAL sends are dropped");
    }
}
