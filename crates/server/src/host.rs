//! Host runtime: boots [`StorageNode`]s (and a [`Frontend`]) from a
//! [`ServerSpec`] onto the threaded runtime, wires a [`Gateway`] around
//! them, and owns graceful shutdown.
//!
//! A *host* is one OS process's slice of the cluster. Two transports:
//!
//! * [`Transport::InProc`] — every spec node lives in ONE
//!   [`ThreadedCluster`], whose one loop thread runs them all; inter-node
//!   traffic stays on that loop's local queue.
//!   The gateway exists only for external clients (wire + REST).
//! * [`Transport::Tcp`] — the host runs a subset of the spec's nodes (one,
//!   for `--node-id`; or `boot_tcp_mesh` builds one host per node inside a
//!   single process for benches). Every non-local destination leaves
//!   through the [`Router`]'s peer writers as a real TCP frame, so the full
//!   replication path — quorum fan-out, gossip, hinted handoff — crosses
//!   sockets.
//!
//! Either way the node logic is the unmodified sans-io [`StorageNode`] the
//! simulator verifies; only the action interpreter differs. That is the
//! sim-as-oracle guarantee (DESIGN.md §12).

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError};
use mystore_core::{Frontend, FrontendConfig, Msg, StorageConfig, StorageNode};
use mystore_gossip::GossipConfig;
use mystore_net::{NodeId, RecvError, ThreadedCluster, ThreadedClusterBuilder};
use mystore_obs::Registry;

use crate::gateway::{ClientRegistry, Gateway, Router};
use crate::http::HttpServer;
use crate::spec::{NodeSpec, ServerSpec};

/// Where inter-node messages travel. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// All nodes in one process; links are channels.
    InProc,
    /// Peers are remote; links are TCP frames through the gateway.
    Tcp,
}

/// Frontend ids live in their own range so they never collide with the
/// storage ids a spec may choose (frontends are host-local helpers, not
/// ring members).
pub const FRONTEND_BASE: u32 = 0x4000_0000;

/// One process's running slice of the cluster.
pub struct Host {
    cluster: Option<ThreadedCluster<Msg>>,
    gateway: Gateway,
    http: Option<HttpServer>,
    storage_ids: Vec<NodeId>,
    frontend_id: NodeId,
    metrics: Registry,
}

impl Host {
    /// Boots the subset of `spec` selected by `only` (`None` = every node)
    /// on the given transport. Each host also gets a local [`Frontend`]
    /// (id [`FRONTEND_BASE`] + first local storage id) serving the REST
    /// listener when the spec configures one.
    pub fn boot(spec: &ServerSpec, only: Option<u32>, transport: Transport) -> io::Result<Host> {
        let local: Vec<_> =
            spec.nodes.iter().filter(|n| only.is_none_or(|id| n.id == id)).cloned().collect();
        if local.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("node {:?} is not in the spec", only),
            ));
        }
        // Sockets first: a failed bind then leaves no threads behind.
        let listener = TcpListener::bind(&*local[0].listen)?;
        let http_listener = local[0].http.as_deref().map(TcpListener::bind).transpose()?;
        Self::boot_on(spec, &local, transport, listener, http_listener)
    }

    /// Boots the nodes `local` (non-empty) on the wire and REST listeners
    /// already bound for the first of them.
    fn boot_on(
        spec: &ServerSpec,
        local: &[NodeSpec],
        transport: Transport,
        listener: TcpListener,
        http_listener: Option<TcpListener>,
    ) -> io::Result<Host> {
        let metrics = Registry::new();
        let gossip = GossipConfig {
            interval_us: spec.gossip_interval_ms * 1000,
            fail_after_us: spec.gossip_interval_ms * 1000 * 8,
            remove_after_us: spec.gossip_interval_ms * 1000 * 100,
            seeds: spec.seeds.clone(),
            extra_fanout: 1,
            idle_backoff_max: 1,
        };

        // Peers are every spec node NOT hosted here (Tcp only). Each remote
        // host also hosts a frontend at FRONTEND_BASE + its first node id;
        // replies from our storage nodes to that frontend must route over
        // the wire too.
        let mut peers = BTreeMap::new();
        if transport == Transport::Tcp {
            for node in &spec.nodes {
                if !local.iter().any(|l| l.id == node.id) {
                    let addr = resolve(&node.listen)?;
                    peers.insert(node.id, addr);
                    peers.insert(FRONTEND_BASE + node.id, addr);
                }
            }
        }
        let registry = ClientRegistry::new();
        let router = Arc::new(Router::new(&peers, registry.clone()));
        let route = Arc::clone(&router);

        let mut builder = ThreadedClusterBuilder::new()
            .route_external(Arc::new(move |from, to, msg| route.route(from, to, msg)));
        for node in local {
            let cfg = StorageConfig {
                nwr: spec.nwr,
                vnodes: spec.vnodes as u32,
                gossip: gossip.clone(),
                data_dir: spec.data_dir.as_ref().map(PathBuf::from),
                metrics: metrics.clone(),
                // Real-network latencies are far below the simulator's
                // modeled LAN, but keep generous timeouts for loaded CI.
                replica_timeout_us: 250_000,
                request_deadline_us: 5_000_000,
                ..StorageConfig::default()
            };
            builder = builder.add_node_as(NodeId(node.id), StorageNode::new(NodeId(node.id), cfg));
        }
        let frontend_id = NodeId(FRONTEND_BASE + local[0].id);
        let storage_ids: Vec<NodeId> = local.iter().map(|n| NodeId(n.id)).collect();
        let fe_cfg = FrontendConfig {
            storage_nodes: spec.node_ids(),
            vnodes: spec.vnodes as u32,
            replicas: spec.nwr.n,
            // A key's replica on this host coordinates its requests here.
            local_nodes: storage_ids.clone(),
            cache_nodes: Vec::new(),
            request_deadline_us: 5_000_000,
            metrics: metrics.clone(),
            ..FrontendConfig::default()
        };
        builder = builder.add_node_as(frontend_id, Frontend::new(fe_cfg));
        let cluster = builder.build();
        let gateway = Gateway::spawn(listener, cluster.injector(), &router)?;
        let http = match http_listener {
            Some(listener) => Some(HttpServer::spawn(
                listener,
                cluster.injector(),
                registry,
                frontend_id,
                storage_ids.clone(),
                spec.node_ids(),
            )?),
            None => None,
        };

        Ok(Host { cluster: Some(cluster), gateway, http, storage_ids, frontend_id, metrics })
    }

    /// Boots one [`Transport::Tcp`] host per spec node inside this process
    /// — every inter-node message crosses a real socket. Every listener is
    /// bound first and its address (an OS-assigned port for a `:0` listen)
    /// written into the spec, so the hosts can address each other; each
    /// host then boots on the listeners it was handed, and no port is
    /// bound twice.
    pub fn boot_tcp_mesh(spec: &ServerSpec) -> io::Result<Vec<Host>> {
        let mut spec = spec.clone();
        let mut bound = Vec::with_capacity(spec.nodes.len());
        for node in &mut spec.nodes {
            let wire = TcpListener::bind(&*node.listen)?;
            node.listen = wire.local_addr()?.to_string();
            let http = node.http.as_deref().map(TcpListener::bind).transpose()?;
            if let Some(http) = &http {
                node.http = Some(http.local_addr()?.to_string());
            }
            bound.push((wire, http));
        }
        let mut hosts = Vec::with_capacity(spec.nodes.len());
        for (node, (wire, http)) in spec.nodes.iter().zip(bound) {
            let local = std::slice::from_ref(node);
            match Host::boot_on(&spec, local, Transport::Tcp, wire, http) {
                Ok(host) => hosts.push(host),
                Err(e) => {
                    // Half a mesh must not outlive the error: its node and
                    // gateway threads would keep running and hold the ports.
                    for host in hosts {
                        host.shutdown(Duration::ZERO);
                    }
                    return Err(e);
                }
            }
        }
        Ok(hosts)
    }

    /// The wire address clients (and peer hosts) connect to.
    pub fn wire_addr(&self) -> SocketAddr {
        self.gateway.local_addr()
    }

    /// The REST address, when this host serves one.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http.as_ref().map(HttpServer::local_addr)
    }

    /// Storage node ids hosted here.
    pub fn storage_ids(&self) -> &[NodeId] {
        &self.storage_ids
    }

    /// The host-local frontend's id.
    pub fn frontend_id(&self) -> NodeId {
        self.frontend_id
    }

    /// This host's metrics registry (shared by its nodes' WAL, quorum, and
    /// frontend instruments).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Blocks until this host's storage nodes see the full expected ring
    /// membership, or `timeout` elapses. See [`poll_ring_ready`].
    pub fn await_ready(&self, expected: &[NodeId], timeout: Duration) -> Result<(), String> {
        let registry = self.gateway.registry();
        let injector = self.cluster.as_ref().expect("host is running").injector();
        let (probe_id, rx) = registry.register();
        let result = poll_ring_ready(
            &self.storage_ids,
            expected,
            timeout,
            |node, msg| {
                injector.send_from(probe_id, node, msg);
            },
            |left| recv_channel(&rx, left),
        );
        registry.unregister(probe_id);
        result.map(|_| ())
    }

    /// Graceful shutdown: stop REST intake, drain in-flight quorum ops
    /// (bounded by `grace`), final-sync WALs via each node's
    /// `on_shutdown`, then tear the gateway down.
    pub fn shutdown(mut self, grace: Duration) {
        if let Some(http) = self.http.take() {
            http.shutdown();
        }
        if let Some(cluster) = self.cluster.take() {
            cluster.shutdown_graceful(grace);
        }
        self.gateway.shutdown();
    }
}

/// True when `view` (a node's sorted ring membership) covers exactly the
/// `expected` node set.
pub fn ring_converged(view: &[NodeId], expected: &[NodeId]) -> bool {
    let mut want: Vec<NodeId> = expected.to_vec();
    want.sort_unstable();
    want.dedup();
    view == want
}

/// Polls a harness-held [`ThreadedCluster`] until every node in `expected`
/// reports a fully converged ring, replacing fixed "sleep and hope" waits.
///
/// Consumes (and discards) stray messages from the cluster's external
/// stream, so call it *before* injecting client traffic — exactly the
/// boot-time window it is meant for. Returns the time it took.
pub fn await_ring_convergence(
    cluster: &ThreadedCluster<Msg>,
    expected: &[NodeId],
    timeout: Duration,
) -> Result<Duration, String> {
    poll_ring_ready(
        expected,
        expected,
        timeout,
        |node, msg| cluster.send(node, msg),
        |left| cluster.recv_timeout(left),
    )
}

/// The one ring-readiness poll, behind `GET /_ready`, [`Host::await_ready`]
/// and [`await_ring_convergence`], and for a harness whose cluster replies
/// to a route of its own. Sends `RingReq` to every node in
/// `nodes` and waits until each has reported a ring of exactly `expected`,
/// re-probing the rest every 50 ms, for at most `timeout`.
///
/// `send` delivers one probe; `recv` waits up to the given time for the
/// next message addressed to the prober. Anything but a `RingResp` from
/// one of `nodes` is dropped. Returns the time it took.
pub fn poll_ring_ready(
    nodes: &[NodeId],
    expected: &[NodeId],
    timeout: Duration,
    mut send: impl FnMut(NodeId, Msg),
    mut recv: impl FnMut(Duration) -> Result<(NodeId, Msg), RecvError>,
) -> Result<Duration, String> {
    let start = Instant::now();
    let deadline = start + timeout;
    let mut converged: BTreeSet<NodeId> = BTreeSet::new();
    // Correlation ids far above anything a harness uses for its own ops.
    let mut probe_req = u64::MAX / 2;
    loop {
        for &node in nodes {
            if !converged.contains(&node) {
                probe_req += 1;
                send(node, Msg::RingReq { req: probe_req });
            }
        }
        let poll_until = (Instant::now() + Duration::from_millis(50)).min(deadline);
        loop {
            let left = poll_until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            match recv(left) {
                Ok((from, Msg::RingResp { members, .. })) => {
                    if nodes.contains(&from) && ring_converged(&members, expected) {
                        converged.insert(from);
                    }
                }
                Ok(_) => {}
                Err(RecvError::Timeout) => break,
                Err(RecvError::Disconnected) => {
                    return Err("cluster went down while waiting for convergence".to_string());
                }
            }
        }
        if converged.len() == nodes.len() {
            return Ok(start.elapsed());
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "ring not converged within {timeout:?}: {}/{} nodes ready",
                converged.len(),
                nodes.len()
            ));
        }
    }
}

/// A gateway client channel as a [`poll_ring_ready`] receiver.
pub(crate) fn recv_channel(
    rx: &Receiver<(NodeId, Msg)>,
    timeout: Duration,
) -> Result<(NodeId, Msg), RecvError> {
    rx.recv_timeout(timeout).map_err(|e| match e {
        RecvTimeoutError::Timeout => RecvError::Timeout,
        RecvTimeoutError::Disconnected => RecvError::Disconnected,
    })
}

fn resolve(addr: &str) -> io::Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, format!("unresolvable address {addr}"))
    })
}
