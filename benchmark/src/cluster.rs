//! Boots the real runtime in-process, preloads the keyspace, and checks
//! what the WALs hold after shutdown.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use mystore_engine::Db;
use mystore_net::NodeId;
use mystore_obs::Snapshot;
use mystore_serverd::{Host, ServerSpec, Transport, FRONTEND_BASE};

use crate::client::{WireConn, WireMode};
use crate::load::{Judge, Pace, Pipelined, Recorder};
use crate::workload::{key_name, verify_body, Bodies, KeyState, Op, Workload};

pub const NODES: u32 = 3;

/// PUTs the preload keeps in flight: half of what the frontend admits
/// before it sheds. Wide, because the seed's peer sockets (no
/// `TCP_NODELAY`) move one burst per delayed ACK; a narrow window would
/// spend the set-up waiting on 40 ms timers.
const PRELOAD_WINDOW: usize = 256;

/// Everything the benchmark writes goes under `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory under `out/`, removed on drop, so also when a panic
/// unwinds through its owner.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir().join(format!("tmp-{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `Host::boot_tcp_mesh`: one host per node, each on a port the system
/// picked. Between finding a port and binding it for good another socket can
/// take it (seen once in some 150 boots, as "Address already in use");
/// `boot_tcp_mesh` would then leave the hosts it had already booted running
/// beside the measurement, so this stops them and tries the mesh again.
fn boot_mesh(spec: &ServerSpec) -> io::Result<Vec<Host>> {
    const ATTEMPTS: usize = 5;
    let mut attempt = 1;
    loop {
        let mut spec = spec.clone();
        for node in &mut spec.nodes {
            node.listen = TcpListener::bind(&*node.listen)?.local_addr()?.to_string();
        }
        let mut hosts = Vec::new();
        let failed = spec.nodes.iter().find_map(|node| {
            Host::boot(&spec, Some(node.id), Transport::Tcp).map(|host| hosts.push(host)).err()
        });
        let Some(e) = failed else { return Ok(hosts) };
        for host in hosts {
            host.shutdown(Duration::from_secs(2));
        }
        if e.kind() != io::ErrorKind::AddrInUse || attempt == ATTEMPTS {
            return Err(e);
        }
        eprintln!("boot attempt {attempt}: {e}; trying other ports");
        attempt += 1;
    }
}

/// A running 3-node cluster and the per-key state of what was written to it.
pub struct Cluster {
    hosts: Vec<Host>,
    /// The WAL directory of a durable cluster.
    dir: Option<TempDir>,
    pub keys: KeyState,
    pub bodies: Bodies,
    /// How long boot + ring convergence + preload took.
    pub setup: Duration,
}

impl Cluster {
    /// `setup` of the run shape: boot, wait for the ring, preload
    /// `preload_keys` (all of them for a measured run) with sequence 1.
    /// `mesh`: one host per node with a real socket between every pair;
    /// otherwise all nodes in one host on in-process channels.
    pub fn start(
        w: &'static Workload,
        seed: u64,
        mesh: bool,
        preload_keys: impl Iterator<Item = u32>,
    ) -> Result<Cluster, String> {
        let began = Instant::now();
        let mut spec = ServerSpec::local(NODES);
        let dir = match w.durable {
            true => Some(TempDir::new(w.name).map_err(|e| format!("temp data_dir: {e}"))?),
            false => None,
        };
        spec.data_dir = dir.as_ref().map(|d| d.path().to_string_lossy().into_owned());
        let hosts = if mesh {
            boot_mesh(&spec)
        } else {
            Host::boot(&spec, None, Transport::InProc).map(|h| vec![h])
        }
        .map_err(|e| format!("boot: {e}"))?;
        let mut cluster = Cluster {
            hosts,
            dir,
            keys: KeyState::new(w.keys),
            bodies: Bodies::new(seed, w.value_bytes),
            setup: Duration::ZERO,
        };
        for host in &cluster.hosts {
            host.await_ready(&spec.node_ids(), Duration::from_secs(30))?;
        }
        let (loaded, loaded_at) = cluster.preload(w, preload_keys)?;
        if loaded.failed > 0 {
            return Err(format!("preload: {} of {} PUTs failed", loaded.failed, loaded.attempted));
        }
        cluster.setup = loaded_at.duration_since(began);
        Ok(cluster)
    }

    /// What the preload recorded, and when its last PUT was acked: leaving
    /// the scope then joins the receiver thread, which waits out a read
    /// timeout that is no part of the set-up.
    fn preload(
        &self,
        w: &'static Workload,
        mut keys: impl Iterator<Item = u32>,
    ) -> Result<(Recorder, Instant), String> {
        let conn = self.wire(WireMode::Rest(self.frontend()), Duration::from_millis(100))?;
        Ok(std::thread::scope(|scope| {
            let mut pipe =
                Pipelined::start(scope, conn, Judge { w, keys: &self.keys, verify: true });
            let next_op = || {
                let key = keys.next()?;
                Some(Op { key, seq: self.keys.next_seq(key) })
            };
            let loaded = pipe.run(
                Pace::Closed(PRELOAD_WINDOW),
                Duration::from_secs(600),
                &self.bodies,
                next_op,
            );
            (loaded, Instant::now())
        }))
    }

    pub fn http_addr(&self) -> SocketAddr {
        self.hosts[0].http_addr().expect("host 0 serves REST")
    }

    /// Host 0's frontend: where `RestReq` frames go.
    pub fn frontend(&self) -> NodeId {
        NodeId(FRONTEND_BASE)
    }

    /// A wire connection to host 0's gateway.
    pub fn wire(&self, mode: WireMode, read_timeout: Duration) -> Result<WireConn, String> {
        WireConn::connect(self.hosts[0].wire_addr(), mode, read_timeout)
            .map_err(|e| format!("wire connect: {e}"))
    }

    /// One registry snapshot per host.
    pub fn snapshots(&self) -> Vec<Snapshot> {
        self.hosts.iter().map(|h| h.metrics().snapshot()).collect()
    }

    /// Graceful shutdown of every host, then — on a durable cluster — the
    /// acked-write check: each node's WAL is reopened and replayed, and a
    /// key whose last acked sequence is on no replica is a lost write.
    /// Returns the number of lost (or unreadable) acked writes.
    pub fn stop(self, w: &Workload) -> Result<u64, String> {
        for host in self.hosts {
            host.shutdown(Duration::from_secs(2));
        }
        let Some(dir) = self.dir else { return Ok(0) };
        let mut newest = vec![0u32; w.keys as usize];
        for node in 0..NODES {
            let db = Db::open(dir.path().join(format!("node{node}.wal")))
                .and_then(Db::recover_from_wal)
                .map_err(|e| format!("reopen node{node}.wal: {e}"))?;
            for key in 0..w.keys {
                let held = db
                    .get_record("data", &key_name(key))
                    .map_err(|e| format!("node{node} get_record: {e}"))?
                    .filter(|r| !r.is_del)
                    .and_then(|r| verify_body(key, w.value_bytes, &r.val));
                if let Some(seq) = held {
                    let slot = &mut newest[key as usize];
                    *slot = (*slot).max(seq);
                }
            }
        }
        Ok((0..w.keys).filter(|&k| newest[k as usize] < self.keys.acked(k)).count() as u64)
    }
}
