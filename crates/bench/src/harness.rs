//! The shared REST-workload runner used by Figs. 11–14: builds one of the
//! three systems (MyStore, ext3-FS, master-slave MySQL) behind the common
//! REST interface, preloads a corpus, attaches closed-loop clients, runs,
//! and reduces the trace.

use std::sync::Arc;

use mystore_baselines::{FsStoreNode, RelRole, RelStoreNode};
use mystore_core::prelude::*;
use mystore_net::{FaultPlan, NetConfig, NodeConfig, NodeId, Sim, SimConfig, SimTime, Trace};
use mystore_obs::Snapshot;
use mystore_workload::{
    preload_mystore, preload_single, rate_per_sec, throughput_mb_per_sec, Item, RestClient,
    RestClientConfig, Summary,
};

/// Which system serves the REST interface (§6.1's three storage patterns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// The full MyStore topology (Fig. 10): storage ring + cache + front end.
    MyStore,
    /// Unstructured data on an ext3-like file system with an index table.
    Ext3Fs,
    /// Master-slave MySQL-like relational store (clients hit the master).
    MySqlMs,
}

impl SystemKind {
    /// Display name as used in the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::MyStore => "MyStore",
            SystemKind::Ext3Fs => "ext3-FS",
            SystemKind::MySqlMs => "MySQL-ms",
        }
    }
}

/// Parameters of one REST run.
#[derive(Debug, Clone)]
pub struct RestRun {
    /// Which system to build.
    pub system: SystemKind,
    /// Corpus (preloaded before measurement).
    pub items: Arc<Vec<Item>>,
    /// Number of closed-loop client processes.
    pub clients: usize,
    /// Per-client GET fraction (rest are POSTs).
    pub read_ratio: f64,
    /// Think time range (µs) — the paper uses 0–500 ms.
    pub think_us: (u64, u64),
    /// Total virtual run time (µs); measurement starts at half.
    pub duration_us: u64,
    /// Seed for the whole run.
    pub seed: u64,
    /// Optional per-client class filter assignment (Fig. 12): client `i`
    /// reads only items of class `assign[i % assign.len()]`.
    pub class_assignment: Option<Vec<u8>>,
    /// Cluster spec override for MyStore runs.
    pub spec: Option<ClusterSpec>,
}

impl RestRun {
    /// A default configuration over the given corpus.
    pub fn new(system: SystemKind, items: Arc<Vec<Item>>) -> Self {
        RestRun {
            system,
            items,
            clients: 300,
            read_ratio: 1.0,
            think_us: (0, 500_000),
            duration_us: 30_000_000,
            seed: 42,
            class_assignment: None,
            spec: None,
        }
    }
}

/// Reduced results of a REST run.
#[derive(Debug, Clone)]
pub struct RestRunResult {
    /// System label.
    pub system: &'static str,
    /// Requests per second in the measurement window.
    pub rps: f64,
    /// Response-payload throughput (MB/s).
    pub throughput_mb_s: f64,
    /// TTFB summary (µs).
    pub ttfb: Option<Summary>,
    /// TTLB summary (µs).
    pub ttlb: Option<Summary>,
    /// Completed operations.
    pub completed: u64,
    /// Non-2xx responses (after retries).
    pub errors: u64,
    /// The client node ids (for per-class reduction).
    pub client_ids: Vec<NodeId>,
    /// The full trace (for custom reductions).
    pub trace: Trace,
    /// Measurement window.
    pub window: (SimTime, SimTime),
    /// End-of-run metrics snapshot (quorum counters, latency histograms,
    /// WAL/cache/gossip series). `None` for the baseline systems, which do
    /// not publish into a registry.
    pub metrics: Option<Snapshot>,
}

/// Builds, preloads, runs, and reduces one REST workload run.
pub fn run_rest_comparison(run: &RestRun) -> RestRunResult {
    let net = NetConfig::gigabit_lan();
    let sim_config = SimConfig { net: net.clone(), faults: FaultPlan::none(), seed: run.seed };

    // --- build the system under test --------------------------------------
    let mut registry = None;
    let (mut sim, target, warmup_us, spec_opt) = match run.system {
        SystemKind::MyStore => {
            let spec = run.spec.clone().unwrap_or_else(ClusterSpec::paper_topology);
            let (sim, reg) = spec.build_sim_with_metrics(sim_config);
            registry = Some(reg);
            let target = spec.frontend_ids()[0];
            let warm = spec.warmup_us();
            (sim, target, warm, Some(spec))
        }
        SystemKind::Ext3Fs => {
            let mut sim = Sim::new(sim_config);
            // One machine, 8 cores, no replication.
            // One machine; reads are seek-bound on a single disk, so little
            // useful parallelism.
            let id = sim.add_node(FsStoreNode::default(), NodeConfig { concurrency: 2 });
            (sim, id, 0, None)
        }
        SystemKind::MySqlMs => {
            let mut sim = Sim::new(sim_config);
            let slave =
                sim.add_node(RelStoreNode::new(RelRole::Slave), NodeConfig { concurrency: 4 });
            let master = sim.add_node(
                RelStoreNode::new(RelRole::Master { slave: Some(slave) }),
                NodeConfig { concurrency: 4 },
            );
            (sim, master, 0, None)
        }
    };

    // --- clients -----------------------------------------------------------
    let mut client_ids = Vec::with_capacity(run.clients);
    for i in 0..run.clients {
        let class_filter = run.class_assignment.as_ref().map(|assign| assign[i % assign.len()]);
        let cfg = RestClientConfig {
            target,
            items: Arc::clone(&run.items),
            read_ratio: run.read_ratio,
            think_us: run.think_us,
            max_ops: None,
            // +1: preload happens after the warmup boundary, so the first
            // request must come strictly after it.
            start_delay_us: warmup_us + 1 + (i as u64 * 997) % 500_000,
            retry_statuses: vec![status::BUSY, status::TIMEOUT],
            net: net.clone(),
            class_filter,
        };
        client_ids.push(sim.add_node(RestClient::new(cfg), NodeConfig::default()));
    }

    sim.start();
    if warmup_us > 0 {
        sim.run_for(warmup_us);
    }

    // --- preload -----------------------------------------------------------
    match run.system {
        SystemKind::MyStore => {
            let spec = spec_opt.as_ref().expect("spec for mystore");
            preload_mystore(
                &mut sim,
                &spec.storage_ids(),
                spec.storage.vnodes,
                spec.storage.nwr.n,
                &run.items,
            );
        }
        SystemKind::Ext3Fs => {
            preload_single::<FsStoreNode, _>(&mut sim, target, &run.items, |node, key, val| {
                node.preload(key, val)
            });
        }
        SystemKind::MySqlMs => {
            // Preload master and slave alike (replication already caught up).
            for node in [NodeId(0), NodeId(1)] {
                preload_single::<RelStoreNode, _>(&mut sim, node, &run.items, |n, key, val| {
                    n.preload(key, val)
                });
            }
        }
    }

    // --- run & reduce --------------------------------------------------------
    let t0 = sim.now();
    sim.run_for(run.duration_us);
    let from = SimTime(t0.as_micros() + run.duration_us / 2);
    let to = sim.now();

    let trace = sim.trace().clone();
    let (mut completed, mut errors) = (0u64, 0u64);
    for &cid in &client_ids {
        if let Some(c) = sim.process::<RestClient>(cid) {
            completed += c.completed;
            errors += c.errors;
        }
    }
    RestRunResult {
        system: run.system.label(),
        rps: rate_per_sec(&trace, "ttlb_us", from, to),
        throughput_mb_s: throughput_mb_per_sec(&trace, "resp_bytes", from, to),
        ttfb: Summary::from_trace(&trace, "ttfb_us"),
        ttlb: Summary::from_trace(&trace, "ttlb_us"),
        completed,
        errors,
        client_ids,
        trace,
        window: (from, to),
        metrics: registry.map(|r| r.snapshot()),
    }
}

/// Reduces TTFB/TTLB for a subset of clients (per-class rows of Fig. 12).
pub fn per_client_summary(
    result: &RestRunResult,
    clients: &[NodeId],
    name: &str,
) -> Option<Summary> {
    let values: Vec<f64> = result
        .trace
        .events()
        .iter()
        .filter(|e| e.name == name && clients.contains(&e.node))
        .map(|e| e.value)
        .collect();
    Summary::of(values)
}

/// One point of the Figs. 13–14 process sweep: `processes` closed-loop
/// clients against the paper topology tuned so the application tier is the
/// bottleneck (Python logical processes: ~3.5 ms/request over 16 workers,
/// 400 process slots).
pub fn sweep_point(processes: usize, items: &Arc<Vec<Item>>, seed: u64) -> RestRunResult {
    let mut spec = ClusterSpec::paper_topology();
    // The app node runs interpreted logical processes (paper: Python via
    // spawn-fcgi): per-request CPU dominates, and the process pool bounds
    // concurrent requests.
    spec.frontend_cpu_us = 3_500;
    spec.frontend_concurrency = 16;
    spec.frontend_max_inflight = 400;
    let mut run = RestRun::new(SystemKind::MyStore, Arc::clone(items));
    run.spec = Some(spec);
    run.clients = processes;
    run.read_ratio = 0.8;
    run.duration_us = 25_000_000;
    run.seed = seed;
    run_rest_comparison(&run)
}
