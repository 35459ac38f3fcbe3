//! The scenario-matrix chaos runner (DESIGN.md §13).
//!
//! A *cell* is one point in the sweep: cluster size × (N, W, R) ×
//! [`FaultProfile`] × [`KeyDist`] × virtual horizon × seed. [`run_cell`]
//! builds the cluster on the deterministic simulator, drives a strictly
//! sequential [`MatrixClient`] through seeded traffic bursts while the
//! generated fault schedule impairs at most one node at a time, and then —
//! after the schedule has healed everything and a settle phase has let
//! hints replay — checks the global invariants directly against every
//! node's database:
//!
//! * **zero client errors** — every operation succeeded within its retry
//!   budget,
//! * **no acked-write loss** — for every key, some replica holds a payload
//!   sequence at least the last acknowledged one,
//! * **determinism** — the full trace and metrics fold into a signature
//!   that is bit-identical across replays of the same cell.
//!
//! Quiescent gaps between bursts cost almost nothing: the sim fast-forwards
//! a drained queue (the `run_until` idle-clock fix) and the periodic timers
//! back off while nothing changes (gossip and anti-entropy idle backoff) —
//! which is what makes 7×24 h horizons affordable in seconds of wall clock.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub mod client;
pub mod schedule;

use std::collections::BTreeMap;

pub use client::{KeyDist, MatrixClient, MatrixClientConfig};
pub use schedule::FaultProfile;

use mystore_core::prelude::*;
use mystore_net::{FaultPlan, NetConfig, NodeConfig, SimConfig};

const SEC: u64 = 1_000_000;

/// One point of the scenario matrix.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Human-readable cell id, e.g. `kill-zipf-n50`.
    pub name: String,
    /// Storage nodes in the ring.
    pub nodes: usize,
    /// Quorum parameters.
    pub nwr: Nwr,
    /// Fault profile the schedule generator expands.
    pub profile: FaultProfile,
    /// Key-popularity distribution.
    pub dist: KeyDist,
    /// Total virtual time, warmup and settle included (µs).
    pub horizon_us: u64,
    /// Seed for the simulator and the schedule generator.
    pub seed: u64,
    /// Key-space size.
    pub keys: usize,
    /// Traffic bursts across the horizon.
    pub bursts: u64,
    /// Sequential operations per burst.
    pub ops_per_burst: u64,
    /// Per-node capacity weights (heterogeneous rings, DESIGN.md §16);
    /// empty = homogeneous. Indexed like the storage ids, nodes past the
    /// end get weight 1.
    pub weights: Vec<u32>,
}

impl CellSpec {
    /// A standard cell: most parameters derived from the sweep axes.
    pub fn new(
        nodes: usize,
        nwr: Nwr,
        profile: FaultProfile,
        dist: KeyDist,
        horizon_us: u64,
        seed: u64,
    ) -> Self {
        CellSpec {
            name: format!("{}-{}-n{}-w{}r{}", profile.label(), dist.label(), nodes, nwr.w, nwr.r),
            nodes,
            nwr,
            profile,
            dist,
            horizon_us,
            seed,
            keys: 128,
            bursts: (horizon_us / (6 * 3600 * SEC)).clamp(4, 32),
            ops_per_burst: 100,
            weights: Vec::new(),
        }
    }
}

/// Outcome of one cell, with everything the invariant assertions and the
/// results table need. `PartialEq` covers every field, so comparing two
/// results is the replay-determinism check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellResult {
    /// The cell's name.
    pub name: String,
    /// Operations abandoned after the retry budget.
    pub client_errors: u64,
    /// Acknowledged writes.
    pub puts_ok: u64,
    /// Completed reads.
    pub gets_ok: u64,
    /// Attempt-level retries.
    pub retries: u64,
    /// Keys with at least one acknowledged write.
    pub acked_keys: u64,
    /// Acked keys whose highest surviving replica sequence is below the
    /// last acknowledged sequence — must be zero.
    pub lost_writes: u64,
    /// Whether the client finished every burst inside the horizon.
    pub client_done: bool,
    /// Trace events recorded.
    pub trace_events: usize,
    /// FNV-1a fold of the full trace + metrics dump (replay determinism).
    pub signature: u64,
    /// Selected cluster counters for the results table.
    pub counters: BTreeMap<String, u64>,
}

/// FNV-1a 64-bit, folded over `data`.
fn fnv1a(hash: u64, data: &[u8]) -> u64 {
    let mut h = hash;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Runs one cell to completion and verifies its invariants' inputs.
///
/// The cell's virtual timeline: `[0, warmup)` cluster convergence, then
/// traffic bursts and fault epochs over the active window, then a settle
/// phase (no faults, no traffic) for hint replay and re-convergence, ending
/// at `horizon_us`. Returns the measured [`CellResult`]; the caller decides
/// which invariants are hard assertions.
pub fn run_cell(spec: &CellSpec) -> CellResult {
    let warmup_us = 160 * SEC;
    let settle_us = 400 * SEC;
    let active_until = spec.horizon_us.saturating_sub(settle_us);

    let mut cluster = ClusterSpec::small(spec.nodes);
    cluster.seed_count = spec.nodes.min(3);
    cluster.weights = spec.weights.clone();
    let cfg = &mut cluster.storage;
    cfg.nwr = spec.nwr;
    // Long-horizon cadences: slow base periods plus idle backoff, so the
    // quiescent ring fast-forwards. Failure detection scales with the
    // backed-off gossip interval (see `Gossiper::effective_timeouts`).
    cfg.gossip.interval_us = 10 * SEC;
    cfg.gossip.fail_after_us = 50 * SEC;
    cfg.gossip.remove_after_us = spec.horizon_us.saturating_mul(4).max(3600 * SEC);
    cfg.gossip.idle_backoff_max = 64;
    cfg.anti_entropy_interval_us = 600 * SEC;
    cfg.anti_entropy_idle_backoff_max = 64;
    cfg.compaction_interval_us = 3600 * SEC;
    cfg.hint_replay_interval_us = 120 * SEC;
    // A coarser tick suits the long-horizon cells: each active plan wakes
    // 4×/s instead of 20×/s, keeping mostly-idle weeks fast-forwardable.
    // With the Kill profile's 30–120 s outages against the 50 s failure
    // detector, every long outage is a genuine ring leave/re-join the
    // migration engine drains under its default budgets.
    cfg.migrate_tick_us = SEC / 4;

    let (mut sim, registry) = cluster.build_sim_with_metrics(SimConfig {
        net: NetConfig::gigabit_lan(),
        faults: FaultPlan::none(),
        seed: spec.seed,
    });

    let active_span = active_until.saturating_sub(warmup_us).max(1);
    let client_cfg = MatrixClientConfig {
        coordinators: cluster.storage_ids(),
        keys: spec.keys,
        dist: spec.dist,
        read_ratio: 0.25,
        bursts: spec.bursts,
        ops_per_burst: spec.ops_per_burst,
        burst_every_us: active_span / spec.bursts.max(1),
        op_gap_us: 200_000,
        start_delay_us: warmup_us,
        // Above max_attempts × the coordinator's request deadline, so an
        // attempt is only abandoned once the cluster has truly failed it.
        attempt_deadline_us: 2_500_000,
        max_attempts: 6,
        payload_pad: 64,
    };
    let client_id = sim.add_node(MatrixClient::new(client_cfg), NodeConfig::default());

    let faults = schedule::build_schedule(
        spec.profile,
        spec.nodes,
        warmup_us + 30 * SEC,
        active_until,
        spec.seed,
    );
    sim.apply_schedule(&faults);
    sim.start();
    sim.run_for(spec.horizon_us);

    // ---- verification ---------------------------------------------------
    let (acked, puts_ok, gets_ok, errors, retries, done) =
        match sim.process::<MatrixClient>(client_id) {
            Some(c) => (c.acked.clone(), c.puts_ok, c.gets_ok, c.errors, c.retries, c.done),
            None => (BTreeMap::new(), 0, 0, u64::MAX, 0, false),
        };
    let mut lost_writes = 0u64;
    for (&key_idx, &want_seq) in &acked {
        let key = client::key_name(key_idx);
        let mut best = 0u64;
        for id in cluster.storage_ids() {
            let Some(node) = sim.process::<StorageNode>(id) else { continue };
            let Ok(Some(rec)) = node.db().get_record("data", &key) else { continue };
            if let Some((k, seq)) = client::parse_payload(&rec.val) {
                if k == key_idx {
                    best = best.max(seq);
                }
            }
        }
        if best < want_seq {
            lost_writes += 1;
        }
    }

    // ---- determinism signature ------------------------------------------
    let mut sig = 0xcbf2_9ce4_8422_2325u64;
    for e in sim.trace().events() {
        sig = fnv1a(sig, &e.time.0.to_le_bytes());
        sig = fnv1a(sig, &e.node.0.to_le_bytes());
        sig = fnv1a(sig, e.name.as_bytes());
        sig = fnv1a(sig, &e.value.to_bits().to_le_bytes());
    }
    let snap = registry.snapshot();
    for (name, v) in &snap.counters {
        sig = fnv1a(sig, name.as_bytes());
        sig = fnv1a(sig, &v.to_le_bytes());
    }
    for (name, v) in &snap.gauges {
        sig = fnv1a(sig, name.as_bytes());
        sig = fnv1a(sig, &v.to_le_bytes());
    }

    let mut counters = BTreeMap::new();
    for name in [
        "fault.crashes",
        "fault.restarts",
        "fault.disk.degraded",
        "partition.cuts",
        "partition.heals",
        "hint.stored",
        "hint.handoffs",
        "hint.replayed",
        "retry.exhausted",
        "node.restarts",
        "quorum.write.ok",
        "quorum.write.failed",
        "quorum.read.ok",
        "quorum.read.failed",
        "sync.rounds",
        "sync.digest_entries",
        "sync.resurrections_blocked",
        "migrate.records_sent",
        "migrate.arcs_cutover",
    ] {
        counters.insert(name.to_string(), snap.counters.get(name).copied().unwrap_or(0));
    }

    CellResult {
        name: spec.name.clone(),
        client_errors: errors,
        puts_ok,
        gets_ok,
        retries,
        acked_keys: acked.len() as u64,
        lost_writes,
        client_done: done,
        trace_events: sim.trace().events().len(),
        signature: sig,
        counters,
    }
}
