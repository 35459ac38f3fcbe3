//! Scenario-matrix integration tests: replay determinism at scale and the
//! global chaos invariants on small cells (the full sweep lives in the
//! `matrix` bench binary; these are the CI-sized guarantees).

use mystore_core::prelude::Nwr;
use mystore_workload::{run_cell, CellSpec, FaultProfile, KeyDist};

const SEC: u64 = 1_000_000;

/// The determinism satellite: the same seeded 100-node chaos cell, run
/// twice, must replay bit-identically — same trace fold, same metrics,
/// same client outcome. Any nondeterminism in the sim, the fault
/// schedule, or the storage stack shows up here as a signature mismatch.
#[test]
fn hundred_node_cell_replays_bit_identically() {
    let spec = CellSpec::new(100, Nwr::PAPER, FaultProfile::Mixed, KeyDist::Zipf, 3600 * SEC, 2026);
    let a = run_cell(&spec);
    let b = run_cell(&spec);
    assert_eq!(a, b, "same spec must replay to an identical CellResult");
    // And the cell must actually have done something worth replaying.
    assert!(a.puts_ok > 0, "cell acknowledged no writes");
    assert!(a.trace_events > 0, "cell recorded no trace events");
    assert!(
        a.counters.get("fault.crashes").copied().unwrap_or(0) > 0,
        "mixed profile scheduled no crashes"
    );
}

/// Different seeds must diverge — otherwise the signature is a constant
/// and the determinism check above proves nothing.
#[test]
fn different_seeds_produce_different_signatures() {
    let mk = |seed| {
        CellSpec::new(25, Nwr::PAPER, FaultProfile::Kill, KeyDist::Uniform, 1800 * SEC, seed)
    };
    let a = run_cell(&mk(1));
    let b = run_cell(&mk(2));
    assert_ne!(a.signature, b.signature);
}

/// A small kill cell meets the matrix's global invariants: no client
/// errors, no acked-write loss, and the client finishes inside the
/// horizon.
#[test]
fn kill_cell_meets_global_invariants() {
    let spec = CellSpec::new(25, Nwr::PAPER, FaultProfile::Kill, KeyDist::Uniform, 3600 * SEC, 7);
    let r = run_cell(&spec);
    assert_eq!(r.client_errors, 0, "client errors in {}", r.name);
    assert_eq!(r.lost_writes, 0, "acked writes lost in {}", r.name);
    assert!(r.client_done, "client did not finish in {}", r.name);
    assert!(r.puts_ok > 0);
    assert!(r.counters.get("fault.crashes").copied().unwrap_or(0) > 0);
}

/// The elasticity cell (DESIGN.md §16): heterogeneous capacity weights
/// under the Kill profile, whose 30–120 s outages exceed the matrix's 50 s
/// failure detector — so every long outage is a genuine ring leave/re-join
/// that the migration engine must drain under its per-tick budget while
/// the Merkle anti-entropy rounds (DESIGN.md §14) keep running beside it.
/// The global invariants must hold (no client errors, no acked-write
/// loss), the cell must replay bit-identically, the engine must
/// demonstrably have moved records and cut arcs over, and anti-entropy
/// must demonstrably have run.
#[test]
fn elastic_weighted_cell_migrates_without_loss() {
    let mut spec = CellSpec::new(25, Nwr::PAPER, FaultProfile::Kill, KeyDist::Zipf, 3600 * SEC, 23);
    spec.weights = (0..25).map(|i| 1 + (i % 3) as u32).collect();
    spec.name.push_str("-elastic");
    let a = run_cell(&spec);
    let b = run_cell(&spec);
    assert_eq!(a, b, "elastic cell must replay to an identical CellResult");
    assert_eq!(a.client_errors, 0, "client errors in {}", a.name);
    assert_eq!(a.lost_writes, 0, "acked writes lost in {}", a.name);
    assert!(a.client_done, "client did not finish in {}", a.name);
    assert!(a.puts_ok > 0);
    assert!(a.counters.get("fault.crashes").copied().unwrap_or(0) > 0);
    assert!(
        a.counters.get("migrate.records_sent").copied().unwrap_or(0) > 0,
        "the migration engine never shipped a record"
    );
    assert!(
        a.counters.get("sync.rounds").copied().unwrap_or(0) > 0,
        "anti-entropy rounds never ran"
    );
    assert!(
        a.counters.get("migrate.arcs_cutover").copied().unwrap_or(0) > 0,
        "no arc was ever cut over"
    );
}

/// The slow-fsync profile actually degrades disks (the `slow-fsync` fault
/// satellite) and the group commit still upholds the invariants under the
/// added latency. The matrix client keeps one operation in flight, so
/// little work queues at a node; the penalty on a multi-frame sync is
/// covered by the core chaos test
/// `slow_disk_penalty_is_charged_once_per_commit`.
#[test]
fn slow_fsync_cell_degrades_disks_without_loss() {
    let spec =
        CellSpec::new(25, Nwr::PAPER, FaultProfile::SlowFsync, KeyDist::Hotspot, 3600 * SEC, 11);
    let r = run_cell(&spec);
    assert_eq!(r.client_errors, 0, "client errors in {}", r.name);
    assert_eq!(r.lost_writes, 0, "acked writes lost in {}", r.name);
    assert!(r.client_done, "client did not finish in {}", r.name);
    assert!(
        r.counters.get("fault.disk.degraded").copied().unwrap_or(0) > 0,
        "no disk was ever degraded — the slow-fsync schedule is inert"
    );
}
