//! `BENCH_PR7` — the scenario-matrix chaos sweep (DESIGN.md §13).
//!
//! Sweeps fault profile × key distribution × (N, W, R) over seeded
//! simulated rings and asserts the matrix's global invariants in every
//! cell:
//!
//! * **zero client errors** — every operation succeeded within its retry
//!   budget,
//! * **no acked-write loss** — after the schedule heals and the cell
//!   settles, some replica holds every key's last acknowledged write.
//!
//! The headline cell — 100 nodes under the mixed chaos profile for
//! 7×24 h of virtual time — must additionally finish in **under 60 s of
//! wall clock**. That bar is what the idle-clock work buys: the sim
//! fast-forwards a drained queue (the `run_until` fix) and the periodic
//! timers back off while the ring is quiet (gossip + anti-entropy idle
//! backoff, demand-armed WAL flush), so a week of mostly-quiescent
//! virtual time costs seconds, not minutes.
//!
//! Regenerate with:
//!
//! ```text
//! cargo run --release -p mystore-bench --bin matrix
//! ```
//!
//! `--smoke` runs a single 25-node, 1-virtual-hour kill cell for CI
//! (writes `BENCH_PR7_SMOKE.json`; same invariant assertions, no
//! wall-clock bar).

use std::time::Instant;

use mystore_bench::report::Figure;
use mystore_core::prelude::Nwr;
use mystore_workload::{run_cell, CellResult, CellSpec, FaultProfile, KeyDist};

const SEC: u64 = 1_000_000;
const HOUR: u64 = 3600 * SEC;

/// The matrix's global invariants — hard assertions in every cell.
fn check_invariants(r: &CellResult) {
    assert_eq!(r.client_errors, 0, "{}: client errors", r.name);
    assert_eq!(r.lost_writes, 0, "{}: acked writes lost", r.name);
    assert!(r.client_done, "{}: client did not finish inside the horizon", r.name);
}

/// Runs one cell, asserts its invariants, appends its row. Returns the
/// wall-clock seconds the cell took.
fn run_one(fig: &mut Figure, spec: &CellSpec) -> f64 {
    let t0 = Instant::now();
    let r = run_cell(spec);
    let wall = t0.elapsed().as_secs_f64();
    check_invariants(&r);
    let ctr = |name: &str| r.counters.get(name).copied().unwrap_or(0);
    fig.row(vec![
        r.name.clone(),
        spec.nodes.to_string(),
        format!("{}/{}/{}", spec.nwr.n, spec.nwr.w, spec.nwr.r),
        format!("{:.0}", spec.horizon_us as f64 / HOUR as f64),
        r.puts_ok.to_string(),
        r.gets_ok.to_string(),
        r.retries.to_string(),
        r.client_errors.to_string(),
        r.lost_writes.to_string(),
        ctr("fault.crashes").to_string(),
        ctr("partition.cuts").to_string(),
        ctr("fault.disk.degraded").to_string(),
        ctr("hint.replayed").to_string(),
        r.trace_events.to_string(),
        format!("{:016x}", r.signature),
        format!("{wall:.2}"),
    ]);
    println!(
        "  {} ok: {} puts, {} gets, {} retries, {:.2}s wall",
        r.name, r.puts_ok, r.gets_ok, r.retries, wall
    );
    wall
}

const HEADERS: &[&str] = &[
    "cell",
    "nodes",
    "n/w/r",
    "hours",
    "puts",
    "gets",
    "retries",
    "errors",
    "lost",
    "crashes",
    "cuts",
    "slow-disk",
    "hints-replayed",
    "trace-events",
    "signature",
    "wall-s",
];

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    if smoke {
        let mut fig = Figure::new(
            "BENCH_PR7_SMOKE",
            "Scenario-matrix smoke: 25-node kill cell, 1 virtual hour",
            HEADERS,
        );
        fig.note("asserted per cell: 0 client errors, 0 acked-write loss, client finished");
        let spec = CellSpec::new(25, Nwr::PAPER, FaultProfile::Kill, KeyDist::Uniform, HOUR, 7);
        run_one(&mut fig, &spec);
        fig.finish().expect("write results JSON");
        return;
    }

    let mut fig = Figure::new(
        "BENCH_PR7",
        "Scenario matrix: fault profile × key distribution × (N,W,R) chaos sweep",
        HEADERS,
    );
    fig.note("asserted per cell: 0 client errors, 0 acked-write loss, client finished");
    fig.note("headline cell (100 nodes, 7x24h virtual, mixed faults) must run < 60s wall");
    fig.note("signature = FNV-1a fold of the full trace + metrics (replay determinism)");

    // Profile × distribution sweep: 50-node rings, 6 virtual hours each,
    // the paper's N/W/R.
    for profile in
        [FaultProfile::Kill, FaultProfile::Partition, FaultProfile::Flap, FaultProfile::SlowFsync]
    {
        for dist in [KeyDist::Uniform, KeyDist::Zipf, KeyDist::Hotspot] {
            let spec = CellSpec::new(50, Nwr::PAPER, profile, dist, 6 * HOUR, 7);
            run_one(&mut fig, &spec);
        }
    }

    // Quorum-parameter variants under the mixed profile: stricter write
    // quorum, read-your-writes overlap, and a wider replica set.
    for (nwr, seed) in [
        (Nwr { n: 3, w: 3, r: 1 }, 11),
        (Nwr { n: 3, w: 2, r: 2 }, 13),
        (Nwr { n: 5, w: 3, r: 2 }, 17),
    ] {
        let spec = CellSpec::new(50, nwr, FaultProfile::Mixed, KeyDist::Zipf, 6 * HOUR, seed);
        run_one(&mut fig, &spec);
    }

    // Online elasticity under chaos (DESIGN.md §16): heterogeneous
    // capacity weights, so the migration engine drains every kill-induced
    // ring leave/re-join across unequal ring shares.
    let mut elastic =
        CellSpec::new(50, Nwr::PAPER, FaultProfile::Kill, KeyDist::Zipf, 6 * HOUR, 23);
    elastic.weights = (0..50).map(|i| 1 + (i % 3) as u32).collect();
    elastic.name.push_str("-elastic");
    run_one(&mut fig, &elastic);

    // The headline acceptance cell: a week of virtual chaos on 100 nodes.
    let headline =
        CellSpec::new(100, Nwr::PAPER, FaultProfile::Mixed, KeyDist::Zipf, 7 * 24 * HOUR, 71);
    let wall = run_one(&mut fig, &headline);
    assert!(
        wall < 60.0,
        "headline 100-node 7x24h cell took {wall:.1}s wall — the idle-clock \
         fast-forward contract requires < 60s"
    );
    fig.note(format!("headline cell wall clock: {wall:.2}s (bar: 60s)"));

    fig.finish().expect("write results JSON");
}
