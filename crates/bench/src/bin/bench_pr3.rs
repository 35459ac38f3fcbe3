//! `BENCH_PR3` — group-commit write path acceptance run.
//!
//! Two sections:
//!
//! 1. **Engine (acceptance)** — an fsync-bound file-WAL micro-benchmark:
//!    the same write stream once with per-op syncs (the pre-PR behaviour)
//!    and once under group commit (64-op batches), measured in the same
//!    process on the same disk. The acceptance bar is ≥ 2× ops/s and
//!    `wal.fsyncs < wal.appends` for the grouped run.
//! 2. **Cluster (informational)** — a write-heavy REST run through the
//!    paper topology with fan-out coalescing + group commit on vs. off,
//!    reporting rps and the `wal.*` / `batch.*` counters.
//!
//! Regenerate with:
//!
//! ```text
//! cargo run --release -p mystore-bench --bin bench_pr3
//! ```
//!
//! `--smoke` runs a tiny op count for CI (writes `BENCH_PR3_SMOKE.json`,
//! skips the ratio assertion — short runs are noisy).

use std::sync::Arc;
use std::time::Instant;

use mystore_bench::harness::{run_rest_comparison, RestRun, SystemKind};
use mystore_bench::report::{fmt, print_table, save_json};
use mystore_bson::ObjectId;
use mystore_core::ClusterSpec;
use mystore_engine::{pack_version, Db, GroupCommitConfig, Record, WalMetrics};
use mystore_net::Rng;
use mystore_obs::Registry;
use mystore_workload::xml_corpus;

/// One timed write stream against a file-backed WAL.
struct EngineRun {
    ops: u64,
    elapsed_us: u64,
    ops_per_s: f64,
    appends: u64,
    fsyncs: u64,
    sync_p50_us: u64,
    batch_ops_mean: f64,
}

fn engine_run(dir: &std::path::Path, n: u64, group: Option<GroupCommitConfig>) -> EngineRun {
    let tag = if group.is_some() { "grouped" } else { "per-op" };
    let path = dir.join(format!("bench-{tag}.wal"));
    let _ = std::fs::remove_file(&path);
    let registry = Registry::new();
    let mut db = Db::open(&path).expect("open bench wal");
    db.set_wal_metrics(WalMetrics::from_registry(&registry));
    db.set_group_commit(group);
    db.create_index("data", "self-key").expect("index");

    let start = Instant::now();
    for i in 0..n {
        let rec = Record::new(
            ObjectId::from_parts(1, 1, i as u32),
            format!("bench-{i:06}"),
            vec![(i % 251) as u8; 128],
            pack_version(i + 1, 0),
        );
        db.put_record("data", &rec).expect("put");
    }
    // The tail of the last batch must be durable before the clock stops.
    db.sync_wal().expect("final sync");
    let elapsed_us = start.elapsed().as_micros() as u64;

    let snap = registry.snapshot();
    let batch = &snap.histograms["wal.batch_ops"];
    let run = EngineRun {
        ops: n,
        elapsed_us,
        ops_per_s: n as f64 / (elapsed_us as f64 / 1e6),
        appends: snap.counters.get("wal.appends").copied().unwrap_or(0),
        fsyncs: snap.counters.get("wal.fsyncs").copied().unwrap_or(0),
        sync_p50_us: snap.histograms["wal.sync_us"].p50,
        batch_ops_mean: batch.mean,
    };
    let _ = std::fs::remove_file(&path);
    run
}

fn engine_json(r: &EngineRun) -> serde_json::Value {
    serde_json::json!({
        "ops": r.ops,
        "elapsed_us": r.elapsed_us,
        "ops_per_s": r.ops_per_s,
        "wal_appends": r.appends,
        "wal_fsyncs": r.fsyncs,
        "sync_p50_us": r.sync_p50_us,
        "batch_ops_mean": r.batch_ops_mean,
    })
}

/// One write-heavy cluster run; returns `(rps, errors, wal/batch counters)`.
fn cluster_run(coalesced: bool, duration_us: u64) -> serde_json::Value {
    let mut rng = Rng::new(31_337);
    let items = Arc::new(xml_corpus(500, 10, &mut rng));
    let mut run = RestRun::new(SystemKind::MyStore, items);
    run.clients = 200;
    run.read_ratio = 0.1; // write-heavy: the WAL is the bottleneck under test
    run.duration_us = duration_us;
    run.seed = 31_337;
    if coalesced {
        let mut spec = ClusterSpec::paper_topology();
        spec.storage.group_commit_ops = 32;
        spec.storage.group_commit_max_delay_us = 2_000;
        spec.storage.coalesce_window_us = 500;
        run.spec = Some(spec);
    }
    let r = run_rest_comparison(&run);
    let snap = r.metrics.as_ref().expect("MyStore runs carry a metrics snapshot");
    let c = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    serde_json::json!({
        "coalesced": coalesced,
        "rps": r.rps,
        "completed": r.completed,
        "errors": r.errors,
        "wal_appends": c("wal.appends"),
        "wal_fsyncs": c("wal.fsyncs"),
        "batch_replica_msgs": c("batch.replica_msgs"),
        "batch_replica_ops": c("batch.replica_ops"),
        "acks_deferred": c("coord.acks_deferred"),
        "write_p99_us": snap.histograms["quorum.write.latency_us"].p99,
    })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (engine_ops, sim_us) = if smoke { (200, 2_000_000) } else { (2_000, 12_000_000) };

    let dir = std::env::temp_dir().join(format!("mystore-bench-pr3-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench dir");

    // --- section 1: fsync-bound engine micro-benchmark --------------------
    let per_op = engine_run(&dir, engine_ops, None);
    let grouped =
        engine_run(&dir, engine_ops, Some(GroupCommitConfig { ops: 64, max_delay_us: 2_000 }));
    let _ = std::fs::remove_dir_all(&dir);
    let speedup = grouped.ops_per_s / per_op.ops_per_s;

    println!("\n=== BENCH_PR3 — group-commit write path ===");
    let headers: Vec<String> =
        ["mode", "ops", "ops/s", "fsyncs", "appends", "sync_p50_us", "batch_mean"]
            .map(String::from)
            .into();
    let row = |label: &str, r: &EngineRun| {
        vec![
            label.into(),
            r.ops.to_string(),
            fmt(r.ops_per_s),
            r.fsyncs.to_string(),
            r.appends.to_string(),
            r.sync_p50_us.to_string(),
            fmt(r.batch_ops_mean),
        ]
    };
    print_table(&headers, &[row("per-op sync", &per_op), row("group commit", &grouped)]);
    println!("  write-throughput speedup: {}x", fmt(speedup));

    // --- section 2: cluster write-heavy run, coalescing off vs. on ---------
    let baseline = cluster_run(false, sim_us);
    let coalesced = cluster_run(true, sim_us);
    let g = |v: &serde_json::Value, k: &str| v[k].as_u64().unwrap_or(0);
    let headers2: Vec<String> =
        ["cluster run", "rps", "errors", "wal.fsyncs", "wal.appends", "batch msgs", "batch ops"]
            .map(String::from)
            .into();
    let row2 = |label: &str, v: &serde_json::Value| {
        vec![
            label.into(),
            fmt(v["rps"].as_f64().unwrap_or(0.0)),
            g(v, "errors").to_string(),
            g(v, "wal_fsyncs").to_string(),
            g(v, "wal_appends").to_string(),
            g(v, "batch_replica_msgs").to_string(),
            g(v, "batch_replica_ops").to_string(),
        ]
    };
    print_table(&headers2, &[row2("baseline", &baseline), row2("coalesced", &coalesced)]);

    let id = if smoke { "BENCH_PR3_SMOKE" } else { "BENCH_PR3" };
    let engine = serde_json::json!({
        "per_op_sync": engine_json(&per_op),
        "group_commit": engine_json(&grouped),
        "speedup": speedup,
    });
    let cluster = serde_json::json!({ "baseline": baseline, "coalesced": coalesced });
    let json = serde_json::json!({
        "id": id,
        "title": "group-commit write path: per-op sync vs batched sync, same run",
        "engine": engine,
        "cluster": cluster,
    });
    save_json(id, &json).expect("write results json");

    // Acceptance gates (full runs only — smoke runs are too short to be
    // statistically meaningful, they just prove the path executes).
    assert!(
        grouped.fsyncs < grouped.appends,
        "group commit must sync less than once per op: {}/{}",
        grouped.fsyncs,
        grouped.appends
    );
    assert_eq!(per_op.fsyncs, per_op.appends, "per-op mode must sync every append");
    if !smoke {
        assert!(
            speedup >= 2.0,
            "group commit must be >= 2x the per-op-sync write throughput, got {speedup:.2}x"
        );
    }
    println!("  acceptance: ok");
}
