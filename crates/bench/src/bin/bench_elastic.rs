//! `BENCH_PR10` — online elasticity: double the cluster under load.
//!
//! A 4-node ring serves a steady closed-loop quorum workload; mid-run,
//! four more nodes (two of them weight-2) join at once and the
//! incremental migration engine (DESIGN.md §16) drains the re-homed
//! records under its per-tick budget while traffic continues. The run
//! reports client throughput and latency per phase — before the join,
//! during the migration window, and after cutover — plus the migration
//! duration, and asserts the elasticity acceptance bar:
//!
//! * **zero client errors** across the whole run, join included,
//! * **no acked-write loss**, and the preloaded corpus fully replicated
//!   on the *new* weighted ring once migration completes,
//! * the transfer was the rate-limited engine's doing (anti-entropy is
//!   off; `migrate.records_sent` must carry the corpus).
//!
//! Regenerate with:
//!
//! ```text
//! cargo run --release -p mystore-bench --bin bench_elastic [seed]
//! ```
//!
//! Both modes run at the default `StorageConfig` migration budgets.
//! `--smoke` runs a smaller corpus for CI (writes
//! `BENCH_PR10_SMOKE.json`; same assertions).

use std::sync::Arc;

use mystore_bench::report::{fmt, Figure};
use mystore_core::prelude::*;
use mystore_net::{FaultPlan, NetConfig, NodeConfig, NodeId, SimConfig, SimTime};
use mystore_ring::HashRing;
use mystore_workload::matrix::client::{key_name, parse_payload};
use mystore_workload::{preload_mystore, Item, KeyDist, MatrixClient, MatrixClientConfig, Summary};

const SEC: u64 = 1_000_000;

struct Params {
    id: &'static str,
    corpus: usize,
    /// Steady-state traffic before the join (µs).
    baseline_us: u64,
    /// Traffic kept running after the join (µs).
    tail_us: u64,
}

fn phase_row(fig: &mut Figure, sim: &mystore_net::Sim<Msg>, name: &str, from: u64, to: u64) {
    let ops = sim.trace().window("matrix_op_us", SimTime(from), SimTime(to));
    let secs = (to.saturating_sub(from)) as f64 / 1e6;
    let lat = Summary::of(ops.iter().map(|e| e.value).collect());
    let (p50, p99) = lat.map(|s| (s.p50 / 1e3, s.p99 / 1e3)).unwrap_or((0.0, 0.0));
    fig.row(vec![
        name.into(),
        fmt(secs),
        ops.len().to_string(),
        fmt(if secs > 0.0 { ops.len() as f64 / secs } else { 0.0 }),
        fmt(p50),
        fmt(p99),
    ]);
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let seed: u64 = std::env::args()
        .skip(1)
        .find(|a| a != "--smoke")
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(42);
    let p = if smoke {
        Params { id: "BENCH_PR10_SMOKE", corpus: 500, baseline_us: 8 * SEC, tail_us: 12 * SEC }
    } else {
        Params { id: "BENCH_PR10", corpus: 4000, baseline_us: 15 * SEC, tail_us: 25 * SEC }
    };

    // 8 storage slots: nodes 0–3 form the initial ring, nodes 4–7 are down
    // from t=0 and join mid-run. Two of the joiners advertise capacity
    // weight 2, so the doubled ring is heterogeneous.
    let old_count = 4usize;
    let weights: Vec<u32> = vec![1, 1, 1, 1, 2, 1, 2, 1];
    let mut spec = ClusterSpec::small(weights.len());
    spec.weights = weights.clone();
    // Every cross-node record transfer in this run must be the migration
    // engine's, so the counters below measure exactly the elasticity path.
    spec.storage.anti_entropy_interval_us = 0;

    let (mut sim, registry) = spec.build_sim_with_metrics(SimConfig {
        net: NetConfig::gigabit_lan(),
        faults: FaultPlan::none(),
        seed,
    });
    let all_ids = spec.storage_ids();
    let old_ids: Vec<NodeId> = all_ids[..old_count].to_vec();
    for &id in &all_ids[old_count..] {
        sim.schedule_crash(SimTime(0), id, None);
    }

    let warm = spec.warmup_us() + 2 * SEC;
    let t_join = warm + p.baseline_us;
    let traffic_end = t_join + p.tail_us;
    let op_gap = 25_000u64; // 40 closed-loop ops/s
    let client_cfg = MatrixClientConfig {
        coordinators: old_ids.clone(),
        keys: 256,
        dist: KeyDist::Zipf,
        read_ratio: 0.5,
        bursts: 1,
        ops_per_burst: (traffic_end - warm) / op_gap,
        burst_every_us: 1,
        op_gap_us: op_gap,
        start_delay_us: warm,
        attempt_deadline_us: 2_500_000,
        max_attempts: 6,
        payload_pad: 64,
    };
    let client_id = sim.add_node(MatrixClient::new(client_cfg), NodeConfig::default());

    sim.start();
    sim.run_for(warm);

    // Bulk corpus on the old ring's own placement — this is what the join
    // re-homes.
    let items: Arc<Vec<Item>> = Arc::new(
        (0..p.corpus).map(|i| Item { key: format!("eb-{i:05}"), size: 1024, class: 0 }).collect(),
    );
    let replicas =
        preload_mystore(&mut sim, &old_ids, spec.storage.vnodes, spec.storage.nwr.n, &items);

    sim.schedule_restart(SimTime(t_join), all_ids[old_count]);
    for &id in &all_ids[old_count + 1..] {
        sim.schedule_restart(SimTime(t_join + 1), id);
    }
    sim.run_for(traffic_end - warm + 15 * SEC);

    // ---- migration outcome ----------------------------------------------
    let mig_end = sim
        .trace()
        .events()
        .iter()
        .filter(|e| e.name == "migration_done" && e.value > 0.0 && e.time.0 >= t_join)
        .map(|e| e.time.0)
        .max()
        .expect("no non-empty migration plan ever completed");
    let snap = registry.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert!(counter("migrate.records_sent") > 0, "the engine shipped nothing");
    assert!(counter("migrate.arcs_cutover") > 0, "no arc was cut over");
    assert_eq!(
        snap.gauges.get("migrate.in_flight").copied().unwrap_or(0),
        0,
        "migration still in flight after the settle phase"
    );
    for &id in &all_ids {
        let ring = sim.process::<StorageNode>(id).expect("storage node").ring();
        assert_eq!(ring.len(), all_ids.len(), "node {id} never saw the doubled ring");
    }

    // The corpus must be fully replicated on the *new* weighted ring: every
    // member of each key's new preference list holds the record.
    let mut new_ring = HashRing::new();
    for (i, &id) in all_ids.iter().enumerate() {
        new_ring
            .add_node(id, format!("node{}", id.0), spec.storage.vnodes * weights[i])
            .expect("unique ids");
    }
    let mut under_replicated = 0usize;
    for item in items.iter() {
        for node in new_ring.preference_list(item.key.as_bytes(), spec.storage.nwr.n) {
            let holder = sim.process::<StorageNode>(node).expect("storage node");
            if !matches!(holder.db().get_record("data", &item.key), Ok(Some(_))) {
                under_replicated += 1;
            }
        }
    }
    assert_eq!(under_replicated, 0, "corpus replicas missing on the doubled ring");

    // ---- client outcome --------------------------------------------------
    let client = sim.process::<MatrixClient>(client_id).expect("client");
    assert_eq!(client.errors, 0, "client-visible errors during the join");
    assert!(client.done, "client did not finish its schedule");
    let mut lost = 0usize;
    for (&key_idx, &want_seq) in &client.acked {
        let key = key_name(key_idx);
        let mut best = 0u64;
        for &id in &all_ids {
            let Some(node) = sim.process::<StorageNode>(id) else { continue };
            let Ok(Some(rec)) = node.db().get_record("data", &key) else { continue };
            if let Some((k, seq)) = parse_payload(&rec.val) {
                if k == key_idx {
                    best = best.max(seq);
                }
            }
        }
        if best < want_seq {
            lost += 1;
        }
    }
    assert_eq!(lost, 0, "acked writes lost across the join");

    // ---- report ----------------------------------------------------------
    let mut fig = Figure::new(
        p.id,
        "Online elasticity: doubling a loaded cluster under the migration engine",
        &["phase", "secs", "ops", "ops/s", "p50 ms", "p99 ms"],
    );
    fig.note(format!(
        "{} nodes -> {} (weights {:?}), seed {seed}, {} corpus records ({} replicas preloaded)",
        old_count,
        all_ids.len(),
        weights,
        p.corpus,
        replicas
    ));
    fig.note(format!(
        "default budgets ({} records, 1024 KiB / {} ms tick); migration drained in {:.2}s \
         ({} record copies shipped, {} arcs cut over)",
        spec.storage.migrate_max_records_per_tick,
        spec.storage.migrate_tick_us / 1000,
        (mig_end - t_join) as f64 / 1e6,
        counter("migrate.records_sent"),
        counter("migrate.arcs_cutover"),
    ));
    fig.note(
        "asserted: 0 client errors, 0 acked-write loss, corpus fully replicated \
         on the new weighted ring, migrate.in_flight drained to 0",
    );
    phase_row(&mut fig, &sim, "steady (4 nodes)", warm, t_join);
    phase_row(&mut fig, &sim, "migrating (8 nodes)", t_join, mig_end);
    phase_row(&mut fig, &sim, "post-cutover", mig_end, traffic_end);
    fig.finish().expect("write results JSON");
    println!(
        "bench_elastic: OK (seed {seed}, migration {:.2}s, {} copies)",
        (mig_end - t_join) as f64 / 1e6,
        counter("migrate.records_sent")
    );
}
