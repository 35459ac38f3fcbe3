//! Fig. 16 — Put performance of MyStore with no-fault and with fault.
//!
//! Paper: the same put load is driven through the storage module twice,
//! once clean and once with the Table 2 fault plan injected; the successful
//! hits per second are lower under faults "because failure handling takes
//! some time", but the system keeps completing writes.

use std::sync::Arc;

use mystore_bench::report::{fmt, Figure};
use mystore_core::message::Msg as CoreMsg;
use mystore_core::prelude::*;
use mystore_net::{FaultPlan, NetConfig, NodeConfig, Rng, SimConfig, SimTime};
use mystore_workload::{rate_per_sec, storage_corpus, Item, PutClient, PutClientConfig};

/// Runs the put load; returns (per-second success series, stored, gave_up,
/// elapsed_s, handoffs).
fn run(faults: FaultPlan, items: &Arc<Vec<Item>>, seed: u64) -> (Vec<f64>, u64, u64, f64, u64) {
    let spec = ClusterSpec::small(5);
    let (mut sim, metrics) =
        spec.build_sim_with_metrics(SimConfig { net: NetConfig::gigabit_lan(), faults, seed });
    // Table 2 probabilities are per operation; each user Put fans out into
    // ~N replica-level operations, which is where the faults land (the
    // caller scales the plan by 1/N so the per-user-operation rates match
    // Table 2). Repair traffic (req == 0) is not an "operation".
    sim.set_fault_filter(|m: &CoreMsg| match m {
        CoreMsg::StoreReplica { req, .. } => *req != 0,
        CoreMsg::FetchReplica { .. } | CoreMsg::StoreHint { .. } => true,
        _ => false,
    });
    let chunk = items.len() / 4;
    let mut loaders = Vec::new();
    for part in 0..4 {
        let slice: Vec<_> = items[part * chunk..((part + 1) * chunk).min(items.len())].to_vec();
        loaders.push(sim.add_node(
            PutClient::new(PutClientConfig {
                targets: spec.storage_ids(),
                items: Arc::new(slice),
                gap_us: 10_000,
                attempt_deadline_us: 800_000,
                max_attempts: 6,
            }),
            NodeConfig::default(),
        ));
    }
    sim.start();
    sim.run_for(spec.warmup_us());
    let t0 = sim.now();

    // Drive to completion; play the operator for long failures: a broken-
    // down node is noticed and restarted after ~8 s (§5.2.4 long failures
    // need external action; a 7×24 deployment has monitoring).
    let cap = SimTime::from_secs(3600);
    let mut restart_at: Vec<Option<SimTime>> = vec![None; spec.storage_nodes];
    loop {
        sim.run_for(2_000_000);
        for id in spec.storage_ids() {
            let slot = &mut restart_at[id.0 as usize];
            if !sim.is_up(id) {
                match *slot {
                    None => *slot = Some(sim.now() + 8_000_000),
                    Some(at) if sim.now() >= at => {
                        sim.schedule_restart(sim.now() + 1, id);
                        *slot = None;
                    }
                    _ => {}
                }
            } else {
                *slot = None;
            }
        }
        let done = loaders
            .iter()
            .all(|&l| sim.process::<PutClient>(l).map(|c| c.finished()).unwrap_or(false));
        if done || sim.now() >= cap {
            break;
        }
    }

    let elapsed_s = (sim.now() - t0) as f64 / 1e6;
    let series: Vec<f64> = (0..elapsed_s.ceil() as u64)
        .map(|s| {
            rate_per_sec(
                sim.trace(),
                "client_put_ok",
                SimTime(t0.as_micros() + s * 1_000_000),
                SimTime(t0.as_micros() + (s + 1) * 1_000_000),
            )
        })
        .collect();
    let stored: u64 = loaders.iter().map(|&l| sim.process::<PutClient>(l).unwrap().stored).sum();
    let gave_up: u64 = loaders.iter().map(|&l| sim.process::<PutClient>(l).unwrap().gave_up).sum();
    let handoffs = metrics.counter("hint.handoffs").get();
    (series, stored, gave_up, elapsed_s, handoffs)
}

fn main() {
    let mut rng = Rng::new(1601);
    // 4000 puts, sizes scaled 1:100 (180 B – 76 KB).
    let items = Arc::new(storage_corpus(4_000, 100, &mut rng));

    let mut fig = Figure::new(
        "fig16",
        "successful Puts per second: no-fault vs fault (Table 2)",
        &["run", "mean_puts_per_s", "p95_puts_per_s", "stored", "gave_up", "elapsed_s", "handoffs"],
    );
    fig.note("4000 puts over 4 loaders, gap 10 ms; fault run uses Table 2 per-operation plan (scaled per replica op)");
    fig.note("paper: the fault run is visibly lower because failure handling takes time");

    // Scale the per-operation plan down by N=3: faults are sampled per
    // replica-level op and each user op fans into three.
    let mut per_replica = FaultPlan::paper_table2();
    per_replica.p_network /= 3.0;
    per_replica.p_disk /= 3.0;
    per_replica.p_block /= 3.0;
    per_replica.p_breakdown /= 3.0;
    for (label, faults, seed) in [("no-fault", FaultPlan::none(), 160), ("fault", per_replica, 161)]
    {
        let (series, stored, gave_up, elapsed, handoffs) = run(faults, &items, seed);
        let mut sorted = series.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mean = series.iter().sum::<f64>() / series.len().max(1) as f64;
        let p95 = sorted
            .get(sorted.len().saturating_sub(1).min(sorted.len() * 95 / 100))
            .copied()
            .unwrap_or(0.0);
        fig.row(vec![
            label.to_string(),
            fmt(mean),
            fmt(p95),
            stored.to_string(),
            gave_up.to_string(),
            fmt(elapsed),
            handoffs.to_string(),
        ]);
        // Persist the full per-second series for plotting.
        let _ = mystore_bench::report::save_json(
            &format!("fig16_series_{label}"),
            &serde_json::json!({ "per_second_success": series }),
        );
    }
    fig.finish().expect("write results");
}
