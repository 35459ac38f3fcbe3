//! Fig. 17 — Put performance comparison with master/slave MongoDB.
//!
//! The paper sorts all 10 000 Put operations by consuming time, samples
//! every 100th, and plots the cumulative count completed within a given
//! time for three situations: MyStore no-fault, MyStore with fault, and
//! master/slave MongoDB with fault. Shape to reproduce: MyStore-no-fault
//! dominates; MyStore-fault completes more operations within any given time
//! than master/slave MongoDB under the same faults (quorums + hinted
//! handoff beat a single write master that stalls whenever it fails).

use std::sync::Arc;

use mystore_baselines::add_msmongo_trio;
use mystore_bench::report::{fmt, Figure};
use mystore_core::message::Msg as CoreMsg;
use mystore_core::prelude::*;
use mystore_net::{FaultPlan, NetConfig, NodeConfig, NodeId, Rng, Sim, SimConfig, SimTime};
use mystore_workload::{cumulative_curve, storage_corpus, Item, PutClient, PutClientConfig};

const PUTS: usize = 10_000;

fn per_replica_table2() -> FaultPlan {
    // Faults are sampled per replica-level op; scale by N=3 so the
    // per-user-operation rates equal Table 2 (same convention as fig16).
    let mut plan = FaultPlan::paper_table2();
    plan.p_network /= 3.0;
    plan.p_disk /= 3.0;
    plan.p_block /= 3.0;
    plan.p_breakdown /= 3.0;
    plan
}

struct RunOutcome {
    times_us: Vec<f64>,
    stored: u64,
    gave_up: u64,
}

/// Drives `items` through either MyStore (5 nodes) or master/slave MongoDB
/// (3 nodes, writes only at the master), with an 8 s operator restoring
/// broken-down nodes in both systems.
fn run(mystore: bool, faults: FaultPlan, items: &Arc<Vec<Item>>, seed: u64) -> RunOutcome {
    let sim_config = SimConfig { net: NetConfig::gigabit_lan(), faults, seed };
    let (mut sim, targets, node_count, warmup) = if mystore {
        let spec = ClusterSpec::small(5);
        let sim = spec.build_sim(sim_config);
        let targets = spec.storage_ids();
        (sim, targets, 5, spec.warmup_us())
    } else {
        let mut sim = Sim::new(sim_config);
        let (master, _slaves) = add_msmongo_trio(&mut sim, 8);
        // No failover: every write goes at the master ("retry" hits the
        // master again — there is nowhere else to write).
        (sim, vec![master], 3, 0)
    };
    sim.set_fault_filter(move |m: &CoreMsg| match m {
        CoreMsg::StoreReplica { req, .. } => *req != 0,
        CoreMsg::FetchReplica { .. } | CoreMsg::StoreHint { .. } => true,
        // Master/slave MongoDB has no replica fan-out messages from the
        // client's Put; the Put itself is the operation there.
        CoreMsg::Put { .. } => !mystore,
        _ => false,
    });

    let chunk = items.len() / 4;
    let mut loaders = Vec::new();
    for part in 0..4 {
        let slice: Vec<_> = items[part * chunk..((part + 1) * chunk).min(items.len())].to_vec();
        loaders.push(sim.add_node(
            PutClient::new(PutClientConfig {
                targets: targets.clone(),
                items: Arc::new(slice),
                gap_us: 10_000,
                attempt_deadline_us: 800_000,
                max_attempts: 6,
            }),
            NodeConfig::default(),
        ));
    }
    sim.start();
    if warmup > 0 {
        sim.run_for(warmup);
    }

    let cap = SimTime::from_secs(3600);
    let mut restart_at: Vec<Option<SimTime>> = vec![None; node_count];
    loop {
        sim.run_for(2_000_000);
        for id in 0..node_count as u32 {
            let id = NodeId(id);
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
    RunOutcome {
        times_us: sim.trace().values("put_time_us"),
        stored: loaders.iter().map(|&l| sim.process::<PutClient>(l).unwrap().stored).sum(),
        gave_up: loaders.iter().map(|&l| sim.process::<PutClient>(l).unwrap().gave_up).sum(),
    }
}

fn main() {
    let mut rng = Rng::new(1701);
    let items = Arc::new(storage_corpus(PUTS, 100, &mut rng));

    let mut fig = Figure::new(
        "fig17",
        "cumulative Puts completed within a consuming time (sorted, sampled per 100 ops)",
        &["run", "stored", "gave_up", "p50_ms", "p90_ms", "p99_ms", "max_ms"],
    );
    fig.note(format!("{PUTS} puts, sizes 18-7633 KB / 100, Gaussian-selected (µ=15 σ=5)"));
    fig.note(
        "paper: within any given time, MyStore-fault completes more puts than ms-MongoDB-fault",
    );

    let runs = [
        ("MyStore no-fault", true, FaultPlan::none(), 170),
        ("MyStore fault", true, per_replica_table2(), 171),
        ("ms-MongoDB fault", false, FaultPlan::paper_table2(), 172),
    ];
    for (label, is_mystore, faults, seed) in runs {
        let out = run(is_mystore, faults, &items, seed);
        let mut sorted = out.times_us.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pct = |p: f64| {
            if sorted.is_empty() {
                0.0
            } else {
                sorted[((p * (sorted.len() - 1) as f64) as usize).min(sorted.len() - 1)] / 1e3
            }
        };
        fig.row(vec![
            label.to_string(),
            out.stored.to_string(),
            out.gave_up.to_string(),
            fmt(pct(0.5)),
            fmt(pct(0.9)),
            fmt(pct(0.99)),
            fmt(sorted.last().copied().unwrap_or(0.0) / 1e3),
        ]);
        // The figure itself: every 100th sorted op, cumulative.
        let curve = cumulative_curve(out.times_us, 100);
        let _ = mystore_bench::report::save_json(
            &format!("fig17_curve_{}", label.replace(' ', "_")),
            &serde_json::json!({
                "points": curve.iter().map(|(t_us, n)| serde_json::json!({
                    "consuming_time_ms": t_us / 1e3,
                    "completed": n,
                })).collect::<Vec<_>>(),
            }),
        );
    }
    fig.finish().expect("write results");
}
