//! Ablation A4 — hinted handoff on/off under short failures.
//!
//! Fig. 8's mechanism is what makes "each writing success" under short
//! failures. This ablation injects a heavy network-exception rate at the
//! replica level and measures raw write availability (one attempt per put,
//! no client retries) with the handoff path enabled and disabled.

use std::sync::Arc;

use mystore_bench::report::{fmt, Figure};
use mystore_core::message::Msg as CoreMsg;
use mystore_core::prelude::*;
use mystore_net::{FaultPlan, NetConfig, NodeConfig, Rng, SimConfig, SimTime};
use mystore_workload::{storage_corpus, PutClient, PutClientConfig};

fn main() {
    let mut rng = Rng::new(4001);
    let items = Arc::new(storage_corpus(2_000, 1000, &mut rng));

    let mut fig = Figure::new(
        "ablate_handoff",
        "A4: write availability under short failures, hinted handoff on vs off",
        &[
            "handoff",
            "stored",
            "gave_up",
            "availability_%",
            "handoffs_sent",
            "put_resends",
            "retries_exhausted",
        ],
    );
    fig.note("2000 puts, one attempt each; network-exception p=0.25 per replica op");
    fig.note(
        "W=2 of N=3: a put fails outright when two replica writes are lost and no fallback exists",
    );

    for handoff in [true, false] {
        let mut spec = ClusterSpec::small(5);
        spec.storage.hinted_handoff = handoff;
        // Generous coordinator deadline so the soft-timeout handoff path has
        // time to gather fallback acks before the request expires.
        spec.storage.request_deadline_us = 600_000;
        let faults = FaultPlan {
            p_network: 0.25,
            p_disk: 0.0,
            p_block: 0.0,
            p_breakdown: 0.0,
            block_range_us: (1, 2),
        };
        let (mut sim, metrics) = spec.build_sim_with_metrics(SimConfig {
            net: NetConfig::gigabit_lan(),
            faults,
            seed: 40 + handoff as u64,
        });
        sim.set_fault_filter(CoreMsg::is_replica_op);
        let loader = sim.add_node(
            PutClient::new(PutClientConfig {
                targets: spec.storage_ids(),
                items: Arc::new(items.as_ref().clone()),
                gap_us: 2_000,
                attempt_deadline_us: 900_000,
                max_attempts: 1, // raw availability, no retry masking
            }),
            NodeConfig::default(),
        );
        sim.start();
        sim.run_for(spec.warmup_us());
        let cap = SimTime::from_secs(3600);
        while sim.now() < cap {
            sim.run_for(5_000_000);
            if sim.process::<PutClient>(loader).unwrap().finished() {
                break;
            }
        }
        let client = sim.process::<PutClient>(loader).unwrap();
        let (stored, gave_up) = (client.stored, client.gave_up);
        let counter = |name: &str| metrics.counter(name).get().to_string();
        fig.row(vec![
            if handoff { "on" } else { "off" }.to_string(),
            stored.to_string(),
            gave_up.to_string(),
            fmt(100.0 * stored as f64 / (stored + gave_up) as f64),
            counter("hint.handoffs"),
            // Replica writes re-sent by the coordinator, and writes whose
            // re-sends all went unanswered: only those need a hint.
            counter("retry.put.resends"),
            counter("retry.exhausted"),
        ]);
    }
    fig.finish().expect("write results");
}
