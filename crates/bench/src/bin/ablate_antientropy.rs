//! Ablation A7 — anti-entropy convergence (extension).
//!
//! Plants divergent replicas (one fresh, one stale, one missing per key)
//! and measures how many keys remain divergent over time, for several
//! anti-entropy intervals. Without anti-entropy, divergence persists until
//! a read happens to repair it; with it, divergence decays to zero at a
//! rate set by the sync interval.

use mystore_bench::report::Figure;
use mystore_bson::ObjectId;
use mystore_core::prelude::*;
use mystore_core::StorageNode as Node;
use mystore_engine::{pack_version, Record};
use mystore_net::{FaultPlan, NetConfig, NodeConfig, NodeId, Sim, SimConfig};

const KEYS: usize = 200;

fn run(interval_us: u64) -> Vec<(u64, usize)> {
    let spec = ClusterSpec::small(5);
    let mut sim = Sim::new(SimConfig {
        net: NetConfig::gigabit_lan(),
        faults: FaultPlan::none(),
        seed: 7007,
    });
    for i in 0..spec.storage_nodes as u32 {
        let mut cfg = spec.storage_config();
        cfg.anti_entropy_interval_us = interval_us;
        sim.add_node(Node::new(NodeId(i), cfg), NodeConfig { concurrency: 4 });
    }
    sim.start();
    sim.run_for(spec.warmup_us());

    let ring = sim.process::<Node>(NodeId(0)).unwrap().ring().clone();
    let mut keys = Vec::new();
    for i in 0..KEYS {
        let key = format!("ae-{i}");
        let prefs = ring.preference_list(key.as_bytes(), 3);
        let fresh = Record::new(
            ObjectId::from_parts(1, 7, i as u32),
            key.clone(),
            vec![2; 64],
            pack_version(2_000 + i as u64, 0),
        );
        let stale = Record::new(
            ObjectId::from_parts(1, 8, i as u32),
            key.clone(),
            vec![1; 64],
            pack_version(1_000 + i as u64, 0),
        );
        sim.process_mut::<Node>(prefs[0]).unwrap().preload_record(&fresh);
        sim.process_mut::<Node>(prefs[1]).unwrap().preload_record(&stale);
        keys.push(key);
    }

    let divergent = |sim: &Sim<Msg>| {
        keys.iter()
            .filter(|key| {
                let prefs = ring.preference_list(key.as_bytes(), 3);
                let versions: Vec<Option<u64>> = prefs
                    .iter()
                    .map(|&n| {
                        sim.process::<Node>(n)
                            .unwrap()
                            .db()
                            .get_record("data", key)
                            .ok()
                            .flatten()
                            .map(|r| r.version)
                    })
                    .collect();
                let newest = versions.iter().flatten().max().copied();
                versions.iter().any(|v| *v != newest)
            })
            .count()
    };

    let mut series = Vec::new();
    for step in 0..=8u64 {
        series.push((step * 5, divergent(&sim)));
        if step < 8 {
            sim.run_for(5_000_000);
        }
    }
    series
}

fn main() {
    let mut fig = Figure::new(
        "ablate_antientropy",
        "A7: divergent keys over time vs anti-entropy interval (200 planted divergences)",
        &["t_seconds", "off", "interval_10s", "interval_5s", "interval_2s"],
    );
    fig.note("each key: one fresh, one stale, one missing replica; no reads issued");
    let off = run(0);
    let s10 = run(10_000_000);
    let s5 = run(5_000_000);
    let s2 = run(2_000_000);
    for i in 0..off.len() {
        fig.row(vec![
            off[i].0.to_string(),
            off[i].1.to_string(),
            s10[i].1.to_string(),
            s5[i].1.to_string(),
            s2[i].1.to_string(),
        ]);
    }
    fig.finish().expect("write results");
    assert_eq!(off.last().unwrap().1, KEYS, "no repair without anti-entropy or reads");
    assert_eq!(s2.last().unwrap().1, 0, "2 s interval must converge within 40 s");
}
