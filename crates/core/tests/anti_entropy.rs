//! Anti-entropy: replica divergence is repaired by the periodic digest
//! exchange alone — no reads, no writes, no failures needed.

use mystore_bson::ObjectId;
use mystore_core::prelude::*;
use mystore_core::StorageNode as Node;
use mystore_engine::{pack_version, Record};
use mystore_net::{FaultPlan, NetConfig, NodeConfig, NodeId, Sim, SimConfig};

fn build(interval_us: u64) -> (Sim<Msg>, ClusterSpec) {
    let spec = ClusterSpec::small(5);
    let mut sim =
        Sim::new(SimConfig { net: NetConfig::gigabit_lan(), faults: FaultPlan::none(), seed: 77 });
    for i in 0..spec.storage_nodes as u32 {
        let mut cfg = spec.storage_config();
        cfg.anti_entropy_interval_us = interval_us;
        sim.add_node(Node::new(NodeId(i), cfg), NodeConfig { concurrency: 4 });
    }
    sim.start();
    (sim, spec)
}

/// Plants `count` records where one replica is stale and one is missing.
fn plant_divergence(sim: &mut Sim<Msg>, count: usize) -> Vec<String> {
    let ring = sim.process::<Node>(NodeId(0)).unwrap().ring().clone();
    let mut keys = Vec::new();
    for i in 0..count {
        let key = format!("ae-{i}");
        let prefs = ring.preference_list(key.as_bytes(), 3);
        let fresh = Record::new(
            ObjectId::from_parts(1, 7, i as u32),
            key.clone(),
            format!("v2-{i}").into_bytes(),
            pack_version(2_000 + i as u64, 0),
        );
        let stale = Record::new(
            ObjectId::from_parts(1, 8, i as u32),
            key.clone(),
            format!("v1-{i}").into_bytes(),
            pack_version(1_000 + i as u64, 0),
        );
        // prefs[0] fresh, prefs[1] stale, prefs[2] missing entirely.
        sim.process_mut::<Node>(prefs[0]).unwrap().preload_record(&fresh);
        sim.process_mut::<Node>(prefs[1]).unwrap().preload_record(&stale);
        keys.push(key);
    }
    keys
}

fn divergent_keys(sim: &Sim<Msg>, spec: &ClusterSpec, keys: &[String]) -> usize {
    let ring = sim.process::<Node>(NodeId(0)).unwrap().ring().clone();
    let _ = spec;
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
}

#[test]
fn divergent_replicas_converge_without_reads() {
    let (mut sim, spec) = build(2_000_000);
    sim.run_for(spec.warmup_us());
    let keys = plant_divergence(&mut sim, 50);
    assert_eq!(divergent_keys(&sim, &spec, &keys), 50, "divergence planted");

    // Several anti-entropy rounds later everything agrees on the newest
    // version — no client traffic at all.
    sim.run_for(30_000_000);
    assert_eq!(divergent_keys(&sim, &spec, &keys), 0, "anti-entropy must converge");
    assert!(sim.trace().count("anti_entropy_repair") >= 50);
    // The winner is the *newest* version everywhere.
    let ring = sim.process::<Node>(NodeId(0)).unwrap().ring().clone();
    for key in &keys {
        for n in ring.preference_list(key.as_bytes(), 3) {
            let rec = sim
                .process::<Node>(n)
                .unwrap()
                .db()
                .get_record("data", key)
                .unwrap()
                .expect("copy present");
            assert!(rec.val.starts_with(b"v2-"), "stale value survived on {n}");
        }
    }
}

/// Regression (resurrection-after-reap): a key deleted everywhere, whose
/// tombstones were physically reaped on some replicas while one replica
/// still held a stale *live* copy, must stay deleted. The pre-fix
/// missing-key arm of `on_sync_digest` pulled any key it had no copy of —
/// including keys it had deliberately reaped — so the stale live copy
/// resurrected the delete on every sync round.
#[test]
fn reaped_deletes_are_not_resurrected_by_sync() {
    let spec = ClusterSpec::small(5);
    let registry = mystore_obs::Registry::new();
    let mut sim =
        Sim::new(SimConfig { net: NetConfig::gigabit_lan(), faults: FaultPlan::none(), seed: 31 });
    for i in 0..spec.storage_nodes as u32 {
        let mut cfg = spec.storage_config();
        // Reap quickly, sync late: the tombstones must be gone before the
        // first anti-entropy round ever sees the key.
        cfg.compaction_interval_us = 5_000_000;
        cfg.tombstone_grace_us = 10_000_000;
        cfg.anti_entropy_interval_us = 100_000_000;
        cfg.metrics = registry.clone();
        sim.add_node(Node::new(NodeId(i), cfg), NodeConfig { concurrency: 4 });
    }
    sim.start();
    sim.run_for(spec.warmup_us());

    let ring = sim.process::<Node>(NodeId(0)).unwrap().ring().clone();
    let prefs = ring.preference_list(b"ghost", 3);
    // prefs[2] missed the delete and still holds the original live write;
    // prefs[0] and prefs[1] hold the (newer) tombstone.
    let live = Record::new(
        ObjectId::from_parts(1, 11, 0),
        "ghost".to_string(),
        b"undead".to_vec(),
        pack_version(1_000_000, 0),
    );
    let mut tomb = Record::new(
        ObjectId::from_parts(1, 12, 0),
        "ghost".to_string(),
        Vec::new(),
        pack_version(2_000_000, 0),
    );
    tomb.is_del = true;
    sim.process_mut::<Node>(prefs[2]).unwrap().preload_record(&live);
    sim.process_mut::<Node>(prefs[0]).unwrap().preload_record(&tomb);
    sim.process_mut::<Node>(prefs[1]).unwrap().preload_record(&tomb);

    // Past the grace period: the tombstones are physically reclaimed.
    sim.run_for(20_000_000);
    for &n in &prefs[..2] {
        let node = sim.process::<Node>(n).unwrap();
        assert!(node.db().get_record("data", "ghost").unwrap().is_none(), "tombstone not reaped");
        assert!(node.reap_floor() > 0, "reap must raise the floor on {n}");
    }

    // Several sync rounds with the stale live holder. The reaped replicas
    // must refuse to pull the pre-reap version back.
    sim.run_for(300_000_000);
    for &n in &prefs[..2] {
        let rec = sim.process::<Node>(n).unwrap().db().get_record("data", "ghost").unwrap();
        assert!(rec.is_none(), "reaped delete resurrected on {n}: {rec:?}");
    }
    assert!(
        registry.counter("sync.resurrections_blocked").get() >= 1,
        "the guard must have rejected the stale offer"
    );
}

#[test]
fn disabled_anti_entropy_leaves_divergence() {
    let (mut sim, spec) = build(0);
    sim.run_for(spec.warmup_us());
    let keys = plant_divergence(&mut sim, 20);
    sim.run_for(30_000_000);
    assert_eq!(
        divergent_keys(&sim, &spec, &keys),
        20,
        "without anti-entropy (and without reads) divergence persists"
    );
}
