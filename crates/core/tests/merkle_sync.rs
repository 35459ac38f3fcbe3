//! Merkle-tree anti-entropy (DESIGN.md §14): divergence is found by the
//! tree walk and repaired with per-key digests over only the divergent
//! leaves, so digest traffic scales with the divergence, not the corpus.

use mystore_bson::ObjectId;
use mystore_core::prelude::*;
use mystore_core::StorageNode as Node;
use mystore_engine::{pack_version, Record};
use mystore_net::{FaultPlan, NetConfig, NodeConfig, NodeId, Sim, SimConfig};
use mystore_obs::Registry;

const NODES: usize = 5;

fn build(seed: u64, interval_us: u64) -> (Sim<Msg>, ClusterSpec, Registry) {
    let spec = ClusterSpec::small(NODES);
    let registry = Registry::new();
    let mut sim =
        Sim::new(SimConfig { net: NetConfig::gigabit_lan(), faults: FaultPlan::none(), seed });
    for i in 0..spec.storage_nodes as u32 {
        let mut cfg = spec.storage_config();
        cfg.anti_entropy_interval_us = interval_us;
        cfg.metrics = registry.clone();
        sim.add_node(Node::new(NodeId(i), cfg), NodeConfig { concurrency: 4 });
    }
    sim.start();
    (sim, spec, registry)
}

/// Preloads `corpus` identical records on every replica, then freshens
/// `divergent` of them on their first preference only — so the other two
/// replicas are stale and the tree walk has exactly `divergent` keys to
/// find. Returns the divergent keys.
fn preload(sim: &mut Sim<Msg>, corpus: usize, divergent: usize) -> Vec<String> {
    let ring = sim.process::<Node>(NodeId(0)).unwrap().ring().clone();
    let mut fresh_keys = Vec::new();
    for i in 0..corpus {
        let key = format!("mk-{i:05}");
        let rec = Record::new(
            ObjectId::from_parts(1, 9, i as u32),
            key.clone(),
            format!("base-{i}").into_bytes(),
            pack_version(1_000, 0),
        );
        let prefs = ring.preference_list(key.as_bytes(), 3);
        for &n in &prefs {
            sim.process_mut::<Node>(n).unwrap().preload_record(&rec);
        }
        if i % (corpus / divergent) == 0 && fresh_keys.len() < divergent {
            let fresh = Record::new(
                ObjectId::from_parts(1, 10, i as u32),
                key.clone(),
                format!("fresh-{i}").into_bytes(),
                pack_version(2_000, 0),
            );
            sim.process_mut::<Node>(prefs[0]).unwrap().preload_record(&fresh);
            fresh_keys.push(key);
        }
    }
    fresh_keys
}

/// Keys whose replicas do not all hold the newest version.
fn divergent_keys(sim: &Sim<Msg>, keys: &[String]) -> usize {
    let ring = sim.process::<Node>(NodeId(0)).unwrap().ring().clone();
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
fn merkle_sync_converges_with_digests_proportional_to_divergence() {
    let (mut sim, spec, registry) = build(101, 2_000_000);
    sim.run_for(spec.warmup_us());
    let corpus = 4_000;
    let keys = preload(&mut sim, corpus, 16);
    assert_eq!(keys.len(), 16);
    assert_eq!(divergent_keys(&sim, &keys), 16, "divergence planted");

    sim.run_for(60_000_000);
    assert_eq!(divergent_keys(&sim, &keys), 0, "merkle sync must converge");
    // The fresh value won everywhere.
    let ring = sim.process::<Node>(NodeId(0)).unwrap().ring().clone();
    for key in &keys {
        for n in ring.preference_list(key.as_bytes(), 3) {
            let rec =
                sim.process::<Node>(n).unwrap().db().get_record("data", key).unwrap().unwrap();
            assert!(rec.val.starts_with(b"fresh-"), "stale value survived on {n}");
        }
    }

    // The point of the tree: per-key digests cover only divergent leaves.
    // One flat `(key, version)` pass would digest all `corpus` keys; the
    // walk must stay far below even one pass's worth despite ~30 rounds.
    let digest_entries = registry.counter("sync.digest_entries").get();
    assert!(digest_entries > 0, "leaf digests must flow");
    assert!(
        digest_entries < (corpus / 8) as u64,
        "digest entries ({digest_entries}) should be a small fraction of the corpus ({corpus})"
    );
    assert!(registry.counter("sync.rounds").get() > 0);
    assert!(registry.counter("sync.tree_levels").get() > 0, "walk must descend levels");
    assert!(registry.counter("sync.leaf_digests").get() > 0);
    // Once converged, later rounds settle at the root and count savings.
    assert!(registry.counter("sync.root_match").get() > 0, "post-convergence roots must match");
    assert!(registry.counter("sync.bytes_saved").get() > 0);
}

#[test]
fn merkle_rounds_on_identical_replicas_settle_at_the_root() {
    let (mut sim, spec, registry) = build(102, 2_000_000);
    sim.run_for(spec.warmup_us());
    preload(&mut sim, 500, 1);
    // Repair the single divergent key quickly, then idle: every subsequent
    // exchange is a two-message root match, never a digest flood.
    sim.run_for(40_000_000);
    let digests_at_convergence = registry.counter("sync.digest_entries").get();
    sim.run_for(40_000_000);
    assert!(registry.counter("sync.root_match").get() > 0);
    assert_eq!(
        registry.counter("sync.digest_entries").get(),
        digests_at_convergence,
        "converged replicas must exchange no per-key digests"
    );
}

#[test]
fn merkle_sync_replays_deterministically() {
    let run = |seed: u64| {
        let (mut sim, spec, registry) = build(seed, 2_000_000);
        sim.run_for(spec.warmup_us());
        let keys = preload(&mut sim, 800, 8);
        sim.run_for(30_000_000);
        let counts: Vec<usize> = (0..NODES as u32)
            .map(|i| sim.process::<Node>(NodeId(i)).unwrap().record_count())
            .collect();
        (
            divergent_keys(&sim, &keys),
            counts,
            registry.counter("sync.rounds").get(),
            registry.counter("sync.tree_levels").get(),
            registry.counter("sync.digest_entries").get(),
            sim.trace().count("anti_entropy_repair"),
        )
    };
    let a = run(424_242);
    let b = run(424_242);
    assert_eq!(a, b, "same seed must replay the merkle exchange identically");
    assert_eq!(a.0, 0, "and it must converge");
}

/// The engine's dirty-key feed exists to keep the sync tree current, so it
/// must not run before the tree's first build: that build scans the whole
/// collection anyway, and until it happens a dirty set would only grow (a
/// node whose first round is 30 s away, or that never reaches one).
#[test]
fn no_dirty_keys_accumulate_before_the_first_tree_build() {
    let (mut sim, spec, _registry) = build(104, 8_000_000);
    sim.run_for(spec.warmup_us()); // 4 s: before any node's first round
    preload(&mut sim, 300, 1);
    for i in 0..NODES as u32 {
        let node = sim.process::<Node>(NodeId(i)).unwrap();
        assert!(node.record_count() > 0);
        assert_eq!(node.db().dirty_key_count(), 0, "node {i} tracks dirt with no tree to feed");
    }
    // After the first rounds the feed is live: a write is noted until the
    // next refresh drains it.
    sim.run_for(12_000_000);
    let fresh = Record::new(
        ObjectId::from_parts(1, 11, 1),
        "late-key".to_string(),
        b"late".to_vec(),
        pack_version(9_000, 0),
    );
    sim.process_mut::<Node>(NodeId(0)).unwrap().preload_record(&fresh);
    assert_eq!(sim.process::<Node>(NodeId(0)).unwrap().db().dirty_key_count(), 1);
}
