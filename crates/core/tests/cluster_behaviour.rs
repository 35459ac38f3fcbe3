//! End-to-end behaviour of the storage module on the deterministic
//! simulator: quorum reads/writes, hinted handoff (Fig. 8), long-failure
//! re-replication (Fig. 9), node addition, and balance.

use mystore_core::prelude::*;
use mystore_core::testing::Probe;
use mystore_net::{FaultPlan, NetConfig, NodeConfig, NodeId, Sim, SimConfig, SimTime};

fn sim_config(seed: u64) -> SimConfig {
    SimConfig { net: NetConfig::gigabit_lan(), faults: FaultPlan::none(), seed }
}

/// Builds a 5-node storage-only cluster plus a probe client with `script`.
fn cluster_with_probe(
    seed: u64,
    script: Vec<(u64, NodeId, Msg)>,
) -> (Sim<Msg>, ClusterSpec, NodeId) {
    let spec = ClusterSpec::small(5);
    let mut sim = spec.build_sim(sim_config(seed));
    let probe = sim.add_node(Probe::new(script), NodeConfig::default());
    sim.start();
    (sim, spec, probe)
}

fn put(req: u64, key: &str, value: &[u8]) -> Msg {
    Msg::Put { req, key: key.into(), value: value.to_vec().into(), delete: false }
}

fn get(req: u64, key: &str) -> Msg {
    Msg::Get { req, key: key.into() }
}

#[test]
fn put_then_get_round_trips_through_any_coordinator() {
    let warm = 5_000_000u64;
    // Write via node 0, read via node 3 — any node can coordinate.
    let script = vec![
        (warm, NodeId(0), put(1, "Resistor5", b"scene-xml")),
        (warm + 500_000, NodeId(3), get(2, "Resistor5")),
        (warm + 500_000, NodeId(4), get(3, "unknown-key")),
    ];
    let (mut sim, _, probe) = cluster_with_probe(11, script);
    sim.run_for(warm + 2_000_000);
    let p = sim.process::<Probe>(probe).unwrap();
    assert!(matches!(p.response_for(1), Some(Msg::PutResp { result: Ok(()), .. })));
    match p.response_for(2) {
        Some(Msg::GetResp { result: Ok(Some(v)), .. }) => assert_eq!(**v, *b"scene-xml"),
        other => panic!("get reply: {other:?}"),
    }
    assert!(matches!(p.response_for(3), Some(Msg::GetResp { result: Ok(None), .. })));
}

#[test]
fn records_replicate_to_n_nodes() {
    let warm = 5_000_000u64;
    let script: Vec<(u64, NodeId, Msg)> = (0..50u64)
        .map(|i| (warm + i * 10_000, NodeId((i % 5) as u32), put(i, &format!("key{i}"), b"v")))
        .collect();
    let (mut sim, spec, probe) = cluster_with_probe(12, script);
    sim.run_for(warm + 5_000_000);
    let p = sim.process::<Probe>(probe).unwrap();
    assert_eq!(p.count_where(|m| matches!(m, Msg::PutResp { result: Ok(()), .. })), 50);
    let total: usize = spec
        .storage_ids()
        .iter()
        .map(|&id| sim.process::<StorageNode>(id).unwrap().record_count())
        .sum();
    assert_eq!(total, 50 * 3, "every record must have N=3 replicas");
}

#[test]
fn delete_is_logical_and_reads_as_absent() {
    let warm = 5_000_000u64;
    let script = vec![
        (warm, NodeId(0), put(1, "victim", b"data")),
        (
            warm + 300_000,
            NodeId(1),
            Msg::Put { req: 2, key: "victim".into(), value: vec![].into(), delete: true },
        ),
        (warm + 600_000, NodeId(2), get(3, "victim")),
    ];
    let (mut sim, spec, probe) = cluster_with_probe(13, script);
    sim.run_for(warm + 2_000_000);
    let p = sim.process::<Probe>(probe).unwrap();
    assert!(matches!(p.response_for(2), Some(Msg::PutResp { result: Ok(()), .. })));
    assert!(matches!(p.response_for(3), Some(Msg::GetResp { result: Ok(None), .. })));
    // The tombstone still physically exists on the replicas (§3.3: "not
    // physically remove the record from disk").
    let tombstones: usize = spec
        .storage_ids()
        .iter()
        .map(|&id| {
            let node = sim.process::<StorageNode>(id).unwrap();
            node.db()
                .get_record("data", "victim")
                .ok()
                .flatten()
                .map(|r| r.is_del as usize)
                .unwrap_or(0)
        })
        .sum();
    assert!(tombstones >= 2, "tombstone must be replicated, found {tombstones}");
}

#[test]
fn later_write_wins_on_read() {
    let warm = 5_000_000u64;
    let script = vec![
        (warm, NodeId(0), put(1, "k", b"old")),
        (warm + 200_000, NodeId(2), put(2, "k", b"new")),
        (warm + 900_000, NodeId(4), get(3, "k")),
    ];
    let (mut sim, _, probe) = cluster_with_probe(14, script);
    sim.run_for(warm + 2_000_000);
    let p = sim.process::<Probe>(probe).unwrap();
    match p.response_for(3) {
        Some(Msg::GetResp { result: Ok(Some(v)), .. }) => assert_eq!(**v, *b"new"),
        other => panic!("get reply: {other:?}"),
    }
}

#[test]
fn short_failure_diverts_write_via_hinted_handoff_and_replays() {
    let warm = 5_000_000u64;
    let spec = ClusterSpec::small(5);
    let mut sim = spec.build_sim(sim_config(15));
    // Find where "hinted-key" lives so we can crash one of its replicas.
    // (We can compute it after warmup from any node's ring.)
    let probe = sim.add_node(
        Probe::new(vec![(warm + 1_000_000, NodeId(0), put(1, "hinted-key", b"divert-me"))]),
        NodeConfig::default(),
    );
    sim.start();
    sim.run_for(warm);
    let prefs =
        sim.process::<StorageNode>(NodeId(0)).unwrap().ring().preference_list(b"hinted-key", 3);
    // Crash a replica that is NOT the coordinator (node 0) just before the
    // write; it recovers after 8 s (short failure).
    let victim = *prefs.iter().find(|&&n| n != NodeId(0)).expect("replica other than 0");
    sim.schedule_crash(SimTime(warm + 500_000), victim, Some(8_000_000));
    sim.run_for(4_000_000);

    // The write must have succeeded (W=2 reachable) and a hint must exist.
    let p = sim.process::<Probe>(probe).unwrap();
    assert!(matches!(p.response_for(1), Some(Msg::PutResp { result: Ok(()), .. })));
    assert!(sim.trace().count("handoff") >= 1, "handoff expected");
    let hints: usize = spec
        .storage_ids()
        .iter()
        .map(|&id| sim.process::<StorageNode>(id).unwrap().hint_count())
        .sum();
    assert!(hints >= 1, "a hint should be parked somewhere");

    // After the victim recovers and hints replay, it holds the record.
    sim.run_for(20_000_000);
    let victim_node = sim.process::<StorageNode>(victim).unwrap();
    let rec = victim_node.db().get_record("data", "hinted-key").unwrap();
    assert!(rec.is_some(), "hint must be written back to the intended node");
    let hints_after: usize = spec
        .storage_ids()
        .iter()
        .map(|&id| sim.process::<StorageNode>(id).unwrap().hint_count())
        .sum();
    assert_eq!(hints_after, 0, "hints must clear after replay");
    assert!(sim.trace().count("hint_replayed") >= 1);
}

/// `W` counts distinct nodes. A `(3,2,·)` coordinator that reaches no
/// peer (one-way cuts, so it still hears them and keeps them on its ring)
/// stores its own copy and, once its retries run out, holds the hint for
/// an unreachable replica itself. Both are its own writes, one node's ack:
/// the PUT fails its quorum. The hint still settles that replica's slot
/// and replays once the links heal.
#[test]
fn cut_off_coordinator_alone_never_makes_a_write_quorum() {
    let warm = 5_000_000u64;
    let spec = ClusterSpec::small(3);
    let mut sim = spec.build_sim(sim_config(31));
    let probe = sim.add_node(
        Probe::new(vec![(warm + 100_000, NodeId(0), put(1, "cut-off", b"v"))]),
        NodeConfig::default(),
    );
    for peer in [NodeId(1), NodeId(2)] {
        sim.schedule_link_oneway(SimTime(warm), NodeId(0), peer, false);
        sim.schedule_link_oneway(SimTime(warm + 2_000_000), NodeId(0), peer, true);
    }
    sim.start();
    sim.run_for(warm + 2_000_000);
    let p = sim.process::<Probe>(probe).unwrap();
    assert!(
        matches!(
            p.response_for(1),
            Some(Msg::PutResp { result: Err(StoreError::QuorumWriteFailed), .. })
        ),
        "one node acked a W = 2 write: {:?}",
        p.response_for(1)
    );
    assert_eq!(sim.process::<StorageNode>(NodeId(0)).unwrap().hint_count(), 1);
    sim.run_for(20_000_000);
    assert_eq!(sim.process::<StorageNode>(NodeId(0)).unwrap().hint_count(), 0);
    assert!(sim.trace().count("hint_replayed") >= 1, "the self-held hint never replayed");
}

#[test]
fn long_failure_triggers_removal_and_rereplication() {
    let warm = 5_000_000u64;
    let spec = ClusterSpec::small(5);
    let mut sim = spec.build_sim(sim_config(16));
    let script: Vec<(u64, NodeId, Msg)> = (0..30u64)
        .map(|i| (warm + i * 20_000, NodeId(0), put(i, &format!("lf-{i}"), b"payload")))
        .collect();
    let probe = sim.add_node(Probe::new(script), NodeConfig::default());
    sim.start();
    sim.run_for(warm + 2_000_000);
    let p = sim.process::<Probe>(probe).unwrap();
    assert_eq!(p.count_where(|m| matches!(m, Msg::PutResp { result: Ok(()), .. })), 30);

    // Node 4 breaks down for good.
    sim.schedule_crash(sim.now() + 1, NodeId(4), None);
    // Run long enough for seed detection (remove_after) + the
    // re-replication the removal triggers.
    sim.run_for(spec.storage.gossip.remove_after_us + 20_000_000);

    // The survivors' rings must have dropped node 4.
    for id in 0..4u32 {
        let node = sim.process::<StorageNode>(NodeId(id)).unwrap();
        assert_eq!(node.ring().len(), 4, "node {id} still sees the dead node");
    }
    assert!(sim.trace().count("member_removed") >= 1);

    // Every record must again have N=3 live replicas among survivors.
    for i in 0..30 {
        let key = format!("lf-{i}");
        let copies: usize = (0..4u32)
            .filter(|&id| {
                sim.process::<StorageNode>(NodeId(id))
                    .unwrap()
                    .db()
                    .get_record("data", &key)
                    .ok()
                    .flatten()
                    .is_some()
            })
            .count();
        assert!(copies >= 3, "key {key} has only {copies} copies after re-replication");
    }
}

#[test]
fn adding_a_node_migrates_ranges_to_it() {
    // Node 5 exists but is down from t=0; it "joins" when restarted.
    let spec = ClusterSpec::small(6);
    let (mut sim, metrics) = spec.build_sim_with_metrics(sim_config(17));
    let warm = 5_000_000u64;
    let script: Vec<(u64, NodeId, Msg)> = (0..40u64)
        .map(|i| (warm + i * 20_000, NodeId(i as u32 % 3), put(i, &format!("mig-{i}"), b"v")))
        .collect();
    let probe = sim.add_node(Probe::new(script), NodeConfig::default());
    sim.schedule_crash(SimTime(0), NodeId(5), None);
    sim.start();
    sim.run_for(warm + 3_000_000);
    let p = sim.process::<Probe>(probe).unwrap();
    assert_eq!(p.count_where(|m| matches!(m, Msg::PutResp { result: Ok(()), .. })), 40);
    assert_eq!(sim.process::<StorageNode>(NodeId(5)).unwrap().record_count(), 0);

    // The newcomer boots.
    sim.schedule_restart(sim.now() + 1, NodeId(5));
    sim.run_for(20_000_000);

    let newcomer = sim.process::<StorageNode>(NodeId(5)).unwrap();
    assert!(newcomer.ring().len() >= 6, "newcomer must learn the full ring");
    assert!(
        newcomer.record_count() > 0,
        "records whose ranges now map to the newcomer must migrate"
    );
    // Placement agreement: keys the newcomer owns are fetchable cluster-wide.
    assert!(
        metrics.counter("migrate.records_sent").get() > 0,
        "old owners must have shipped some records away"
    );
}

#[test]
fn balance_spreads_load_across_nodes() {
    let warm = 5_000_000u64;
    let script: Vec<(u64, NodeId, Msg)> = (0..300u64)
        .map(|i| (warm + i * 5_000, NodeId((i % 5) as u32), put(i, &format!("bal{i}"), b"x")))
        .collect();
    let (mut sim, spec, _) = cluster_with_probe(18, script);
    sim.run_for(warm + 5_000_000);
    let counts: Vec<usize> = spec
        .storage_ids()
        .iter()
        .map(|&id| sim.process::<StorageNode>(id).unwrap().record_count())
        .collect();
    let total: usize = counts.iter().sum();
    assert_eq!(total, 900);
    let mean = total as f64 / 5.0;
    for (i, &c) in counts.iter().enumerate() {
        assert!(
            (c as f64) > mean * 0.5 && (c as f64) < mean * 1.6,
            "node {i} holds {c} of {total} (mean {mean})"
        );
    }
}

#[test]
fn deterministic_runs_with_same_seed() {
    let run = |seed: u64| {
        let warm = 5_000_000u64;
        let script: Vec<(u64, NodeId, Msg)> = (0..20u64)
            .map(|i| (warm + i * 10_000, NodeId(0), put(i, &format!("d{i}"), b"v")))
            .collect();
        let (mut sim, spec, _) = cluster_with_probe(seed, script);
        sim.run_for(warm + 3_000_000);
        spec.storage_ids()
            .iter()
            .map(|&id| sim.process::<StorageNode>(id).unwrap().record_count())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(99), run(99));
}

#[test]
fn hints_for_a_removed_node_are_dropped_and_rereplication_covers() {
    let warm = 5_000_000u64;
    let spec = ClusterSpec::small(5);
    let mut sim = spec.build_sim(sim_config(41));
    let probe = sim.add_node(
        Probe::new(vec![(warm + 1_000_000, NodeId(0), put(1, "orphan-hint", b"payload"))]),
        NodeConfig::default(),
    );
    sim.start();
    sim.run_for(warm);
    let prefs =
        sim.process::<StorageNode>(NodeId(0)).unwrap().ring().preference_list(b"orphan-hint", 3);
    let victim = *prefs.iter().find(|&&n| n != NodeId(0)).expect("non-coordinator replica");
    // The victim never comes back: short failure escalates to long failure.
    sim.schedule_crash(SimTime(warm + 500_000), victim, None);
    sim.run_for(3_000_000);

    // Write succeeded via handoff; a hint is parked somewhere.
    let p = sim.process::<Probe>(probe).unwrap();
    assert!(matches!(p.response_for(1), Some(Msg::PutResp { result: Ok(()), .. })));
    let hints: usize = spec
        .storage_ids()
        .iter()
        .map(|&id| sim.process::<StorageNode>(id).unwrap().hint_count())
        .sum();
    assert!(hints >= 1, "hint must be parked while the victim is down");

    // Long-failure declaration + re-replication: hint dropped, record fully
    // covered.
    sim.run_for(spec.storage.gossip.remove_after_us + 30_000_000);
    let hints_after: usize = spec
        .storage_ids()
        .iter()
        .map(|&id| sim.process::<StorageNode>(id).unwrap().hint_count())
        .sum();
    assert_eq!(hints_after, 0, "hints for a removed node must be discarded");
    let copies = spec
        .storage_ids()
        .iter()
        .filter(|&&id| {
            id != victim
                && sim
                    .process::<StorageNode>(id)
                    .unwrap()
                    .db()
                    .get_record("data", "orphan-hint")
                    .ok()
                    .flatten()
                    .is_some()
        })
        .count();
    assert!(copies >= 3, "re-replication must restore N copies, found {copies}");
}

#[test]
fn conflicting_writes_across_a_partition_converge_to_lww_after_heal() {
    let warm = 5_000_000u64;
    let spec = ClusterSpec::small(5);
    let mut sim = spec.build_sim(sim_config(42));
    // Write the same key from both sides of a partition: node 0's side
    // first (older), node 4's side second (newer) — LWW must pick node 4's.
    let probe = sim.add_node(
        Probe::new(vec![
            (warm + 1_000_000, NodeId(0), put(1, "split-key", b"older-write")),
            (warm + 1_500_000, NodeId(4), put(2, "split-key", b"newer-write")),
        ]),
        NodeConfig::default(),
    );
    // Partition {0,1} from {2,3,4} just before the writes. The probe (last
    // node id) can still reach everyone.
    let cut = SimTime(warm + 500_000);
    for a in [0u32, 1] {
        for b in [2u32, 3, 4] {
            sim.schedule_link(cut, NodeId(a), NodeId(b), false);
        }
    }
    sim.start();
    // Let both writes land on their own sides (sloppy quorum via hints makes
    // both succeed).
    sim.run_for(warm + 6_000_000);
    let p = sim.process::<Probe>(probe).unwrap();
    assert!(
        matches!(p.response_for(1), Some(Msg::PutResp { result: Ok(()), .. })),
        "minority-side write should still reach W via fallbacks on its side"
    );
    assert!(matches!(p.response_for(2), Some(Msg::PutResp { result: Ok(()), .. })));

    // Heal and let hints, read repair and anti-entropy converge the replicas.
    let heal = sim.now() + 1;
    for a in [0u32, 1] {
        for b in [2u32, 3, 4] {
            sim.schedule_link(heal, NodeId(a), NodeId(b), true);
        }
    }
    sim.run_for(60_000_000);

    // Every replica holds the newer value; a read from either side agrees.
    let ring = sim.process::<StorageNode>(NodeId(0)).unwrap().ring().clone();
    for node in ring.preference_list(b"split-key", 3) {
        let rec = sim
            .process::<StorageNode>(node)
            .unwrap()
            .db()
            .get_record("data", "split-key")
            .unwrap()
            .expect("replica present after heal");
        assert_eq!(rec.val, b"newer-write", "replica on {node} did not converge");
    }
}
