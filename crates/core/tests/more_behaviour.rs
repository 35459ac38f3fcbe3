//! Additional cluster behaviours: the threaded runtime serving quorum
//! operations, read repair of stale replicas, capacity-proportional
//! placement, and coordinator-loss handling.

use std::time::Duration;

use mystore_bson::ObjectId;
use mystore_core::prelude::*;
use mystore_core::testing::Probe;
use mystore_engine::{pack_version, Record};
use mystore_gossip::GossipConfig;
use mystore_net::{
    FaultPlan, NetConfig, NodeConfig, NodeId, Sim, SimConfig, ThreadedClusterBuilder,
};

#[test]
fn threaded_runtime_serves_quorum_operations() {
    let gossip = GossipConfig {
        interval_us: 40_000,
        fail_after_us: 400_000,
        remove_after_us: 5_000_000,
        seeds: vec![NodeId(0)],
        extra_fanout: 1,
        idle_backoff_max: 1,
    };
    let mut builder = ThreadedClusterBuilder::new();
    for i in 0..4u32 {
        let cfg = StorageConfig {
            gossip: gossip.clone(),
            vnodes: 32,
            replica_timeout_us: 100_000,
            request_deadline_us: 3_000_000,
            ..StorageConfig::default()
        };
        builder = builder.add_node(StorageNode::new(NodeId(i), cfg));
    }
    let cluster = builder.build();
    std::thread::sleep(Duration::from_millis(400));

    for i in 0..10u64 {
        cluster.send(
            NodeId((i % 4) as u32),
            Msg::Put { req: i, key: format!("t{i}"), value: vec![i as u8].into(), delete: false },
        );
    }
    let mut acks = 0;
    while acks < 10 {
        match cluster.recv_timeout(Duration::from_secs(5)) {
            Ok((_, Msg::PutResp { result: Ok(()), .. })) => acks += 1,
            Ok((_, Msg::PutResp { result: Err(e), .. })) => panic!("write failed: {e}"),
            Ok(_) => {}
            Err(e) => panic!("no reply at {acks}/10 put acks: {e}"),
        }
    }
    cluster.send(NodeId(3), Msg::Get { req: 100, key: "t1".into() });
    loop {
        match cluster.recv_timeout(Duration::from_secs(5)) {
            Ok((_, Msg::GetResp { req: 100, result })) => {
                assert_eq!(*result.unwrap().unwrap(), vec![1u8]);
                break;
            }
            Ok(_) => {}
            Err(e) => panic!("no reply waiting for read: {e}"),
        }
    }
    cluster.shutdown();
}

#[test]
fn stale_replica_is_read_repaired() {
    let spec = ClusterSpec::small(5);
    let mut sim = spec.build_sim(SimConfig {
        net: NetConfig::gigabit_lan(),
        faults: FaultPlan::none(),
        seed: 31,
    });
    let warm = spec.warmup_us();
    let probe = sim.add_node(
        Probe::new(vec![(warm + 500_000, NodeId(1), Msg::Get { req: 1, key: "stale-key".into() })]),
        NodeConfig::default(),
    );
    sim.start();
    sim.run_for(warm);

    // Hand-plant divergent replicas: two fresh copies and one stale copy.
    let prefs =
        sim.process::<StorageNode>(NodeId(0)).unwrap().ring().preference_list(b"stale-key", 3);
    let fresh = Record::new(
        ObjectId::from_parts(1, 1, 2),
        "stale-key",
        b"new".to_vec(),
        pack_version(2_000, 0),
    );
    let stale = Record::new(
        ObjectId::from_parts(1, 1, 1),
        "stale-key",
        b"old".to_vec(),
        pack_version(1_000, 0),
    );
    for (i, &node) in prefs.iter().enumerate() {
        let rec = if i == 2 { &stale } else { &fresh };
        sim.process_mut::<StorageNode>(node).unwrap().preload_record(rec);
    }
    let laggard = prefs[2];

    // The read returns the newest value...
    sim.run_for(3_000_000);
    let p = sim.process::<Probe>(probe).unwrap();
    match p.response_for(1) {
        Some(Msg::GetResp { result: Ok(Some(v)), .. }) => assert_eq!(**v, *b"new"),
        other => panic!("read: {other:?}"),
    }
    // ...and the stale replica was repaired in the background.
    let repaired = sim
        .process::<StorageNode>(laggard)
        .unwrap()
        .db()
        .get_record("data", "stale-key")
        .unwrap()
        .unwrap();
    assert_eq!(repaired.val, b"new");
    assert!(sim.trace().count("read_repair") >= 1);
}

#[test]
fn capacity_proportional_vnodes_skew_placement() {
    // Node 0 advertises 4× the virtual nodes of the others ("more powerful
    // means more virtual nodes", §5.2.1).
    let spec = ClusterSpec::small(4);
    let mut sim =
        Sim::new(SimConfig { net: NetConfig::gigabit_lan(), faults: FaultPlan::none(), seed: 33 });
    for i in 0..4u32 {
        let mut cfg = spec.storage_config();
        cfg.vnodes = if i == 0 { 256 } else { 64 };
        sim.add_node(StorageNode::new(NodeId(i), cfg), NodeConfig { concurrency: 4 });
    }
    let warm = spec.warmup_us();
    let script: Vec<(u64, NodeId, Msg)> = (0..400u64)
        .map(|i| {
            (
                warm + i * 5_000,
                NodeId((i % 4) as u32),
                Msg::Put { req: i, key: format!("cap{i}"), value: vec![1].into(), delete: false },
            )
        })
        .collect();
    let probe = sim.add_node(Probe::new(script), NodeConfig::default());
    sim.start();
    sim.run_for(warm + 10_000_000);
    let p = sim.process::<Probe>(probe).unwrap();
    assert_eq!(p.count_where(|m| matches!(m, Msg::PutResp { result: Ok(()), .. })), 400);
    // With N=3 over 4 nodes every record lands on 3 of the 4 nodes, so the
    // replica-count ratio is bounded by 1.5; check it approaches that bound
    // and that *primary* ownership shows the full capacity skew.
    let counts: Vec<usize> =
        (0..4u32).map(|i| sim.process::<StorageNode>(NodeId(i)).unwrap().record_count()).collect();
    let small_avg = counts[1..].iter().sum::<usize>() as f64 / 3.0;
    let replica_ratio = counts[0] as f64 / small_avg;
    assert!(
        replica_ratio > 1.25,
        "big node should be in nearly every preference list: {counts:?} ({replica_ratio:.2})"
    );
    let ring = sim.process::<StorageNode>(NodeId(0)).unwrap().ring().clone();
    let mut primaries = [0usize; 4];
    for i in 0..400u64 {
        let p = ring.preference_list(format!("cap{i}").as_bytes(), 1)[0];
        primaries[p.0 as usize] += 1;
    }
    let small_primary_avg = primaries[1..].iter().sum::<usize>() as f64 / 3.0;
    let primary_ratio = primaries[0] as f64 / small_primary_avg;
    assert!(
        (2.0..7.0).contains(&primary_ratio),
        "4x vnodes should win ~4x the primary ranges: {primaries:?} ({primary_ratio:.2})"
    );
}

#[test]
fn requests_to_a_dead_coordinator_time_out_cleanly() {
    let spec = ClusterSpec::small(5);
    let mut sim = spec.build_sim(SimConfig {
        net: NetConfig::gigabit_lan(),
        faults: FaultPlan::none(),
        seed: 34,
    });
    let warm = spec.warmup_us();
    let probe = sim.add_node(
        Probe::new(vec![(
            warm + 1_000_000,
            NodeId(2),
            Msg::Put { req: 1, key: "k".into(), value: vec![1].into(), delete: false },
        )]),
        NodeConfig::default(),
    );
    sim.schedule_crash(mystore_net::SimTime(warm + 500_000), NodeId(2), None);
    sim.start();
    sim.run_for(warm + 10_000_000);
    // No reply at all — the caller's own timeout/retry policy handles this
    // (as PutClient does); the probe records nothing.
    let p = sim.process::<Probe>(probe).unwrap();
    assert!(p.responses.is_empty(), "a dead coordinator cannot answer");
}
