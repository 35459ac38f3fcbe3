//! The tombstone reaper: logical deletes (§3.3) are physically reclaimed
//! only after the grace period, cluster-wide.

use mystore_core::prelude::*;
use mystore_core::testing::Probe;
use mystore_core::StorageNode as Node;
use mystore_net::{FaultPlan, NetConfig, NodeConfig, NodeId, Sim, SimConfig};

fn build(grace_us: u64, interval_us: u64) -> (Sim<Msg>, ClusterSpec, NodeId) {
    let spec = ClusterSpec::small(5);
    let mut sim =
        Sim::new(SimConfig { net: NetConfig::gigabit_lan(), faults: FaultPlan::none(), seed: 8 });
    for i in 0..spec.storage_nodes as u32 {
        let mut cfg = spec.storage_config();
        cfg.compaction_interval_us = interval_us;
        cfg.tombstone_grace_us = grace_us;
        sim.add_node(Node::new(NodeId(i), cfg), NodeConfig { concurrency: 4 });
    }
    let warm = spec.warmup_us();
    let probe = sim.add_node(
        Probe::new(vec![
            (
                warm,
                NodeId(0),
                Msg::Put {
                    req: 1,
                    key: "victim".into(),
                    value: b"x".to_vec().into(),
                    delete: false,
                },
            ),
            (
                warm + 500_000,
                NodeId(1),
                Msg::Put { req: 2, key: "victim".into(), value: vec![].into(), delete: true },
            ),
            (
                warm + 500_000,
                NodeId(2),
                Msg::Put {
                    req: 3,
                    key: "keeper".into(),
                    value: b"y".to_vec().into(),
                    delete: false,
                },
            ),
        ]),
        NodeConfig::default(),
    );
    sim.start();
    (sim, spec, probe)
}

fn tombstones(sim: &Sim<Msg>, spec: &ClusterSpec, key: &str) -> usize {
    spec.storage_ids()
        .iter()
        .filter(|&&id| {
            sim.process::<Node>(id).unwrap().db().get_record("data", key).ok().flatten().is_some()
        })
        .count()
}

#[test]
fn tombstones_survive_the_grace_period_then_vanish() {
    // Grace 10 s, reap every 3 s.
    let (mut sim, spec, probe) = build(10_000_000, 3_000_000);
    sim.run_for(spec.warmup_us() + 2_000_000);
    let p = sim.process::<Probe>(probe).unwrap();
    assert_eq!(p.count_where(|m| matches!(m, Msg::PutResp { result: Ok(()), .. })), 3);
    // Freshly deleted: the tombstone is still physically present.
    assert!(tombstones(&sim, &spec, "victim") >= 2, "tombstone must exist during grace");

    // Well past the grace period: physically gone everywhere.
    sim.run_for(20_000_000);
    assert_eq!(tombstones(&sim, &spec, "victim"), 0, "tombstone must be reaped");
    assert!(sim.trace().count("tombstones_reaped") >= 1);
    // Live records are untouched.
    assert!(tombstones(&sim, &spec, "keeper") >= 3);
}

#[test]
fn reaper_disabled_keeps_tombstones_forever() {
    let (mut sim, spec, _) = build(10_000_000, 0);
    sim.run_for(spec.warmup_us() + 40_000_000);
    assert!(tombstones(&sim, &spec, "victim") >= 2, "no reaping when disabled");
    assert_eq!(sim.trace().count("tombstones_reaped"), 0);
}

#[test]
fn reaped_key_still_reads_as_absent() {
    let (mut sim, spec, _) = build(5_000_000, 2_000_000);
    sim.run_for(spec.warmup_us() + 20_000_000);
    assert_eq!(tombstones(&sim, &spec, "victim"), 0);
    // Inject a read directly and watch the coordinator's trace events: the
    // quorum read must complete (reporting not-found) rather than fail.
    let gets_ok = |sim: &Sim<Msg>| {
        sim.trace().events().iter().filter(|e| e.node == NodeId(3) && e.name == "get_ok").count()
    };
    let before = gets_ok(&sim);
    sim.inject(sim.now() + 1, NodeId(3), Msg::Get { req: 42, key: "victim".into() });
    sim.run_for(2_000_000);
    assert_eq!(gets_ok(&sim), before + 1, "read must complete (as not-found)");
}
