//! Failure drill — watch §5.2.4 happen.
//!
//! Timeline:
//!   1. a 6-node cluster converges and takes 200 records,
//!   2. **short failure**: one replica node drops off for 10 s while a
//!      write lands → the coordinator diverts to a fallback (hinted
//!      handoff, Fig. 8), and the hint is written back on recovery,
//!   3. **long failure**: another node breaks down for good → the seed
//!      declares it removed, the ring shrinks, and survivors re-replicate
//!      its ranges (Fig. 9),
//!   4. **node addition**: a fresh node joins → ranges migrate to it.
//!
//! ```bash
//! cargo run --example failure_drill
//! ```

use mystore::core::prelude::*;
use mystore::core::testing::Probe;
use mystore::net::{FaultPlan, NetConfig, NodeConfig, NodeId, SimConfig, SimTime};

fn put(req: u64, key: &str, value: &[u8]) -> Msg {
    Msg::Put { req, key: key.into(), value: value.to_vec().into(), delete: false }
}

fn total_replicas(sim: &mystore::net::Sim<Msg>, nodes: &[NodeId]) -> usize {
    nodes.iter().filter_map(|&id| sim.process::<StorageNode>(id).map(|n| n.record_count())).sum()
}

fn main() {
    // Node 6 exists but stays dark until phase 4 (it "joins" then).
    let spec = ClusterSpec::small(7);
    let mut sim = spec.build_sim(SimConfig {
        net: NetConfig::gigabit_lan(),
        faults: FaultPlan::none(),
        seed: 99,
    });
    sim.schedule_crash(SimTime(0), NodeId(6), None);

    let warm = spec.warmup_us();
    let mut script: Vec<(u64, NodeId, Msg)> = (0..200u64)
        .map(|i| {
            (warm + i * 5_000, NodeId((i % 6) as u32), put(i, &format!("rec-{i}"), b"payload"))
        })
        .collect();
    // The write that will hit the short failure (phase 2).
    script.push((warm + 3_000_000, NodeId(0), put(900, "divert-me", b"short-failure-write")));
    let probe = sim.add_node(Probe::new(script), NodeConfig::default());

    sim.start();
    sim.run_for(warm + 1_500_000);
    let live: Vec<NodeId> = (0..6).map(NodeId).collect();
    println!(
        "phase 1: cluster up, {} records x N=3 = {} replicas",
        200,
        total_replicas(&sim, &live)
    );

    // ---- phase 2: short failure + hinted handoff ---------------------------
    let victim_short = *sim
        .process::<StorageNode>(NodeId(0))
        .unwrap()
        .ring()
        .preference_list(b"divert-me", 3)
        .iter()
        .find(|&&n| n != NodeId(0))
        .expect("replica besides coordinator");
    sim.schedule_crash(SimTime(warm + 2_500_000), victim_short, Some(10_000_000));
    sim.run_for(5_000_000);
    let handoffs = sim.trace().count("handoff");
    let hints: usize =
        live.iter().map(|&id| sim.process::<StorageNode>(id).unwrap().hint_count()).sum();
    println!("phase 2: {victim_short} down briefly -> write diverted ({handoffs} handoffs, {hints} hints parked)");
    sim.run_for(20_000_000);
    let replayed = sim.trace().count("hint_replayed");
    let has_it = sim
        .process::<StorageNode>(victim_short)
        .unwrap()
        .db()
        .get_record("data", "divert-me")
        .unwrap()
        .is_some();
    println!("         {victim_short} recovered -> {replayed} hints written back (record present: {has_it})");
    assert!(has_it, "hint must reach the intended replica");

    // ---- phase 3: long failure + re-replication ---------------------------
    let victim_long = NodeId(5);
    println!("phase 3: {victim_long} breaks down permanently...");
    sim.schedule_crash(sim.now() + 1, victim_long, None);
    sim.run_for(spec.storage.gossip.remove_after_us + 25_000_000);
    let survivors: Vec<NodeId> = live.iter().copied().filter(|&n| n != victim_long).collect();
    for &id in &survivors {
        assert_eq!(
            sim.process::<StorageNode>(id).unwrap().ring().len(),
            5,
            "{id} must drop the dead node from its ring"
        );
    }
    println!(
        "         seed declared it removed; survivors' rings have 5 members; {} replicas live",
        total_replicas(&sim, &survivors)
    );

    // ---- phase 4: node addition + migration --------------------------------
    println!("phase 4: fresh node n6 joins...");
    sim.schedule_restart(sim.now() + 1, NodeId(6));
    sim.run_for(25_000_000);
    let newcomer = sim.process::<StorageNode>(NodeId(6)).unwrap();
    println!(
        "         n6 ring has {} members and received {} records by migration",
        newcomer.ring().len(),
        newcomer.record_count()
    );
    assert!(newcomer.record_count() > 0, "ranges must migrate to the newcomer");

    // Every original record must still be replicated at N=3 somewhere.
    let mut fully_replicated = 0;
    let final_nodes: Vec<NodeId> = (0..7).map(NodeId).filter(|&n| n != victim_long).collect();
    for i in 0..200u64 {
        let key = format!("rec-{i}");
        let copies = final_nodes
            .iter()
            .filter(|&&id| {
                sim.process::<StorageNode>(id)
                    .unwrap()
                    .db()
                    .get_record("data", &key)
                    .ok()
                    .flatten()
                    .is_some()
            })
            .count();
        if copies >= 3 {
            fully_replicated += 1;
        }
    }
    println!("final: {fully_replicated}/200 records hold >= 3 replicas after the drill");
    assert_eq!(fully_replicated, 200);
    let p = sim.process::<Probe>(probe).unwrap();
    assert_eq!(
        p.count_where(|m| matches!(m, Msg::PutResp { result: Ok(()), .. })),
        201,
        "every write (including the diverted one) must succeed"
    );
    println!("failure drill OK");
}
