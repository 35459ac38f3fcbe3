//! Rebalance fan-out: a membership change must ship records only to peers
//! that *newly entered* a record's preference list, not to every replica
//! of every record. The original one-shot sweep re-sent each record to all
//! of its other replicas on any ring change — O(records × N) messages for a
//! change that affected a fraction of the keyspace. The bound now holds the
//! migration engine (DESIGN.md §16) to the same targeting rule.

use mystore_bson::ObjectId;
use mystore_core::prelude::*;
use mystore_core::StorageNode as Node;
use mystore_engine::{pack_version, Record};
use mystore_net::{FaultPlan, NetConfig, NodeConfig, NodeId, Sim, SimConfig, SimTime};
use mystore_obs::Registry;

#[test]
fn node_addition_ships_records_only_to_new_preference_members() {
    // Node 5 exists but is down from t=0; it "joins" when restarted.
    let spec = ClusterSpec::small(6);
    let mut sim =
        Sim::new(SimConfig { net: NetConfig::gigabit_lan(), faults: FaultPlan::none(), seed: 53 });
    // One registry for every node: the counters below are cluster totals.
    let metrics = Registry::new();
    for i in 0..spec.storage_nodes as u32 {
        let cfg = StorageConfig { metrics: metrics.clone(), ..spec.storage_config() };
        sim.add_node(Node::new(NodeId(i), cfg), NodeConfig { concurrency: 4 });
    }
    sim.schedule_crash(SimTime(0), NodeId(5), None);
    sim.start();
    sim.run_for(spec.warmup_us() + 3_000_000);

    // Fully replicate a corpus on the 5-node ring.
    let total = 60usize;
    let ring = sim.process::<Node>(NodeId(0)).unwrap().ring().clone();
    assert_eq!(ring.len(), 5, "newcomer must still be unknown");
    for i in 0..total {
        let key = format!("rb-{i:02}");
        let rec = Record::new(
            ObjectId::from_parts(1, 13, i as u32),
            key.clone(),
            b"payload".to_vec(),
            pack_version(1_000_000 + i as u64, 0),
        );
        for n in ring.preference_list(key.as_bytes(), 3) {
            sim.process_mut::<Node>(n).unwrap().preload_record(&rec);
        }
    }

    // The newcomer boots; every live node re-rings and plans its migration.
    sim.schedule_restart(sim.now() + 1, NodeId(5));
    sim.run_for(20_000_000);

    let new_ring = sim.process::<Node>(NodeId(0)).unwrap().ring().clone();
    assert_eq!(new_ring.len(), 6);
    // Placement restored: every key is on all members of its new list.
    for i in 0..total {
        let key = format!("rb-{i:02}");
        for n in new_ring.preference_list(key.as_bytes(), 3) {
            assert!(
                sim.process::<Node>(n).unwrap().db().get_record("data", &key).unwrap().is_some(),
                "{key} missing from new replica {n}"
            );
        }
    }

    // Fan-out bound: re-sending every record to both of its other replicas
    // would be 60 keys × 3 holders × 2 peers = 360 sends minimum. The
    // diff-bounded plan ships only for keys whose preference list the
    // newcomer actually entered (plus full re-sends where a holder dropped
    // its own copy), a fraction of that.
    let sent = metrics.counter("migrate.records_sent").get();
    assert!(sent > 0, "the newcomer must have been sent something");
    assert!(sent < 180, "rebalance fan-out too broad: {sent} record sends for one node joining");
}
