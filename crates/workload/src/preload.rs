//! Corpus preloading.
//!
//! Loading 36 GB through the simulated network would take hours of wall
//! time for no experimental insight, so harnesses install corpora directly
//! into node state before (or between) measurement phases, using the exact
//! placement the cluster itself would compute.

use std::sync::Arc;

use mystore_bson::ObjectId;
use mystore_core::message::Msg;
use mystore_core::StorageNode;
use mystore_engine::{pack_version, Record};
use mystore_net::{NodeId, Sim};
use mystore_ring::HashRing;

use crate::corpus::{make_payload, Item};

/// Builds the ring the storage nodes themselves build (same labels, same
/// vnode counts) so preloading places records exactly where the cluster
/// will look for them.
pub fn offline_ring(storage_ids: &[NodeId], vnodes: u32) -> HashRing<NodeId> {
    let mut ring = HashRing::new();
    for &id in storage_ids {
        ring.add_node(id, format!("node{}", id.0), vnodes).expect("unique ids");
    }
    ring
}

/// Installs `items` into a MyStore cluster with `n` replicas each,
/// returning the number of replicas written. Call after warmup (so node
/// rings agree) and before measurement.
pub fn preload_mystore(
    sim: &mut Sim<Msg>,
    storage_ids: &[NodeId],
    vnodes: u32,
    n: usize,
    items: &Arc<Vec<Item>>,
) -> usize {
    let ring = offline_ring(storage_ids, vnodes);
    let mut replicas = 0;
    for (i, item) in items.iter().enumerate() {
        let record = Record::new(
            ObjectId::from_parts(0, 0x5eed, i as u32),
            item.key.clone(),
            make_payload(item),
            pack_version(1, 0),
        );
        for node in ring.preference_list(item.key.as_bytes(), n) {
            let storage = sim.process_mut::<StorageNode>(node).expect("storage node id");
            storage.preload_record(&record);
            replicas += 1;
        }
    }
    replicas
}

/// Installs `items` into a single-node baseline store via its `preload`
/// method (generic over the baseline type).
pub fn preload_single<P, F>(sim: &mut Sim<Msg>, node: NodeId, items: &Arc<Vec<Item>>, mut f: F)
where
    P: 'static,
    F: FnMut(&mut P, &str, Vec<u8>),
{
    for item in items.iter() {
        let payload = make_payload(item);
        let p = sim.process_mut::<P>(node).expect("baseline node id");
        f(p, &item.key, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mystore_core::prelude::*;
    use mystore_core::testing::Probe;
    use mystore_net::{FaultPlan, NetConfig, NodeConfig, SimConfig};

    #[test]
    fn preloaded_records_are_readable_through_the_cluster() {
        let spec = ClusterSpec::small(5);
        let mut sim = spec.build_sim(SimConfig {
            net: NetConfig::gigabit_lan(),
            faults: FaultPlan::none(),
            seed: 5,
        });
        let warm = spec.warmup_us();
        let probe = sim.add_node(
            Probe::new(vec![
                (warm + 100_000, NodeId(2), Msg::Get { req: 1, key: "blob-000007".into() }),
                (warm + 100_000, NodeId(0), Msg::Get { req: 2, key: "blob-000000".into() }),
            ]),
            NodeConfig::default(),
        );
        sim.start();
        sim.run_for(warm);

        let items = Arc::new(
            (0..20)
                .map(|i| Item { key: format!("blob-{i:06}"), size: 1000, class: 0 })
                .collect::<Vec<_>>(),
        );
        let replicas =
            preload_mystore(&mut sim, &spec.storage_ids(), spec.storage.vnodes, 3, &items);
        assert_eq!(replicas, 60);

        sim.run_for(2_000_000);
        let p = sim.process::<Probe>(probe).unwrap();
        assert!(matches!(p.response_for(1), Some(Msg::GetResp { result: Ok(Some(_)), .. })));
        assert!(matches!(p.response_for(2), Some(Msg::GetResp { result: Ok(Some(_)), .. })));
    }

    #[test]
    fn offline_ring_matches_cluster_ring() {
        let spec = ClusterSpec::small(4);
        let mut sim = spec.build_sim(SimConfig {
            net: NetConfig::gigabit_lan(),
            faults: FaultPlan::none(),
            seed: 6,
        });
        sim.start();
        sim.run_for(spec.warmup_us());
        let offline = offline_ring(&spec.storage_ids(), spec.storage.vnodes);
        let node = sim.process::<StorageNode>(NodeId(0)).unwrap();
        for i in 0..50 {
            let key = format!("check-{i}");
            assert_eq!(
                offline.preference_list(key.as_bytes(), 3),
                node.ring().preference_list(key.as_bytes(), 3),
                "placement mismatch for {key}"
            );
        }
    }
}
