//! `Msg::TransferRecords` (wire tag 22) is receive-only: nothing in this
//! tree sends it any more, but a peer still running the one-shot rebalance
//! sweep does. A frame from such a peer must keep decoding, and a storage
//! node must keep applying it.

use mystore_core::prelude::*;
use mystore_core::testing::Probe;
use mystore_engine::pack_version;
use mystore_net::{FaultPlan, NetConfig, NodeConfig, NodeId, SimConfig};
use mystore_serverd::decode_msg;

/// The frame body an old peer puts on the wire, assembled by hand from the
/// tag-22 layout the wire golden freezes — not by today's encoder.
fn old_peer_frame(key: &str, val: &[u8], version: u64) -> Vec<u8> {
    let mut out = vec![22u8]; // tag
    out.extend_from_slice(&1u32.to_le_bytes()); // record count
    out.extend_from_slice(&[7u8; 12]); // ObjectId
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key.as_bytes());
    out.extend_from_slice(&(val.len() as u32).to_le_bytes());
    out.extend_from_slice(val);
    out.push(0b01); // is_data, not deleted
    out.extend_from_slice(&version.to_le_bytes());
    out
}

#[test]
fn transfer_records_frame_from_an_old_peer_decodes_and_applies() {
    let version = pack_version(1_000_000, 3);
    let msg = decode_msg(&old_peer_frame("legacy-key", b"legacy-value", version))
        .expect("tag 22 must still decode");
    assert!(matches!(&msg, Msg::TransferRecords { records } if records.len() == 1));

    let spec = ClusterSpec::small(1);
    let mut sim = spec.build_sim(SimConfig {
        net: NetConfig::gigabit_lan(),
        faults: FaultPlan::none(),
        seed: 9,
    });
    sim.add_node(Probe::new(vec![(1_000_000, NodeId(0), msg)]), NodeConfig::default());
    sim.start();
    sim.run_for(2_000_000);

    let node = sim.process::<StorageNode>(NodeId(0)).expect("storage node");
    let rec = node.db().get_record("data", "legacy-key").expect("read").expect("record applied");
    assert_eq!(rec.val, b"legacy-value");
    assert_eq!(rec.version, version);
}
