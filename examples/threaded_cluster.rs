//! Threaded cluster — the same storage nodes on a real OS thread.
//!
//! Everything else in the examples runs on the deterministic simulator;
//! this one runs the identical `StorageNode` state machines on the threaded
//! runtime (one loop thread drives all five, in real time) and talks to
//! them from the main thread, demonstrating that the sans-io design really
//! is runtime-agnostic.
//!
//! ```bash
//! cargo run --example threaded_cluster
//! ```

use std::time::Duration;

use mystore::core::prelude::*;
use mystore::gossip::GossipConfig;
use mystore::net::{NodeId, ThreadedClusterBuilder};
use mystore::server::await_ring_convergence;

fn main() {
    // Five storage nodes; node 0 is the gossip seed.
    let gossip = GossipConfig {
        interval_us: 50_000, // 50 ms rounds: converge fast in real time
        fail_after_us: 400_000,
        remove_after_us: 5_000_000,
        seeds: vec![NodeId(0)],
        extra_fanout: 1,
        idle_backoff_max: 1,
    };
    let mut builder = ThreadedClusterBuilder::new();
    for i in 0..5u32 {
        let cfg = StorageConfig {
            gossip: gossip.clone(),
            vnodes: 64,
            replica_timeout_us: 100_000,
            request_deadline_us: 2_000_000,
            ..StorageConfig::default()
        };
        builder = builder.add_node(StorageNode::new(NodeId(i), cfg));
    }
    let cluster = builder.build();
    println!(
        "started {} nodes on one loop thread; waiting for gossip to converge...",
        cluster.len()
    );
    // Poll each node's ring view instead of sleeping a fixed interval:
    // bounded above by the timeout, done the moment the ring actually forms.
    let expected: Vec<NodeId> = (0..5).map(NodeId).collect();
    let took = await_ring_convergence(&cluster, &expected, Duration::from_secs(10))
        .expect("ring convergence");
    println!("ring converged in {took:?}");

    // Write 50 records through different coordinators.
    for i in 0..50u64 {
        cluster.send(
            NodeId((i % 5) as u32),
            Msg::Put {
                req: i,
                key: format!("threaded-{i}"),
                value: format!("value-{i}").into_bytes().into(),
                delete: false,
            },
        );
    }
    let mut put_ok = 0;
    while put_ok < 50 {
        match cluster.recv_timeout(Duration::from_secs(5)) {
            Ok((_, Msg::PutResp { result: Ok(()), .. })) => put_ok += 1,
            Ok((_, Msg::PutResp { result: Err(e), .. })) => panic!("put failed: {e}"),
            Ok(_) => {}
            Err(e) => panic!("no reply waiting for put acks ({put_ok}/50): {e}"),
        }
    }
    println!("50/50 quorum writes acknowledged");

    // Read them back through yet other coordinators.
    for i in 0..50u64 {
        cluster.send(
            NodeId(((i + 2) % 5) as u32),
            Msg::Get { req: 1000 + i, key: format!("threaded-{i}") },
        );
    }
    let mut get_ok = 0;
    while get_ok < 50 {
        match cluster.recv_timeout(Duration::from_secs(5)) {
            Ok((_, Msg::GetResp { req, result: Ok(Some(v)) })) => {
                assert_eq!(*v, format!("value-{}", req - 1000).into_bytes());
                get_ok += 1;
            }
            Ok((_, Msg::GetResp { result, .. })) => panic!("unexpected get result: {result:?}"),
            Ok(_) => {}
            Err(e) => panic!("no reply waiting for reads ({get_ok}/50): {e}"),
        }
    }
    println!("50/50 reads returned the written values");

    cluster.shutdown();
    println!("threaded_cluster OK");
}
