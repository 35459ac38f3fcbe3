//! Threaded-runtime integration tests: the example's flow, promoted to CI.
//!
//! The `threaded_cluster` example demonstrated the sans-io nodes on real OS
//! threads; these tests pin that behaviour down — bounded convergence
//! polling instead of sleeps, a full write/read round through different
//! coordinators, quorum service across a mid-run node kill, and graceful
//! shutdown that drains in-flight operations and leaves every acknowledged
//! write durable in the on-disk WALs.

use std::path::PathBuf;
use std::time::Duration;

use mystore::core::prelude::*;
use mystore::engine::Db;
use mystore::gossip::GossipConfig;
use mystore::net::{NodeId, RecvError, ThreadedCluster, ThreadedClusterBuilder, ThreadedConfig};
use mystore::server::await_ring_convergence;

fn gossip_cfg(nodes: u32) -> GossipConfig {
    GossipConfig {
        interval_us: 25_000, // 25 ms rounds: fast real-time convergence
        fail_after_us: 400_000,
        remove_after_us: 5_000_000,
        seeds: vec![NodeId(0)],
        extra_fanout: nodes.min(2) as usize,
        idle_backoff_max: 1,
    }
}

fn build_cluster(nodes: u32, data_dir: Option<PathBuf>) -> ThreadedCluster<Msg> {
    let mut builder = ThreadedClusterBuilder::new(ThreadedConfig::default());
    for i in 0..nodes {
        let cfg = StorageConfig {
            gossip: gossip_cfg(nodes),
            vnodes: 64,
            data_dir: data_dir.clone(),
            replica_timeout_us: 100_000,
            request_deadline_us: 2_000_000,
            ..StorageConfig::default()
        };
        builder = builder.add_node(StorageNode::new(NodeId(i), cfg));
    }
    builder.build()
}

fn converge(cluster: &ThreadedCluster<Msg>, nodes: u32) {
    let expected: Vec<NodeId> = (0..nodes).map(NodeId).collect();
    await_ring_convergence(cluster, &expected, Duration::from_secs(15)).expect("ring convergence");
}

fn put(req: u64, key: &str) -> Msg {
    Msg::Put {
        req,
        key: key.to_string(),
        value: format!("value-{req}").into_bytes().into(),
        delete: false,
    }
}

/// Collects `n` put acks, panicking on any error result or on timeout.
fn collect_put_acks(cluster: &ThreadedCluster<Msg>, n: usize) {
    let mut ok = 0;
    while ok < n {
        match cluster.recv_timeout(Duration::from_secs(10)) {
            Ok((_, Msg::PutResp { result: Ok(()), .. })) => ok += 1,
            Ok((_, Msg::PutResp { result: Err(e), .. })) => panic!("put failed: {e}"),
            Ok(_) => {}
            Err(e) => panic!("missing put acks ({ok}/{n}): {e}"),
        }
    }
}

#[test]
fn converges_then_serves_writes_and_reads_via_every_coordinator() {
    let nodes = 5u32;
    let cluster = build_cluster(nodes, None);
    converge(&cluster, nodes);

    for i in 0..50u64 {
        cluster.send(NodeId((i % u64::from(nodes)) as u32), put(i, &format!("tc-{i}")));
    }
    collect_put_acks(&cluster, 50);

    // Read through different coordinators than wrote.
    for i in 0..50u64 {
        cluster.send(
            NodeId(((i + 2) % u64::from(nodes)) as u32),
            Msg::Get { req: 1000 + i, key: format!("tc-{i}") },
        );
    }
    let mut got = 0;
    while got < 50 {
        match cluster.recv_timeout(Duration::from_secs(10)) {
            Ok((_, Msg::GetResp { req, result: Ok(Some(v)) })) => {
                assert_eq!(*v, format!("value-{}", req - 1000).into_bytes());
                got += 1;
            }
            Ok((_, Msg::GetResp { result, .. })) => panic!("bad get result: {result:?}"),
            Ok(_) => {}
            Err(e) => panic!("missing reads ({got}/50): {e}"),
        }
    }
    cluster.shutdown();
}

#[test]
fn quorum_still_served_after_killing_one_node_mid_run() {
    let nodes = 5u32;
    let cluster = build_cluster(nodes, None);
    converge(&cluster, nodes);

    // First half of the writes with all nodes up.
    for i in 0..25u64 {
        cluster.send(NodeId((i % 5) as u32), put(i, &format!("kill-{i}")));
    }
    collect_put_acks(&cluster, 25);

    // Kill node 4 abruptly (no drain, no goodbye), then keep writing
    // through the survivors. W = 2 of N = 3 replicas: every quorum has at
    // least two live members, so all writes must still be acknowledged —
    // at most after a replica-timeout retry and a hint.
    cluster.stop_node(NodeId(4));
    for i in 25..50u64 {
        cluster.send(NodeId((i % 4) as u32), put(i, &format!("kill-{i}")));
    }
    collect_put_acks(&cluster, 25);

    // And reads still come back through the survivors too.
    for i in 0..50u64 {
        cluster.send(
            NodeId(((i + 1) % 4) as u32),
            Msg::Get { req: 1000 + i, key: format!("kill-{i}") },
        );
    }
    let mut got = 0;
    while got < 50 {
        match cluster.recv_timeout(Duration::from_secs(10)) {
            Ok((_, Msg::GetResp { result: Ok(Some(_)), .. })) => got += 1,
            Ok((_, Msg::GetResp { result, .. })) => panic!("bad get result: {result:?}"),
            Ok(_) => {}
            Err(RecvError::Timeout) => panic!("missing reads after kill ({got}/50)"),
            Err(RecvError::Disconnected) => panic!("whole cluster died, not just node 4"),
        }
    }
    cluster.shutdown();
}

#[test]
fn graceful_shutdown_drains_and_leaves_acked_writes_durable() {
    let nodes = 3u32;
    let dir = std::env::temp_dir().join(format!("mystore-threaded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test data dir");

    let keys = 20u64;
    {
        let cluster = build_cluster(nodes, Some(dir.clone()));
        converge(&cluster, nodes);
        for i in 0..keys {
            cluster.send(NodeId((i % 3) as u32), put(i, &format!("dur-{i}")));
        }
        collect_put_acks(&cluster, keys as usize);
        // Graceful: drain in-flight ops, final-sync the WALs, join threads.
        cluster.shutdown_graceful(Duration::from_secs(5));
    }
    assert_durable_on_w(&dir, nodes, "dur", 0..keys);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The drain starts straight after a burst of PUTs, with no wait for their
/// acks, so it meets WAL syncs still in flight: every write acked before
/// the threads exit must be durable on `W` WALs all the same.
#[test]
fn graceful_drain_during_in_flight_syncs_leaves_acked_writes_durable() {
    let nodes = 3u32;
    let dir = std::env::temp_dir().join(format!("mystore-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test data dir");

    let acked: Vec<u64> = {
        let mut cluster = build_cluster(nodes, Some(dir.clone()));
        converge(&cluster, nodes);
        let external = cluster.take_external_rx().expect("external stream");
        for i in 0..60u64 {
            cluster.send(NodeId((i % 3) as u32), put(i, &format!("drain-{i}")));
        }
        cluster.shutdown_graceful(Duration::from_secs(5));
        // Every reply the nodes sent before exiting is still queued.
        std::iter::from_fn(|| external.try_recv().ok())
            .filter_map(|(_, _, msg)| match msg {
                Msg::PutResp { req, result: Ok(()) } => Some(req),
                _ => None,
            })
            .collect()
    };
    assert!(!acked.is_empty(), "the drain acked none of the burst");
    assert_durable_on_w(&dir, nodes, "drain", acked);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reopens each node's WAL cold and checks that every write `i` of
/// `keys` (key `<prefix>-<i>`, written by [`put`]) survived on at least
/// W = 2 replicas.
fn assert_durable_on_w(
    dir: &std::path::Path,
    nodes: u32,
    prefix: &str,
    keys: impl IntoIterator<Item = u64>,
) {
    let dbs: Vec<Db> = (0..nodes)
        .map(|i| Db::open(dir.join(format!("node{i}.wal"))).expect("reopen wal"))
        .collect();
    for i in keys {
        let key = format!("{prefix}-{i}");
        let copies = dbs
            .iter()
            .filter(|db| {
                db.get_record("data", &key)
                    .ok()
                    .flatten()
                    .is_some_and(|r| r.val == format!("value-{i}").into_bytes())
            })
            .count();
        assert!(copies >= 2, "{key} durable on {copies} < W=2 replicas after shutdown");
    }
}
