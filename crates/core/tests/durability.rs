//! Durable nodes: a threaded cluster with `data_dir` set recovers its
//! records across a full process-model restart, and acks only what the
//! end-of-batch WAL commit has made durable.

use std::time::Duration;

use mystore_core::prelude::*;
use mystore_gossip::GossipConfig;
use mystore_net::{
    Action, Context, NodeId, Process, Rng, SimConfig, ThreadedClusterBuilder, ThreadedConfig,
};
use mystore_obs::Registry;

fn gossip() -> GossipConfig {
    GossipConfig {
        interval_us: 40_000,
        fail_after_us: 400_000,
        remove_after_us: 5_000_000,
        seeds: vec![NodeId(0)],
        extra_fanout: 1,
        idle_backoff_max: 1,
    }
}

/// A 3-node default-config cluster on file WALs in `dir`, publishing into
/// `registry` so `wal.*` counters can be asserted.
fn build(
    dir: &std::path::Path,
    registry: &Registry,
    nwr: Nwr,
) -> mystore_net::ThreadedCluster<Msg> {
    let mut builder = ThreadedClusterBuilder::new(ThreadedConfig::default());
    for i in 0..3u32 {
        let cfg = StorageConfig {
            gossip: gossip(),
            vnodes: 32,
            nwr,
            replica_timeout_us: 100_000,
            request_deadline_us: 3_000_000,
            data_dir: Some(dir.to_path_buf()),
            metrics: registry.clone(),
            ..StorageConfig::default()
        };
        builder = builder.add_node(StorageNode::new(NodeId(i), cfg));
    }
    builder.build()
}

/// Crash-before-ack: the cluster dies abruptly with a burst of writes still
/// unacknowledged. After restart, WAL replay must restore *at least* every
/// write that was acknowledged at W=2 (no loss) and must not invent records
/// that were never written (no phantom). Unacked writes may land on either
/// side of the crash — both outcomes are legal.
#[test]
fn crash_before_ack_loses_nothing_acked_and_invents_nothing() {
    let dir = std::env::temp_dir().join(format!("mystore-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // --- first life: 6 acked writes, then a burst cut off by the crash ----
    {
        let cluster = build(&dir, &Registry::new(), Nwr::PAPER);
        std::thread::sleep(Duration::from_millis(400));
        for i in 0..6u64 {
            cluster.send(
                NodeId((i % 3) as u32),
                Msg::Put {
                    req: i,
                    key: format!("acked-{i}"),
                    value: vec![i as u8; 16].into(),
                    delete: false,
                },
            );
        }
        let mut acks = 0;
        while acks < 6 {
            match cluster.recv_timeout(Duration::from_secs(5)) {
                Ok((_, Msg::PutResp { result: Ok(()), .. })) => acks += 1,
                Ok((_, Msg::PutResp { result: Err(e), .. })) => panic!("write failed: {e}"),
                Ok(_) => {}
                Err(e) => panic!("no reply at {acks}/6: {e}"),
            }
        }
        // Fire-and-forget burst; shut down without draining the acks — the
        // coordinator dies somewhere between WAL append and client reply.
        for i in 0..4u64 {
            cluster.send(
                NodeId((i % 3) as u32),
                Msg::Put {
                    req: 50 + i,
                    key: format!("unacked-{i}"),
                    value: vec![0xAB; 16].into(),
                    delete: false,
                },
            );
        }
        cluster.shutdown();
    }

    // --- second life: exactly-the-acked-writes guarantees -----------------
    {
        let cluster = build(&dir, &Registry::new(), Nwr::PAPER);
        std::thread::sleep(Duration::from_millis(400));
        for i in 0..6u64 {
            cluster.send(
                NodeId(((i + 1) % 3) as u32),
                Msg::Get { req: 100 + i, key: format!("acked-{i}") },
            );
        }
        // A key nobody ever wrote must stay absent (no phantom).
        cluster.send(NodeId(0), Msg::Get { req: 200, key: "never-written".into() });
        let (mut got, mut phantom_checked) = (0, false);
        while got < 6 || !phantom_checked {
            match cluster.recv_timeout(Duration::from_secs(5)) {
                Ok((_, Msg::GetResp { req: 200, result })) => {
                    assert!(
                        matches!(result, Ok(None)),
                        "phantom record after recovery: {result:?}"
                    );
                    phantom_checked = true;
                }
                Ok((_, Msg::GetResp { req, result: Ok(Some(v)) })) => {
                    assert_eq!(*v, vec![(req - 100) as u8; 16], "acked value corrupted");
                    got += 1;
                }
                Ok((_, Msg::GetResp { result, .. })) => {
                    panic!("acked write lost across the crash: {result:?}")
                }
                Ok(_) => {}
                Err(e) => panic!("no reply at {got}/6 reads: {e}"),
            }
        }
        cluster.shutdown();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The batch commit must not weaken the ack contract: a `PutResp Ok` means
/// the write's WAL frames were fsynced on at least `W` replicas, so it
/// survives an abrupt cluster death even when the process dies with later
/// frames still staged in an open batch. Reading the second life at `R = 2`
/// (`R + W > N`) touches at least one of the two durable copies regardless
/// of which single replica lost its unsynced tail.
#[test]
fn acked_writes_survive_crash_inside_group_commit_window() {
    let dir = std::env::temp_dir().join(format!("mystore-gc-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // --- first life: 12 acked writes, then an unacked burst, then death ---
    let registry = Registry::new();
    {
        let cluster = build(&dir, &registry, Nwr::PAPER);
        std::thread::sleep(Duration::from_millis(400));
        for i in 0..12u64 {
            cluster.send(
                NodeId((i % 3) as u32),
                Msg::Put {
                    req: i,
                    key: format!("gc-acked-{i}"),
                    value: vec![i as u8; 24].into(),
                    delete: false,
                },
            );
        }
        let mut acks = 0;
        while acks < 12 {
            match cluster.recv_timeout(Duration::from_secs(5)) {
                Ok((_, Msg::PutResp { result: Ok(()), .. })) => acks += 1,
                Ok((_, Msg::PutResp { result: Err(e), .. })) => panic!("write failed: {e}"),
                Ok(_) => {}
                Err(e) => panic!("no reply at {acks}/12: {e}"),
            }
        }
        // A burst the crash cuts off mid-batch: frames may be staged,
        // synced, or never appended — all are legal for unacked writes.
        for i in 0..6u64 {
            cluster.send(
                NodeId((i % 3) as u32),
                Msg::Put {
                    req: 50 + i,
                    key: format!("gc-unacked-{i}"),
                    value: vec![0xCD; 24].into(),
                    delete: false,
                },
            );
        }
        cluster.shutdown();
    }

    // Bursts must actually have batched: fewer real fsyncs than appended
    // frames across the cluster.
    let snap = registry.snapshot();
    let appends = snap.counters.get("wal.appends").copied().unwrap_or(0);
    let fsyncs = snap.counters.get("wal.fsyncs").copied().unwrap_or(0);
    assert!(appends > 0, "writes must append WAL frames");
    assert!(fsyncs < appends, "group commit must sync less than once per op: {fsyncs}/{appends}");

    // --- second life: every acked write is readable at R = 2 --------------
    {
        let registry2 = Registry::new();
        let cluster = build(&dir, &registry2, Nwr { n: 3, w: 2, r: 2 });
        std::thread::sleep(Duration::from_millis(400));
        for i in 0..12u64 {
            cluster.send(
                NodeId(((i + 1) % 3) as u32),
                Msg::Get { req: 100 + i, key: format!("gc-acked-{i}") },
            );
        }
        let mut got = 0;
        while got < 12 {
            match cluster.recv_timeout(Duration::from_secs(5)) {
                Ok((_, Msg::GetResp { req, result: Ok(Some(v)) })) => {
                    assert_eq!(*v, vec![(req - 100) as u8; 24], "acked value corrupted");
                    got += 1;
                }
                Ok((_, Msg::GetResp { result, .. })) => {
                    panic!("acked write lost across the crash: {result:?}")
                }
                Ok(_) => {}
                Err(e) => panic!("no reply at {got}/12 reads: {e}"),
            }
        }
        cluster.shutdown();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn durable_cluster_recovers_after_restart() {
    let dir = std::env::temp_dir().join(format!("mystore-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // --- first life: write a handful of records -------------------------
    {
        let cluster = build(&dir, &Registry::new(), Nwr::PAPER);
        std::thread::sleep(Duration::from_millis(400));
        for i in 0..8u64 {
            cluster.send(
                NodeId((i % 3) as u32),
                Msg::Put {
                    req: i,
                    key: format!("durable-{i}"),
                    value: vec![i as u8; 32].into(),
                    delete: false,
                },
            );
        }
        let mut acks = 0;
        while acks < 8 {
            match cluster.recv_timeout(Duration::from_secs(5)) {
                Ok((_, Msg::PutResp { result: Ok(()), .. })) => acks += 1,
                Ok((_, Msg::PutResp { result: Err(e), .. })) => panic!("write failed: {e}"),
                Ok(_) => {}
                Err(e) => panic!("no reply at {acks}/8: {e}"),
            }
        }
        cluster.shutdown();
    }
    // WAL files exist.
    for i in 0..3 {
        let p = dir.join(format!("node{i}.wal"));
        assert!(p.exists(), "missing {p:?}");
        assert!(std::fs::metadata(&p).unwrap().len() > 0);
    }

    // --- second life: everything is readable again ----------------------
    {
        let cluster = build(&dir, &Registry::new(), Nwr::PAPER);
        std::thread::sleep(Duration::from_millis(400));
        for i in 0..8u64 {
            cluster.send(
                NodeId(((i + 1) % 3) as u32),
                Msg::Get { req: 100 + i, key: format!("durable-{i}") },
            );
        }
        let mut got = 0;
        while got < 8 {
            match cluster.recv_timeout(Duration::from_secs(5)) {
                Ok((_, Msg::GetResp { req, result: Ok(Some(v)) })) => {
                    assert_eq!(*v, vec![(req - 100) as u8; 32]);
                    got += 1;
                }
                Ok((_, Msg::GetResp { result, .. })) => panic!("read lost data: {result:?}"),
                Ok(_) => {}
                Err(e) => panic!("no reply at {got}/8 reads: {e}"),
            }
        }
        cluster.shutdown();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One commit path, two sides of a write. The coordinator commits its own
/// copy before its `StoreReplica` sends leave, so its fsync never overlaps
/// its replicas'; a replica only stages the write, and its ack waits for
/// the end-of-batch commit. (Before the batch commit, the replica synced
/// and acked inside the handler.)
#[test]
fn coordinator_commits_before_the_fan_out_and_replicas_ack_at_batch_end() {
    let dir = std::env::temp_dir().join(format!("mystore-fanout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut spec = ClusterSpec::small(3);
    spec.storage.data_dir = Some(dir.clone());
    let mut sim = spec.build_sim(SimConfig { seed: 5, ..SimConfig::default() });
    sim.start();
    sim.run_for(3_000_000);
    let now = sim.now();
    let client = NodeId(99);
    let mut rng = Rng::new(1);

    // The coordinator's handler: its copy is durable, then the sends leave.
    let node = sim.process_mut::<StorageNode>(NodeId(0)).expect("storage node 0");
    assert_eq!(node.ring().len(), 3, "ring must have converged");
    let mut actions = Vec::new();
    let put = Msg::Put { req: 7, key: "fanout".into(), value: vec![1u8; 64].into(), delete: false };
    node.on_message(&mut Context::new(now, NodeId(0), &mut actions, &mut rng, None), client, put);
    assert_eq!(node.db().wal_pending_ops(), 0, "own copy must be synced before the fan-out");
    let sends: Vec<(NodeId, Msg)> = actions
        .into_iter()
        .filter_map(|a| match a {
            Action::Send { to, msg: msg @ Msg::StoreReplica { .. } } => Some((to, msg)),
            _ => None,
        })
        .collect();
    assert_eq!(sends.iter().map(|s| s.0).collect::<Vec<_>>(), [NodeId(1), NodeId(2)]);

    // A replica stages the write and parks its ack until the batch commit.
    let (to, store) = sends.into_iter().next().expect("a replica write");
    let Msg::StoreReplica { req, .. } = store else { unreachable!() };
    let replica = sim.process_mut::<StorageNode>(to).expect("replica node");
    let mut actions = Vec::new();
    replica.on_message(&mut Context::new(now, to, &mut actions, &mut rng, None), NodeId(0), store);
    assert_eq!(replica.db().wal_pending_ops(), 1, "the replica's frame must be staged");
    assert!(actions.is_empty(), "the replica acked before its sync: {actions:?}");
    replica.on_batch_end(&mut Context::new(now, to, &mut actions, &mut rng, None));
    assert_eq!(replica.db().wal_pending_ops(), 0);
    assert!(matches!(
        actions.as_slice(),
        [Action::Send { to: NodeId(0), msg: Msg::StoreAck { req: r, ok: true } }] if *r == req
    ));

    // That ack plus the coordinator's own copy make W = 2.
    let node = sim.process_mut::<StorageNode>(NodeId(0)).expect("storage node 0");
    let mut actions = Vec::new();
    let ack = Msg::StoreAck { req, ok: true };
    node.on_message(&mut Context::new(now, NodeId(0), &mut actions, &mut rng, None), to, ack);
    assert!(actions.iter().any(|a| matches!(
        a,
        Action::Send { to, msg: Msg::PutResp { req: 7, result: Ok(()) } } if *to == client
    )));
    drop(sim);
    std::fs::remove_dir_all(&dir).unwrap();
}
