//! Durable nodes: a threaded cluster with `data_dir` set recovers its
//! records across a full process-model restart, and acks only what a
//! completed WAL sync has made durable.

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

/// Drives one handler of a node by hand and returns the actions it emitted.
fn drive(
    sim: &mut mystore_net::Sim<Msg>,
    id: NodeId,
    handler: impl FnOnce(&mut StorageNode, &mut Context<'_, Msg>),
) -> Vec<Action<Msg>> {
    let now = sim.now();
    let node = sim.process_mut::<StorageNode>(id).expect("storage node");
    let (mut actions, mut rng) = (Vec::new(), Rng::new(u64::from(id.0)));
    handler(node, &mut Context::new(now, id, &mut actions, &mut rng, None));
    actions
}

/// Runs the file sync a node's `on_batch_end` started, if it started one,
/// and returns its outcome.
fn run_started_sync(actions: Vec<Action<Msg>>) -> Option<bool> {
    actions.into_iter().find_map(|a| match a {
        Action::Sync { job } => Some(job.expect("a file WAL hands out a file to sync").run()),
        _ => None,
    })
}

fn is_put_ok(actions: &[Action<Msg>], req: u64) -> bool {
    actions.iter().any(|a| {
        matches!(a, Action::Send { msg: Msg::PutResp { req: r, result: Ok(()) }, .. } if *r == req)
    })
}

/// One commit ordering, and the sync off the handler. The coordinator
/// stages its own copy and its `StoreReplica`s leave while that frame is
/// still above its durable watermark; the copy counts toward `W` only when
/// its sync completes, and a failed sync answers what it covered
/// `ok: false`. (Before the split commit, the coordinator synced its copy
/// inside the handler, before the sends.)
#[test]
fn coordinator_fans_out_before_its_sync_completes() {
    let dir = std::env::temp_dir().join(format!("mystore-fanout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut spec = ClusterSpec::small(3);
    spec.storage.data_dir = Some(dir.clone());
    let mut sim = spec.build_sim(SimConfig { seed: 5, ..SimConfig::default() });
    sim.start();
    sim.run_for(3_000_000);
    let (coord, client) = (NodeId(0), NodeId(99));
    let put = |req: u64| Msg::Put {
        req,
        key: format!("fanout-{req}"),
        value: vec![1u8; 64].into(),
        delete: false,
    };

    // The coordinator's handler: the sends leave with its own frame staged.
    let actions = drive(&mut sim, coord, |n, ctx| {
        assert_eq!(n.ring().len(), 3, "ring must have converged");
        n.on_message(ctx, client, put(7));
        assert_eq!(n.db().wal_pending_ops(), 1, "own frame must still be staged at send time");
        assert!(n.db().wal_durable_pos() < n.db().wal_end_pos());
    });
    let sends: Vec<(NodeId, Msg)> = actions
        .into_iter()
        .filter_map(|a| match a {
            Action::Send { to, msg: msg @ Msg::StoreReplica { .. } } => Some((to, msg)),
            _ => None,
        })
        .collect();
    assert_eq!(sends.iter().map(|s| s.0).collect::<Vec<_>>(), [NodeId(1), NodeId(2)]);
    let coord_sync = drive(&mut sim, coord, |n, ctx| n.on_batch_end(ctx));

    // A replica stages the write; its ack waits for its own sync.
    let (to, store) = sends.into_iter().next().expect("a replica write");
    let Msg::StoreReplica { req, .. } = store.clone() else { unreachable!() };
    let staged = drive(&mut sim, to, |n, ctx| n.on_message(ctx, coord, store));
    assert!(staged.is_empty(), "the replica acked before its sync: {staged:?}");
    let ok = run_started_sync(drive(&mut sim, to, |n, ctx| n.on_batch_end(ctx)));
    let acked = drive(&mut sim, to, |n, ctx| n.on_sync_done(ctx, ok.expect("sync started")));
    assert!(matches!(
        acked.as_slice(),
        [Action::Send { to: NodeId(0), msg: Msg::StoreAck { req: r, ok: true } }] if *r == req
    ));

    // One replica ack alone is not W = 2; the coordinator's completed sync
    // makes it W.
    let ack = Msg::StoreAck { req, ok: true };
    let early = drive(&mut sim, coord, |n, ctx| n.on_message(ctx, to, ack));
    assert!(!is_put_ok(&early, 7), "W met before the coordinator's copy was durable");
    let ok = run_started_sync(coord_sync).expect("the coordinator started a sync");
    let done = drive(&mut sim, coord, |n, ctx| {
        n.on_sync_done(ctx, ok);
        assert_eq!(n.db().wal_pending_ops(), 0);
    });
    assert!(is_put_ok(&done, 7), "the completed sync must make W: {done:?}");

    // A failed sync answers what it covered `ok: false`: the replica's ack
    // says so, and the coordinator's own copy does not count.
    let sends = drive(&mut sim, coord, |n, ctx| n.on_message(ctx, client, put(8)));
    drive(&mut sim, coord, |n, ctx| n.on_batch_end(ctx));
    let store = sends
        .into_iter()
        .find_map(|a| match a {
            Action::Send { to: t, msg: msg @ Msg::StoreReplica { .. } } if t == to => Some(msg),
            _ => None,
        })
        .expect("a replica write to the same replica");
    let Msg::StoreReplica { req, .. } = store.clone() else { unreachable!() };
    drive(&mut sim, to, |n, ctx| n.on_message(ctx, coord, store));
    drive(&mut sim, to, |n, ctx| n.on_batch_end(ctx));
    let failed = drive(&mut sim, to, |n, ctx| n.on_sync_done(ctx, false));
    assert!(matches!(
        failed.as_slice(),
        [Action::Send { to: NodeId(0), msg: Msg::StoreAck { req: r, ok: false } }] if *r == req
    ));
    let failed = drive(&mut sim, coord, |n, ctx| {
        n.on_sync_done(ctx, false);
        n.on_message(ctx, to, Msg::StoreAck { req, ok: true });
    });
    assert!(!is_put_ok(&failed, 8), "a failed own sync must not count toward W: {failed:?}");
    drop(sim);
    std::fs::remove_dir_all(&dir).unwrap();
}
