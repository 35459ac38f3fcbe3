//! Seeded chaos runs on the deterministic simulator: a scripted fault
//! schedule kills one of N=3 replicas mid-workload, and the cluster must
//! sustain W=2 writes and R=1 reads with zero client-visible errors, park
//! hints for the dead replica, and replay them once it rejoins — all
//! observable through the shared metrics registry (`/_stats`).

use mystore_core::prelude::*;
use mystore_core::testing::Probe;
use mystore_net::{
    FaultPlan, FaultSchedule, LinkFaultRule, NetConfig, NodeConfig, NodeId, Sim, SimConfig, SimTime,
};
use mystore_obs::Registry;

fn sim_config(seed: u64) -> SimConfig {
    SimConfig { net: NetConfig::gigabit_lan(), faults: FaultPlan::none(), seed }
}

fn put(req: u64, key: &str, value: &[u8]) -> Msg {
    Msg::Put { req, key: key.into(), value: value.to_vec().into(), delete: false }
}

fn get(req: u64, key: &str) -> Msg {
    Msg::Get { req, key: key.into() }
}

/// Builds a 3-node storage cluster plus a probe, sharing one registry.
fn chaos_cluster(
    seed: u64,
    script: Vec<(u64, NodeId, Msg)>,
) -> (Sim<Msg>, Registry, ClusterSpec, NodeId) {
    let spec = ClusterSpec::small(3);
    let (mut sim, registry) = spec.build_sim_with_metrics(sim_config(seed));
    let probe = sim.add_node(Probe::new(script), NodeConfig::default());
    (sim, registry, spec, probe)
}

fn total_hints(sim: &Sim<Msg>, spec: &ClusterSpec) -> usize {
    spec.storage_ids().iter().map(|&id| sim.process::<StorageNode>(id).unwrap().hint_count()).sum()
}

fn total_inflight_replays(sim: &Sim<Msg>, spec: &ClusterSpec) -> usize {
    spec.storage_ids()
        .iter()
        .map(|&id| sim.process::<StorageNode>(id).unwrap().inflight_hint_replays())
        .sum()
}

/// The PR's acceptance scenario: a parsed fault schedule kills replica 2
/// for six seconds in the middle of a write workload. Every PUT (W=2) and
/// every GET (R=1) must succeed, hints must be parked and then replayed to
/// the rejoined node, and the `fault.*` / `hint.*` counters must record it.
#[test]
fn seeded_chaos_kill_sustains_quorum_with_zero_client_errors() {
    let warm = 5_000_000u64;
    // 30 writes through the two surviving coordinators spanning the crash
    // window, then reads once the victim is back and hints have replayed.
    let mut script: Vec<(u64, NodeId, Msg)> = (0..30u64)
        .map(|i| {
            (warm + 500_000 + i * 100_000, NodeId((i % 2) as u32), put(i, &format!("c{i}"), b"v"))
        })
        .collect();
    for i in 0..30u64 {
        script.push((
            16_000_000 + i * 20_000,
            NodeId(((i + 1) % 2) as u32),
            get(100 + i, &format!("c{i}")),
        ));
    }
    let (mut sim, registry, spec, probe) = chaos_cluster(777, script);

    // Scripted fault: node 2 dies at t=6s and restarts at t=12s.
    let schedule = FaultSchedule::parse("6000000 crash 2 6000000").expect("valid schedule");
    sim.apply_schedule(&schedule);
    sim.start();
    sim.run_for(20_000_000);

    let p = sim.process::<Probe>(probe).unwrap();
    assert_eq!(
        p.count_where(|m| matches!(m, Msg::PutResp { result: Ok(()), .. })),
        30,
        "every W=2 write must succeed despite the dead replica"
    );
    assert_eq!(
        p.count_where(|m| matches!(m, Msg::GetResp { result: Ok(Some(_)), .. })),
        30,
        "every R=1 read must return the value"
    );
    assert_eq!(
        p.count_where(|m| matches!(
            m,
            Msg::PutResp { result: Err(_), .. } | Msg::GetResp { result: Err(_), .. }
        )),
        0,
        "zero client-visible errors"
    );

    let snap = registry.snapshot();
    assert_eq!(snap.counters.get("fault.crashes").copied(), Some(1));
    assert_eq!(snap.counters.get("fault.restarts").copied(), Some(1));
    assert!(snap.counters.get("node.restarts").copied().unwrap_or(0) >= 1);
    assert!(
        snap.counters.get("hint.stored").copied().unwrap_or(0) >= 1,
        "writes during the outage must park hints: {:?}",
        snap.counters
    );
    assert!(
        snap.counters.get("hint.replayed").copied().unwrap_or(0) >= 1,
        "hints must replay after the node rejoins: {:?}",
        snap.counters
    );
    assert_eq!(
        snap.gauges.get("hint.queue_depth").copied(),
        Some(0),
        "hint queue must drain after replay"
    );
    assert_eq!(total_hints(&sim, &spec), 0);

    // With 3 nodes every key has all three as replicas: WAL replay plus
    // hint replay must leave the rejoined victim fully caught up.
    assert_eq!(
        sim.process::<StorageNode>(NodeId(2)).unwrap().record_count(),
        30,
        "victim must hold every record after WAL replay + hint replay"
    );
}

/// Conditional puts under the PR-2 acceptance chaos: the same seeded
/// kill-1-of-3 schedule, but the workload is a chain of CAS operations —
/// each conditions on the version the previous one produced. With the
/// client as the only writer, every predicate must hold: zero conflicts,
/// zero errors, across the crash window (W=2 still reachable) and the
/// rejoin. Afterwards hint replay must leave the rejoined victim holding
/// the final version.
#[test]
fn seeded_chaos_kill_sustains_cas_chain_with_zero_client_errors() {
    use mystore_core::testing::CasProbe;

    let warm = 5_000_000u64;
    let spec = ClusterSpec::small(3);
    let (mut sim, registry) = spec.build_sim_with_metrics(sim_config(777));
    // 60 chained CAS ops at 150 ms intervals: starts before the crash,
    // spans the 6s–12s outage, finishes after the victim rejoins.
    let probe = sim.add_node(
        CasProbe::new(vec![NodeId(0), NodeId(1)], "cas-chain", warm + 500_000, 60),
        NodeConfig::default(),
    );
    let schedule = FaultSchedule::parse("6000000 crash 2 6000000").expect("valid schedule");
    sim.apply_schedule(&schedule);
    sim.start();
    sim.run_for(20_000_000);

    let p = sim.process::<CasProbe>(probe).unwrap();
    assert_eq!(
        p.oks, 60,
        "every conditional put must succeed: ok={} conflicts={} errors={}",
        p.oks, p.conflicts, p.errors
    );
    assert_eq!(p.conflicts, 0, "a single sequential writer must never see a conflict");
    assert_eq!(p.errors, 0, "zero client-visible errors through the crash window");

    let snap = registry.snapshot();
    assert_eq!(snap.counters.get("cas.ok").copied(), Some(60));
    assert_eq!(snap.counters.get("cas.conflicts").copied().unwrap_or(0), 0);
    assert_eq!(snap.counters.get("fault.crashes").copied(), Some(1));
    assert!(
        snap.counters.get("hint.stored").copied().unwrap_or(0) >= 1,
        "CAS writes during the outage must park hints: {:?}",
        snap.counters
    );

    // The rejoined victim must converge on the chain's final version.
    let rec = sim
        .process::<StorageNode>(NodeId(2))
        .unwrap()
        .db()
        .get_record("data", "cas-chain")
        .unwrap()
        .expect("victim must hold the record after hint replay");
    assert_eq!(rec.version, p.expected, "victim must hold the final CAS version");
}

/// The group commit under a crash inside a sync. Replica 2's syncs take
/// 20 ms; six bursts of 16 writes each reach it within a millisecond, so
/// its frames and acks pile up behind a sync in flight. It is crashed at
/// nine offsets spread from the start of the fourth burst's first sync to
/// that sync's completion — the crash model discards what was not yet
/// durable and the parked acks with it. At every offset every acked write
/// must still be readable and the rejoined replica must catch up; only
/// unacked writes may land on either side of the crash.
#[test]
fn group_commit_crash_loses_only_unacked_writes() {
    const PENALTY_US: u64 = 20_000;
    const OFFSETS: u64 = 9;
    let warm = 5_000_000u64;
    let fourth_burst = warm + 500_000 + 3 * 200_000;
    // Six bursts of 16 writes, each sent to one coordinator at once: twice
    // its eight servers, so writes queue and share syncs everywhere.
    let mut script: Vec<(u64, NodeId, Msg)> = Vec::new();
    for burst in 0..6u64 {
        for j in 0..16u64 {
            let i = burst * 16 + j;
            script.push((
                warm + 500_000 + burst * 200_000,
                NodeId((burst % 2) as u32),
                put(i, &format!("gc{i}"), b"batched"),
            ));
        }
    }
    for i in 0..96u64 {
        script.push((
            16_000_000 + i * 20_000,
            NodeId(((i + 1) % 2) as u32),
            get(100 + i, &format!("gc{i}")),
        ));
    }
    let cluster = |crash_at: Option<u64>| {
        let (mut sim, registry, _spec, probe) = chaos_cluster(4311, script.clone());
        sim.schedule_disk_penalty(SimTime(warm), NodeId(2), PENALTY_US);
        if let Some(at) = crash_at {
            sim.schedule_crash(SimTime(at), NodeId(2), Some(6_000_000));
        }
        sim.start();
        (sim, registry, probe)
    };
    let victim = |sim: &Sim<Msg>| {
        let node = sim.process::<StorageNode>(NodeId(2)).unwrap();
        (node.sync_in_flight(), node.parked_acks())
    };

    // Find when the fourth burst's first sync starts on replica 2.
    let sync_start = {
        let (mut sim, _, _) = cluster(None);
        let mut t = fourth_burst;
        sim.run_until(SimTime(t));
        while !victim(&sim).0 {
            t += 10;
            assert!(t < fourth_burst + 10_000, "replica 2 never started a sync");
            sim.run_until(SimTime(t));
        }
        t
    };

    let mut landed_mid_sync = 0;
    for k in 0..OFFSETS {
        let crash_at = sync_start + k * PENALTY_US / (OFFSETS - 1);
        let (mut sim, registry, probe) = cluster(Some(crash_at));
        sim.run_until(SimTime(crash_at - 1));
        let (syncing, parked) = victim(&sim);
        if syncing && parked > 0 {
            landed_mid_sync += 1;
        }
        sim.run_until(SimTime(20_000_000));

        let p = sim.process::<Probe>(probe).unwrap();
        let count = |f: fn(&Msg) -> bool| p.count_where(f);
        assert_eq!(
            count(|m| matches!(m, Msg::PutResp { result: Ok(()), .. })),
            96,
            "offset {k}: every W=2 write must succeed despite the crash"
        );
        assert_eq!(
            count(|m| matches!(m, Msg::GetResp { result: Ok(Some(_)), .. })),
            96,
            "offset {k}: every acked write must survive a crash inside the sync"
        );
        assert_eq!(
            count(|m| matches!(
                m,
                Msg::PutResp { result: Err(_), .. } | Msg::GetResp { result: Err(_), .. }
            )),
            0,
            "offset {k}: zero client-visible errors"
        );
        let snap = registry.snapshot();
        let appends = snap.counters.get("wal.appends").copied().unwrap_or(0);
        let fsyncs = snap.counters.get("wal.fsyncs").copied().unwrap_or(0);
        assert!(fsyncs < appends, "offset {k}: bursts must share syncs: {fsyncs}/{appends}");
        // Read repair + hint replay must leave the rejoined victim caught up.
        assert_eq!(
            sim.process::<StorageNode>(NodeId(2)).unwrap().record_count(),
            96,
            "offset {k}: victim must hold every record after recovery"
        );
    }
    assert!(landed_mid_sync > 0, "no crash landed with a sync in flight and acks parked");
}

/// A degraded disk costs its penalty once per WAL sync, and one sync
/// covers every frame staged before it began. With one sync in flight at a
/// time, a 16-write burst against a replica whose syncs take 50 ms costs
/// exactly two: the first `StoreReplica` to arrive ends a batch with no
/// sync in flight and starts sync 1 alone (the rest of the burst lands
/// within a few milliseconds, long before it completes); when it
/// completes, everything staged meanwhile starts sync 2 at once, and
/// nothing is left after that. So the replica's WAL is durable after two
/// penalties. Charging per frame would take 16, and skipping the penalty
/// none.
#[test]
fn slow_disk_penalty_is_charged_once_per_commit() {
    const PENALTY_US: u64 = 50_000;
    const BURST: u64 = 16;
    let warm = 5_000_000u64;
    let script: Vec<(u64, NodeId, Msg)> = (0..BURST)
        .map(|i| (warm + 100_000, NodeId(0), put(i, &format!("slow{i}"), b"burst")))
        .collect();
    let (mut sim, registry, _spec, probe) = chaos_cluster(4312, script);
    sim.schedule_disk_penalty(SimTime(warm), NodeId(2), PENALTY_US);
    sim.start();
    // Step through the burst in 1 ms slices, noting when replica 2's
    // non-durable frame count drops: each drop is one completed sync.
    sim.run_until(SimTime(warm + 100_000));
    let pending = |sim: &Sim<Msg>| {
        sim.process::<StorageNode>(NodeId(2)).unwrap().db().wal_pending_ops() as u64
    };
    let (mut last, mut first_staged, mut syncs) = (pending(&sim), None, Vec::new());
    for ms in 1..=1_000u64 {
        let t = warm + 100_000 + ms * 1_000;
        sim.run_until(SimTime(t));
        let now = pending(&sim);
        if now > 0 && first_staged.is_none() {
            first_staged = Some(t);
        }
        if now < last {
            syncs.push((t, last - now));
        }
        last = now;
    }
    let first_staged = first_staged.expect("replica 2 never staged the burst");
    assert_eq!(last, 0, "replica 2 must end durable");
    assert_eq!(syncs.len(), 2, "{BURST} frames must take two syncs: {syncs:?}");
    assert_eq!(syncs.iter().map(|s| s.1).sum::<u64>(), BURST);
    let durable_after = syncs[1].0 - first_staged;
    assert!(
        (2 * PENALTY_US..2 * PENALTY_US + 5_000).contains(&durable_after),
        "two penalties, back to back: durable {durable_after} µs after the first frame"
    );

    let p = sim.process::<Probe>(probe).unwrap();
    let ok = p.count_where(|m| matches!(m, Msg::PutResp { result: Ok(()), .. }));
    assert_eq!(ok as u64, BURST);
    let h = &registry.snapshot().histograms["wal.batch_ops"];
    assert!(h.max > 1, "no sync covered more than one frame: {h:?}");
}

/// Regression for the hint-ack leak: the replay target dies again while a
/// replayed hint is in flight. The in-flight entry must be swept after the
/// request deadline (not leak forever), the hint must stay parked, and a
/// later replay must re-deliver it once the target is back for good.
#[test]
fn hint_replay_to_node_killed_mid_replay_is_swept_and_redelivered() {
    let warm = 5_000_000u64;
    let (mut sim, registry, spec, probe) = chaos_cluster(
        778,
        vec![(warm + 500_000, NodeId(0), put(1, "leaky-hint", b"redeliver-me"))],
    );
    // Victim 2 is down for the write (hint parked on coordinator 0), comes
    // back at 7.2s — but the hint holder's 6s replay tick fires while the
    // holder still believes it alive (gossip has not yet declared it down),
    // so that replayed hint is lost against the crashed node.
    sim.schedule_crash(SimTime(warm + 200_000), NodeId(2), Some(2_000_000));
    sim.start();
    sim.run_for(6_500_000);

    assert!(total_hints(&sim, &spec) >= 1, "hint must be parked while the victim is down");
    assert_eq!(
        total_inflight_replays(&sim, &spec),
        1,
        "the 6s replay tick must have a hint in flight against the crashed node"
    );

    // Later ticks sweep the expired in-flight entry and re-deliver once the
    // restarted victim is seen alive again.
    sim.run_for(8_500_000);
    let snap = registry.snapshot();
    assert!(
        snap.counters.get("hint.replay_expired").copied().unwrap_or(0) >= 1,
        "expired in-flight replay must be swept, not leaked: {:?}",
        snap.counters
    );
    assert!(snap.counters.get("hint.replayed").copied().unwrap_or(0) >= 1);
    assert_eq!(total_inflight_replays(&sim, &spec), 0, "no in-flight entries may leak");
    assert_eq!(total_hints(&sim, &spec), 0, "hint must be discharged after re-delivery");
    assert_eq!(snap.gauges.get("hint.queue_depth").copied(), Some(0));
    let rec = sim.process::<StorageNode>(NodeId(2)).unwrap().db().get_record("data", "leaky-hint");
    assert!(rec.unwrap().is_some(), "the hint must reach the restarted victim");
    let p = sim.process::<Probe>(probe).unwrap();
    assert!(matches!(p.response_for(1), Some(Msg::PutResp { result: Ok(()), .. })));
}

/// ROADMAP 3(ii), hints are only as reachable as their fallback: under a
/// non-transitive cut, gossip relayed through the other nodes keeps the
/// coordinator's first fallback alive although the coordinator cannot reach
/// it. The hint sent there is never acked, so it must be re-diverted to the
/// next fallback — otherwise the rejoined replica never learns the acked
/// write and an R=1 read served by it misses (`chaos` seeds 4/5/42).
#[test]
fn hint_sent_across_a_cut_is_rediverted_to_a_reachable_fallback() {
    let warm = 5_000_000u64;
    let seed = 780;
    let spec = ClusterSpec::small(5);
    let coord = NodeId(0);
    // Placement is a pure function of membership: read the converged ring
    // off a warm-up run, and pick a key the coordinator itself replicates,
    // so both fallbacks beyond its preference list are other nodes.
    let ring = {
        let mut sim = spec.build_sim(sim_config(seed));
        sim.start();
        sim.run_for(warm);
        sim.process::<StorageNode>(coord).unwrap().ring().clone()
    };
    let (key, prefs) = (0..)
        .map(|i| format!("redivert-{i}"))
        .map(|k| {
            let prefs = ring.preference_list(k.as_bytes(), 3);
            (k, prefs)
        })
        .find(|(_, prefs)| prefs.contains(&coord))
        .unwrap();
    let victim = *prefs.iter().find(|&&n| n != coord).unwrap();
    let point = mystore_ring::HashRing::<NodeId>::key_point(key.as_bytes());
    let walk = ring.successors_of_point(point, ring.len());
    let unreachable = *walk.iter().find(|n| !prefs.contains(n)).unwrap();

    let (mut sim, registry) = spec.build_sim_with_metrics(sim_config(seed));
    let probe = sim.add_node(
        Probe::new(vec![(warm + 500_000, coord, put(1, &key, b"via-second-fallback"))]),
        NodeConfig::default(),
    );
    sim.schedule_link(SimTime(warm), coord, unreachable, false);
    sim.schedule_crash(SimTime(warm + 200_000), victim, Some(3_000_000));
    sim.start();
    // The victim is back at 8.2 s and a hint replay tick finds it; the
    // first anti-entropy round (≥ 15 s) must not be what repairs it.
    sim.run_until(SimTime(14_000_000));

    let p = sim.process::<Probe>(probe).unwrap();
    assert!(matches!(p.response_for(1), Some(Msg::PutResp { result: Ok(()), .. })));
    let rec = sim.process::<StorageNode>(victim).unwrap().db().get_record("data", &key);
    assert!(rec.unwrap().is_some(), "the hint must reach the rejoined replica {victim:?}");
    let snap = registry.snapshot();
    assert!(
        snap.counters.get("hint.handoffs").copied().unwrap_or(0) >= 2,
        "the unacked hint must be re-diverted: {:?}",
        snap.counters
    );
}

/// Regression for the `hint.queue_depth` underflow: with every message
/// between storage nodes duplicated, hint replays and their acks arrive
/// twice. The double discharge must be ignored (the hint is only removed
/// once) and the gauge must never go negative.
#[test]
fn duplicated_acks_never_drive_hint_queue_depth_negative() {
    let warm = 5_000_000u64;
    let (mut sim, registry, spec, _probe) =
        chaos_cluster(779, vec![(warm + 500_000, NodeId(0), put(1, "dup-hint", b"once-only"))]);
    let dup = LinkFaultRule { p_dup: 1.0, ..LinkFaultRule::none() };
    for a in 0..3u32 {
        for b in (a + 1)..3u32 {
            sim.schedule_chaos(SimTime(0), NodeId(a), NodeId(b), dup);
        }
    }
    sim.schedule_crash(SimTime(warm + 200_000), NodeId(2), Some(3_000_000));
    sim.start();

    for _ in 0..32 {
        sim.run_for(500_000);
        let depth = registry.snapshot().gauges.get("hint.queue_depth").copied().unwrap_or(0);
        assert!(depth >= 0, "hint.queue_depth went negative: {depth}");
    }

    let snap = registry.snapshot();
    assert!(snap.counters.get("fault.msg.duplicated").copied().unwrap_or(0) >= 1);
    assert!(snap.counters.get("hint.replayed").copied().unwrap_or(0) >= 1);
    assert_eq!(snap.gauges.get("hint.queue_depth").copied(), Some(0));
    assert_eq!(total_hints(&sim, &spec), 0);
    let rec = sim.process::<StorageNode>(NodeId(2)).unwrap().db().get_record("data", "dup-hint");
    assert!(rec.unwrap().is_some());
}

/// A crashed node loses its in-memory state; on restart it must rebuild the
/// database by replaying its WAL and rejoin gossip with a bumped boot
/// generation (peers must not treat it as the dead incarnation).
#[test]
fn crash_restart_replays_wal_and_rejoins_with_bumped_generation() {
    let warm = 5_000_000u64;
    let script: Vec<(u64, NodeId, Msg)> = (0..20u64)
        .map(|i| (warm + i * 50_000, NodeId((i % 2) as u32), put(i, &format!("w{i}"), b"durable")))
        .collect();
    let (mut sim, registry, _spec, probe) = chaos_cluster(780, script);
    sim.start();
    // All writes fully replicate while everyone is up.
    sim.run_for(warm + 3_000_000);
    assert_eq!(sim.process::<StorageNode>(NodeId(2)).unwrap().record_count(), 20);

    // Crash + restart; no writes happen while it is down, so everything it
    // has afterwards came from its own log replay.
    sim.schedule_crash(sim.now() + 1, NodeId(2), Some(3_000_000));
    sim.run_for(20_000_000);

    assert_eq!(
        sim.process::<StorageNode>(NodeId(2)).unwrap().record_count(),
        20,
        "restart must replay the WAL, not come back empty"
    );
    let snap = registry.snapshot();
    assert_eq!(snap.counters.get("node.restarts").copied(), Some(1));
    // The restarted node rejoined (peers see it up again) rather than being
    // stuck as a stale incarnation.
    for id in [NodeId(0), NodeId(1)] {
        assert!(
            sim.process::<StorageNode>(id).unwrap().believes_alive(NodeId(2)),
            "{id} must see the restarted node alive"
        );
    }
    let p = sim.process::<Probe>(probe).unwrap();
    assert_eq!(p.count_where(|m| matches!(m, Msg::PutResp { result: Ok(()), .. })), 20);
}

/// The same seed and fault schedule must produce the identical run — the
/// whole point of seeded chaos: any failure is replayable.
#[test]
fn chaos_run_is_deterministic_for_a_seed() {
    let run = || {
        let warm = 5_000_000u64;
        let script: Vec<(u64, NodeId, Msg)> = (0..20u64)
            .map(|i| (warm + i * 100_000, NodeId(0), put(i, &format!("det{i}"), b"v")))
            .collect();
        let (mut sim, registry, spec, _probe) = chaos_cluster(4242, script);
        // A lossy coordinator↔replica link plus a mid-workload crash.
        let lossy = LinkFaultRule { p_drop: 0.4, ..LinkFaultRule::none() };
        sim.schedule_chaos(SimTime(0), NodeId(0), NodeId(1), lossy);
        sim.schedule_crash(SimTime(warm + 900_000), NodeId(2), Some(4_000_000));
        sim.start();
        sim.run_for(20_000_000);
        let counts: Vec<usize> = spec
            .storage_ids()
            .iter()
            .map(|&id| sim.process::<StorageNode>(id).unwrap().record_count())
            .collect();
        let snap = registry.snapshot();
        (
            counts,
            snap.counters.get("fault.msg.dropped").copied().unwrap_or(0),
            snap.counters.get("retry.put.resends").copied().unwrap_or(0),
            snap.counters.get("hint.replayed").copied().unwrap_or(0),
        )
    };
    let first = run();
    assert!(first.1 >= 1, "the lossy link must drop something: {first:?}");
    assert!(first.2 >= 1, "dropped replica ops must trigger retries: {first:?}");
    assert_eq!(first, run(), "same seed + same schedule must replay identically");
}

/// Strong determinism regression: the *entire* observable output of a
/// chaos run — every trace event in order, every counter, every gauge,
/// and every histogram count — must be byte-identical across two runs
/// with the same seed and schedule. This is what catches nondeterminism
/// that aggregate checks miss: a `HashMap` iteration feeding fan-out
/// order, a wall-clock read leaking into an id, a racy tick.
///
/// Histogram sums/percentiles are deliberately excluded: duration
/// metrics (`wal.append_us`, `wal.sync_us`) are measured with a real
/// stopwatch, so their *values* vary run-to-run while their *counts*
/// must not.
#[test]
fn full_trace_and_metrics_replay_identically_for_a_seed() {
    let run = || {
        let warm = 5_000_000u64;
        let mut script: Vec<(u64, NodeId, Msg)> = (0..25u64)
            .map(|i| {
                (warm + i * 80_000, NodeId((i % 2) as u32), put(i, &format!("tr{i}"), b"trace"))
            })
            .collect();
        for i in 0..25u64 {
            script.push((
                15_000_000 + i * 30_000,
                NodeId(((i + 1) % 2) as u32),
                get(100 + i, &format!("tr{i}")),
            ));
        }
        let (mut sim, registry, spec, _probe) = chaos_cluster(9182, script);
        // Loss, duplication, and a crash/restart all in one schedule so the
        // run exercises retries, hint parking, replay, and WAL recovery.
        let lossy = LinkFaultRule { p_drop: 0.3, p_dup: 0.2, ..LinkFaultRule::none() };
        sim.schedule_chaos(SimTime(0), NodeId(0), NodeId(1), lossy);
        sim.schedule_crash(SimTime(warm + 700_000), NodeId(2), Some(4_000_000));
        sim.start();
        sim.run_for(20_000_000);

        let mut out = String::new();
        for e in sim.trace().events() {
            // `to_bits` so two runs must agree on the exact f64, not a
            // formatted approximation.
            out.push_str(&format!(
                "ev {} {} {} {:#x}\n",
                e.time.0,
                e.node.0,
                e.name,
                e.value.to_bits()
            ));
        }
        let snap = registry.snapshot();
        for (name, v) in &snap.counters {
            out.push_str(&format!("ctr {name} {v}\n"));
        }
        for (name, v) in &snap.gauges {
            out.push_str(&format!("gauge {name} {v}\n"));
        }
        for (name, h) in &snap.histograms {
            out.push_str(&format!("hist {name} count={}\n", h.count));
        }
        for &id in &spec.storage_ids() {
            let n = sim.process::<StorageNode>(id).unwrap();
            out.push_str(&format!("records {} {}\n", id.0, n.record_count()));
        }
        out
    };
    let first = run();
    assert!(first.contains("ctr fault.msg.dropped"), "chaos must actually bite:\n{first}");
    let second = run();
    if first != second {
        // Point at the first divergent line rather than dumping both runs.
        let diverged = first
            .lines()
            .zip(second.lines())
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("run1: {a}\nrun2: {b}"))
            .unwrap_or_else(|| "traces differ in length".to_string());
        panic!("same seed produced a different run:\n{diverged}");
    }
}
