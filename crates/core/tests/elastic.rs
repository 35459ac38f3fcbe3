//! Online elasticity (DESIGN.md §16): the incremental migration engine
//! must drain a ring change under its per-tick budget, survive a source
//! crash by resuming from the persisted cursor, keep reads correct in the
//! dual-ownership window, propagate runtime weight changes via gossip, stay
//! free on an empty store, and compose with Merkle anti-entropy (§14)
//! running beside it.

use mystore_bson::ObjectId;
use mystore_core::prelude::*;
use mystore_core::testing::Probe;
use mystore_engine::{pack_version, Record};
use mystore_net::{FaultPlan, NetConfig, NodeConfig, NodeId, SimConfig, SimTime};

fn sim_config(seed: u64) -> SimConfig {
    SimConfig { net: NetConfig::gigabit_lan(), faults: FaultPlan::none(), seed }
}

/// A 3-node spec migrating `recs` records per 100 ms tick, anti-entropy
/// off so every transferred record is the engine's doing.
fn elastic_spec(recs: u32) -> ClusterSpec {
    let mut spec = ClusterSpec::small(3);
    spec.storage.migrate_max_records_per_tick = recs;
    spec.storage.migrate_tick_us = 100_000;
    spec.storage.anti_entropy_interval_us = 0;
    spec
}

fn rec(i: usize, key: &str) -> Record {
    Record::new(
        ObjectId::from_parts(1, 16, i as u32),
        key.to_string(),
        b"elastic-payload".to_vec(),
        pack_version(1_000_000 + i as u64, 0),
    )
}

fn sent(registry: &mystore_obs::Registry) -> u64 {
    registry.snapshot().counters.get("migrate.records_sent").copied().unwrap_or(0)
}

/// The tentpole acceptance bound: with a budget of B records per tick, no
/// sampling window shorter than the tick period may ever see more than B
/// dispatches — and a corpus of `k × B` records therefore needs at least
/// `k` ticks to drain.
#[test]
fn migration_is_rate_limited_per_tick_and_completes() {
    let budget = 4u32;
    let total = 36usize;
    let spec = elastic_spec(budget);
    let (mut sim, registry) = spec.build_sim_with_metrics(sim_config(71));
    // Node 2 exists but is down from t=0; it "joins" when restarted.
    sim.schedule_crash(SimTime(0), NodeId(2), None);
    sim.start();
    sim.run_for(spec.warmup_us() + 3_000_000);
    assert_eq!(sim.process::<StorageNode>(NodeId(0)).unwrap().ring().len(), 2);

    // Single-source corpus: only node 0 holds data, so the cluster-wide
    // dispatch counter is exactly node 0's engine and each record ships
    // exactly one copy (the sole entrant).
    for i in 0..total {
        let r = rec(i, &format!("el-{i:02}"));
        sim.process_mut::<StorageNode>(NodeId(0)).unwrap().preload_record(&r);
    }
    sim.schedule_restart(sim.now() + 1, NodeId(2));

    // Sample in 50 ms windows — half the tick period, so a window can
    // contain at most one engine tick and its delta is bounded by the
    // per-tick record budget.
    let mut prev = 0u64;
    let mut busy_windows = 0usize;
    for _ in 0..160 {
        sim.run_for(50_000);
        let now = sent(&registry);
        let delta = now - prev;
        assert!(
            delta <= budget as u64,
            "{delta} records dispatched in one 50 ms window (budget {budget})"
        );
        if delta > 0 {
            busy_windows += 1;
        }
        prev = now;
    }
    // Pacing: 36 records at 4/tick need at least 9 distinct ticks.
    assert!(busy_windows >= 9, "migration drained in {busy_windows} windows — not rate limited");
    assert_eq!(sent(&registry), total as u64, "each record ships exactly once");

    // Completion: the joiner holds the whole corpus, every window closed.
    let node2 = sim.process::<StorageNode>(NodeId(2)).unwrap();
    for i in 0..total {
        let key = format!("el-{i:02}");
        assert!(
            node2.db().get_record("data", &key).unwrap().is_some(),
            "{key} missing on the joiner after migration"
        );
    }
    assert_eq!(node2.inbound_arcs(), 0, "dual-ownership windows must all be cut over");
    let snap = registry.snapshot();
    assert_eq!(snap.gauges.get("migrate.in_flight").copied().unwrap_or(0), 0);
    assert!(snap.counters.get("migrate.arcs_cutover").copied().unwrap_or(0) >= 1);
}

/// Crash the (sole) migration source mid-transfer, briefly enough that
/// gossip never declares it down. On restart it must resume from the
/// persisted cursor: the corpus still arrives in full, but the restarted
/// engine re-sends at most the unpersisted in-flight window instead of
/// starting over from item zero.
#[test]
fn migration_resumes_from_persisted_cursor_after_source_crash() {
    let total = 40usize;
    let spec = elastic_spec(4);
    let (mut sim, registry) = spec.build_sim_with_metrics(sim_config(72));
    sim.schedule_crash(SimTime(0), NodeId(2), None);
    sim.start();
    sim.run_for(spec.warmup_us() + 3_000_000);
    for i in 0..total {
        let r = rec(i, &format!("cr-{i:02}"));
        sim.process_mut::<StorageNode>(NodeId(0)).unwrap().preload_record(&r);
    }
    sim.schedule_restart(sim.now() + 1, NodeId(2));

    // Let the transfer get well past its first persisted cursor…
    let mut before_crash = 0u64;
    for _ in 0..200 {
        sim.run_for(50_000);
        before_crash = sent(&registry);
        if before_crash >= 16 {
            break;
        }
    }
    assert!(
        (16..total as u64).contains(&before_crash),
        "need a mid-flight crash point, got {before_crash}/{total} records sent"
    );
    // …then kill the source for 1.2 s. Well under fail_after (2.5 s) even
    // after two gossip hops of heartbeat propagation delay, so no peer
    // ever declares the source down and starts a counter-migration of its
    // own — this is purely a crash-resume test.
    sim.schedule_crash(sim.now() + 1, NodeId(0), Some(1_200_000));
    sim.run_for(10_000_000);

    let node2 = sim.process::<StorageNode>(NodeId(2)).unwrap();
    for i in 0..total {
        let key = format!("cr-{i:02}");
        assert!(
            node2.db().get_record("data", &key).unwrap().is_some(),
            "{key} missing on the joiner after crash-resume"
        );
    }
    // Resume, not restart: the persisted low-water mark lags the dispatch
    // cursor by at most two ticks' budget (one in flight, one not yet
    // persisted), so the total re-send overhead is bounded by 8 records.
    // A from-scratch restart would re-send everything: ≥ 16 + 40 = 56.
    let total_sent = sent(&registry);
    assert!(
        total_sent <= total as u64 + 8,
        "{total_sent} records sent for a {total}-record corpus — resume re-sent too much"
    );
    // The finished plan dropped its persisted cursor and its windows.
    let node0 = sim.process::<StorageNode>(NodeId(0)).unwrap();
    let cursor_docs = node0.db().collection("migrate_state").map(|c| c.iter().count()).unwrap_or(0);
    assert_eq!(cursor_docs, 0, "migrate_state must be cleared once the plan completes");
    assert_eq!(node2.inbound_arcs(), 0);
    assert_eq!(registry.snapshot().gauges.get("migrate.in_flight").copied().unwrap_or(0), 0);
}

/// A source that crashes with copies awaiting acks drops them, and the
/// `migrate.in_flight` gauge must drop them too: a one-way cut holds the
/// joiner's acks while the source goes down, so the restart meets copies
/// still in flight, and the gauge reads 0 once the resumed plan finishes.
#[test]
fn restart_with_copies_in_flight_settles_the_gauge() {
    let total = 40usize;
    let spec = elastic_spec(4);
    let (mut sim, registry) = spec.build_sim_with_metrics(sim_config(72));
    sim.schedule_crash(SimTime(0), NodeId(2), None);
    sim.start();
    sim.run_for(spec.warmup_us() + 3_000_000);
    for i in 0..total {
        let r = rec(i, &format!("gl-{i:02}"));
        sim.process_mut::<StorageNode>(NodeId(0)).unwrap().preload_record(&r);
    }
    sim.schedule_restart(sim.now() + 1, NodeId(2));
    while sent(&registry) < 8 {
        sim.run_for(10_000);
    }
    let cut = sim.now() + 1;
    sim.schedule_link_oneway(cut, NodeId(2), NodeId(0), false);
    sim.schedule_crash(cut + 200_000, NodeId(0), Some(1_200_000));
    sim.schedule_link_oneway(cut + 1_500_000, NodeId(2), NodeId(0), true);
    sim.run_for(10_000_000);

    let node2 = sim.process::<StorageNode>(NodeId(2)).unwrap();
    for i in 0..total {
        let key = format!("gl-{i:02}");
        assert!(node2.db().get_record("data", &key).unwrap().is_some(), "{key} missing");
    }
    let node0 = sim.process::<StorageNode>(NodeId(0)).unwrap();
    assert!(node0.migration_progress().is_none(), "the plan never finished");
    assert_eq!(registry.snapshot().gauges.get("migrate.in_flight").copied().unwrap_or(0), 0);
}

/// Dual-ownership reads: while an arc is still migrating, an `R = 1` read
/// coordinated by the *entrant* must not take the entrant's own
/// not-yet-authoritative miss at face value — the old owner announced the
/// transfer (`MigrateBegin`), so the miss proxies back to it.
#[test]
fn reads_during_migration_window_see_every_record() {
    let total = 40usize;
    let spec = elastic_spec(1); // 1 record / 100 ms: a multi-second window
    let (mut sim, _registry) = spec.build_sim_with_metrics(sim_config(73));
    let warm = spec.warmup_us() + 3_000_000;
    let restart_at = warm + 1_000_000;
    // Reads hit the *joiner* as coordinator, 2 s after it comes back:
    // gossip has re-converged and the transfer is still in its first few
    // ticks, so most keys exist only on the old owners.
    let script: Vec<(u64, NodeId, Msg)> = (0..8u64)
        .map(|i| {
            let key = format!("dw-{:02}", i * 5);
            (restart_at + 2_000_000 + i * 50_000, NodeId(2), Msg::Get { req: i + 1, key })
        })
        .collect();
    let probe = sim.add_node(Probe::new(script), NodeConfig::default());
    sim.schedule_crash(SimTime(0), NodeId(2), None);
    sim.start();
    sim.run_for(warm);
    // The full old replica set holds the corpus (both survivors), so every
    // arc's old primary has work and announces its transfer to the joiner.
    for i in 0..total {
        let r = rec(i, &format!("dw-{i:02}"));
        for node in [NodeId(0), NodeId(1)] {
            sim.process_mut::<StorageNode>(node).unwrap().preload_record(&r);
        }
    }
    sim.schedule_restart(SimTime(restart_at), NodeId(2));
    sim.run_for(4_000_000);

    let p = sim.process::<Probe>(probe).unwrap();
    for i in 0..8u64 {
        match p.response_for(i + 1) {
            Some(Msg::GetResp { result: Ok(Some(v)), .. }) => {
                assert_eq!(**v, *b"elastic-payload")
            }
            other => {
                panic!("mid-migration read {} answered {other:?} — dual-ownership hole", i + 1)
            }
        }
    }
}

/// Regression: a record budget smaller than a single item's copy count
/// must not stall the head of the work list. A 4th node joining a 3-node
/// `N = 3` cluster evicts an old member from some arcs' replica sets, and
/// the evicted member ships each of those records to the *whole* new
/// replica set — 3 copies per item. With `migrate_max_records_per_tick =
/// 1` the budget guard used to reject such an item even as the first of
/// its tick, so the cursor never advanced and the migration (and its
/// dual-ownership windows) hung forever.
#[test]
fn budget_smaller_than_copy_count_still_makes_progress() {
    let total = 24usize;
    let mut spec = ClusterSpec::small(4);
    spec.storage.migrate_max_records_per_tick = 1;
    spec.storage.migrate_tick_us = 100_000;
    spec.storage.anti_entropy_interval_us = 0;
    let (mut sim, registry) = spec.build_sim_with_metrics(sim_config(76));
    sim.schedule_crash(SimTime(0), NodeId(3), None);
    sim.start();
    sim.run_for(spec.warmup_us() + 3_000_000);
    // Every old member holds the corpus, so each runs a plan of its own —
    // including arcs it is evicted from (the multi-copy items).
    for i in 0..total {
        let r = rec(i, &format!("bg-{i:02}"));
        for node in [NodeId(0), NodeId(1), NodeId(2)] {
            sim.process_mut::<StorageNode>(node).unwrap().preload_record(&r);
        }
    }
    sim.schedule_restart(sim.now() + 1, NodeId(3));
    sim.run_for(30_000_000);
    for id in spec.storage_ids() {
        let node = sim.process::<StorageNode>(id).unwrap();
        assert!(
            node.migration_progress().is_none(),
            "node {id}: migration still in flight after 30 s — head-of-line livelock"
        );
        assert_eq!(node.inbound_arcs(), 0, "node {id}: dual-ownership window never closed");
        let cursors = node.db().collection("migrate_state").map(|c| c.iter().count()).unwrap_or(0);
        assert_eq!(cursors, 0, "node {id}: persisted cursor outlived its plan");
    }
    assert_eq!(registry.snapshot().gauges.get("migrate.in_flight").copied().unwrap_or(0), 0);
}

/// Capacity weights at boot: a weight-2 node contributes twice the virtual
/// nodes on every member's ring (placement is derived from gossiped
/// effective vnode counts alone).
#[test]
fn weighted_node_owns_proportional_ring_share_at_boot() {
    let mut spec = ClusterSpec::small(3);
    spec.weights = vec![2, 1, 1];
    let mut sim = spec.build_sim(sim_config(74));
    sim.start();
    sim.run_for(spec.warmup_us());
    for id in spec.storage_ids() {
        let ring = sim.process::<StorageNode>(id).unwrap().ring();
        assert_eq!(ring.vnodes_of(&NodeId(0)), Some(2 * spec.storage.vnodes), "node {id}");
        assert_eq!(ring.vnodes_of(&NodeId(1)), Some(spec.storage.vnodes), "node {id}");
        assert_eq!(ring.vnodes_of(&NodeId(2)), Some(spec.storage.vnodes), "node {id}");
    }
    // And the share of keyspace follows: node 0 is primary for roughly
    // half the keys (2 of 4 weight units), the others a quarter each.
    let ring = sim.process::<StorageNode>(NodeId(0)).unwrap().ring();
    let primaries = (0..400)
        .filter(|i| {
            ring.preference_list(format!("share-{i}").as_bytes(), 1).first() == Some(&NodeId(0))
        })
        .count();
    assert!(
        (140..=260).contains(&primaries),
        "weight-2 node owns {primaries}/400 primaries, expected ≈200"
    );
}

/// Runtime reweight: `set_weight_deferred` republishes the scaled vnode
/// count, and every peer re-derives the ring from gossip alone — no
/// restart, no membership event.
#[test]
fn runtime_reweight_propagates_to_every_ring() {
    let spec = elastic_spec(1000);
    let mut sim = spec.build_sim(sim_config(75));
    sim.start();
    sim.run_for(spec.warmup_us());
    for id in spec.storage_ids() {
        let ring = sim.process::<StorageNode>(id).unwrap().ring();
        assert_eq!(ring.vnodes_of(&NodeId(1)), Some(spec.storage.vnodes));
    }
    assert!(sim.process_mut::<StorageNode>(NodeId(1)).unwrap().set_weight_deferred(3));
    sim.run_for(spec.storage.gossip.interval_us * 6);
    for id in spec.storage_ids() {
        let ring = sim.process::<StorageNode>(id).unwrap().ring();
        assert_eq!(
            ring.vnodes_of(&NodeId(1)),
            Some(3 * spec.storage.vnodes),
            "node {id} did not pick up the reweight"
        );
    }
}

/// A plan with nothing to ship — every boot-time join on an empty store —
/// must cost the WAL nothing: no `migrate_state` cursor is written (or
/// cleared) on a file WAL that would be two appends + fsyncs per
/// membership transition per node. The plans still run: their cutovers go
/// out and their arcs are counted.
#[test]
fn empty_plans_never_touch_the_wal() {
    let spec = ClusterSpec::small(4);
    let (mut sim, registry) = spec.build_sim_with_metrics(sim_config(77));
    let appends = |r: &mystore_obs::Registry| r.counter("wal.appends").get();
    let at_build = appends(&registry); // index creation, per node
    sim.start();
    sim.run_for(spec.warmup_us() + 3_000_000);
    for id in spec.storage_ids() {
        let node = sim.process::<StorageNode>(id).unwrap();
        assert_eq!(node.ring().len(), 4, "node {id} ring incomplete");
        assert!(node.migration_progress().is_none(), "node {id}: boot-time plan never finished");
        assert!(node.db().collection("migrate_state").is_err(), "node {id} persisted a cursor");
    }
    assert!(registry.counter("migrate.arcs_cutover").get() > 0, "boot-time plans must still run");
    assert_eq!(appends(&registry), at_build, "an empty migration plan appended to the WAL");
}

/// The two maintenance paths together: a 5th node joins a loaded 4-node
/// ring while writes keep arriving and Merkle anti-entropy runs every 2 s
/// beside the migration engine. Afterwards (i) every key sits on every
/// member of its new preference list, (ii) a full rotation of anti-entropy
/// rounds — every node towards each of its replica peers — settles at the
/// root hash, and (iii) the per-key digests exchanged on the way are
/// bounded by the divergence that was planted, not by the corpus the
/// migration moved.
#[test]
fn join_under_write_load_with_anti_entropy_converges_every_replica_pair() {
    let corpus = 2_000usize;
    let planted = 16usize;
    let mut spec = ClusterSpec::small(5);
    spec.storage.anti_entropy_interval_us = 2_000_000;
    let (mut sim, registry) = spec.build_sim_with_metrics(sim_config(78));
    let warm = spec.warmup_us() + 3_000_000;
    let t_join = warm + 2_000_000;
    // Write load straddling the join: 80 quorum PUTs over 8 s, round-robin
    // across the four old members as coordinators.
    let writes = 80u64;
    let script: Vec<(u64, NodeId, Msg)> = (0..writes)
        .map(|i| {
            let value = std::sync::Arc::new(format!("live-{i}").into_bytes());
            let key = format!("wl-{i:03}");
            (
                t_join - 2_000_000 + i * 100_000,
                NodeId((i % 4) as u32),
                Msg::Put { req: i + 1, key, value, delete: false },
            )
        })
        .collect();
    let probe = sim.add_node(Probe::new(script), NodeConfig::default());
    sim.schedule_crash(SimTime(0), NodeId(4), None);
    sim.start();
    sim.run_for(warm);

    // The corpus, fully replicated on the 4-node ring; `planted` of its keys
    // are fresher on their first replica only — the divergence anti-entropy
    // has to find while the engine moves everything else.
    let old_ring = sim.process::<StorageNode>(NodeId(0)).unwrap().ring().clone();
    assert_eq!(old_ring.len(), 4);
    let mut keys: Vec<String> = Vec::new();
    for i in 0..corpus {
        let key = format!("jn-{i:05}");
        let prefs = old_ring.preference_list(key.as_bytes(), 3);
        let base = rec(i, &key);
        for &n in &prefs {
            sim.process_mut::<StorageNode>(n).unwrap().preload_record(&base);
        }
        if i % (corpus / planted) == 0 {
            let mut fresh = rec(i, &key);
            fresh.version = pack_version(2_000_000 + i as u64, 0);
            fresh.val = b"fresh".to_vec();
            sim.process_mut::<StorageNode>(prefs[0]).unwrap().preload_record(&fresh);
        }
        keys.push(key);
    }
    sim.schedule_restart(SimTime(t_join), NodeId(4));
    sim.run_for(t_join - warm + 30_000_000);

    let p = sim.process::<Probe>(probe).unwrap();
    assert_eq!(
        p.count_where(|m| matches!(m, Msg::PutResp { result: Ok(()), .. })),
        writes as usize,
        "every write across the join must be acknowledged"
    );
    keys.extend((0..writes).map(|i| format!("wl-{i:03}")));

    // (i) Placement: the drained plans left no window open, and every key
    // is on every member of its new preference list, newest version
    // everywhere.
    let new_ring = sim.process::<StorageNode>(NodeId(0)).unwrap().ring().clone();
    assert_eq!(new_ring.len(), 5);
    for id in spec.storage_ids() {
        let node = sim.process::<StorageNode>(id).unwrap();
        assert!(node.migration_progress().is_none(), "node {id} still migrating");
        assert_eq!(node.inbound_arcs(), 0, "node {id} still has an open window");
    }
    for key in &keys {
        let versions: Vec<Option<u64>> = new_ring
            .preference_list(key.as_bytes(), 3)
            .into_iter()
            .map(|n| {
                let db = sim.process::<StorageNode>(n).unwrap().db();
                db.get_record("data", key).unwrap().map(|r| r.version)
            })
            .collect();
        assert!(versions.iter().all(Option::is_some), "{key} missing from a new replica");
        assert!(versions.windows(2).all(|w| w[0] == w[1]), "{key} replicas diverge: {versions:?}");
    }

    // (iii) The walk found the planted keys without digesting the corpus:
    // each divergent key costs a leaf digest towards each stale replica
    // plus the counter-digests, nowhere near one entry per migrated key —
    // the joiner sits out tree exchanges while arcs are still in flight to
    // it, or the first round to reach it would digest the lot.
    let ctr = |name: &str| registry.counter(name).get();
    assert!(ctr("sync.leaf_digests") > 0, "the planted divergence was never walked");
    assert!(
        ctr("sync.digest_entries") < (planted * 8) as u64,
        "{} digest entries for {planted} divergent keys in a {corpus}-key corpus",
        ctr("sync.digest_entries")
    );
    assert!(ctr("migrate.records_sent") as usize > corpus / 5, "the join moved a ring share");

    // (ii) Converged: over the next 12 s every node opens 6 rounds, a full
    // rotation through its 4 replica peers, and every one of them settles
    // at the root — so every replica pair compared equal.
    let (rounds, matches, digests) =
        (ctr("sync.rounds"), ctr("sync.root_match"), ctr("sync.digest_entries"));
    sim.run_for(12_000_000);
    let opened = ctr("sync.rounds") - rounds;
    assert!(opened >= 5 * 4, "only {opened} rounds in the window");
    // Up to one exchange per node may straddle either edge of the window.
    assert!(
        (ctr("sync.root_match") - matches).abs_diff(opened) <= 5,
        "{opened} rounds opened but {} settled at the root",
        ctr("sync.root_match") - matches
    );
    assert_eq!(ctr("sync.digest_entries"), digests, "converged pairs exchanged digests");
    assert_eq!(ctr("sync.ring_mismatch"), 0, "replica peers disagreed on the ring");
}

/// Two membership changes that overlap: a 4th node joins, and a 5th joins
/// while the first join is still draining (the offset sweeps the second
/// join across the first plan's start, middle and completion, so some run
/// has a source finishing one plan while an entrant already tracks windows
/// of the next). A cutover closes only the window of the arc it names, so
/// whatever the interleaving: every read through either joiner — both are
/// entrants with most of their share still in flight — finds its record,
/// and once both plans have drained every key sits on its whole new
/// preference list with no window left open.
#[test]
fn overlapping_joins_never_close_a_window_before_its_arc_has_shipped() {
    let total = 48usize;
    for offset_ms in (0..=2_400u64).step_by(300) {
        let mut spec = ClusterSpec::small(5);
        spec.storage.migrate_max_records_per_tick = 2;
        spec.storage.migrate_tick_us = 100_000;
        spec.storage.anti_entropy_interval_us = 0;
        let (mut sim, _registry) = spec.build_sim_with_metrics(sim_config(80 + offset_ms));
        let warm = spec.warmup_us() + 3_000_000;
        let (join3, join4) = (warm + 1_000_000, warm + 1_000_000 + offset_ms * 1_000);
        // Each joiner coordinates a read of every key, starting 2 s after
        // its own restart (its ring has re-converged by then).
        let script: Vec<(u64, NodeId, Msg)> = (0..2 * total as u64)
            .map(|i| {
                let (coord, joined) = if i % 2 == 0 { (3, join3) } else { (4, join4) };
                let key = format!("ov-{:02}", i / 2);
                (joined + 2_000_000 + i * 20_000, NodeId(coord), Msg::Get { req: i + 1, key })
            })
            .collect();
        let probe = sim.add_node(Probe::new(script), NodeConfig::default());
        sim.schedule_crash(SimTime(0), NodeId(3), None);
        sim.schedule_crash(SimTime(0), NodeId(4), None);
        sim.start();
        sim.run_for(warm);
        // On the 3-node ring every member replicates every key.
        for i in 0..total {
            let r = rec(i, &format!("ov-{i:02}"));
            for node in [NodeId(0), NodeId(1), NodeId(2)] {
                sim.process_mut::<StorageNode>(node).unwrap().preload_record(&r);
            }
        }
        sim.schedule_restart(SimTime(join3), NodeId(3));
        sim.schedule_restart(SimTime(join4), NodeId(4));
        sim.run_for(40_000_000);

        let p = sim.process::<Probe>(probe).unwrap();
        for req in 1..=2 * total as u64 {
            assert!(
                matches!(p.response_for(req), Some(Msg::GetResp { result: Ok(Some(_)), .. })),
                "offset {offset_ms} ms: read {req} answered {:?} — a window closed early",
                p.response_for(req)
            );
        }
        let ring = sim.process::<StorageNode>(NodeId(0)).unwrap().ring().clone();
        assert_eq!(ring.len(), 5);
        for id in spec.storage_ids() {
            let node = sim.process::<StorageNode>(id).unwrap();
            assert!(node.migration_progress().is_none(), "offset {offset_ms}: {id} migrating");
            assert_eq!(node.inbound_arcs(), 0, "offset {offset_ms}: {id} has an open window");
        }
        for i in 0..total {
            let key = format!("ov-{i:02}");
            for n in ring.preference_list(key.as_bytes(), 3) {
                let db = sim.process::<StorageNode>(n).unwrap().db();
                assert!(
                    db.get_record("data", &key).unwrap().is_some(),
                    "offset {offset_ms} ms: {key} missing on new replica {n}"
                );
            }
        }
    }
}

/// A dual-ownership window whose cutover never arrives (lost on the wire,
/// or the source re-based its plan away from this node) must not stay open
/// for good — it would proxy every miss in the arc and keep the node out of
/// anti-entropy. Once the source has advertised no migration for a
/// failure-detection period, the gossip tick sweeps it.
#[test]
fn window_whose_cutover_never_arrives_is_swept() {
    let spec = ClusterSpec::small(3);
    let mut sim = spec.build_sim(sim_config(79));
    let warm = spec.warmup_us();
    // The announcer is the probe itself: a source that will never send a
    // cutover, and that gossip knows no migration of.
    let announce = Msg::MigrateBegin { start: 10, end: 20 };
    sim.add_node(Probe::new(vec![(warm, NodeId(0), announce)]), NodeConfig::default());
    sim.start();
    sim.run_for(warm + 500_000);
    assert_eq!(sim.process::<StorageNode>(NodeId(0)).unwrap().inbound_arcs(), 1);
    sim.run_for(spec.storage.gossip.fail_after_us + 2 * spec.storage.gossip.interval_us);
    assert_eq!(
        sim.process::<StorageNode>(NodeId(0)).unwrap().inbound_arcs(),
        0,
        "the orphaned window outlived the failure-detection period"
    );
}
