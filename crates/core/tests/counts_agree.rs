//! Each outcome has two homes and they agree: the metrics registry holds
//! the live totals and the simulator's trace holds the per-node events
//! (DESIGN.md §7). A seeded run under the paper's Table 2 fault plan, with
//! one node killed and restarted mid-workload, makes quorum failures,
//! handoffs, hint replays, CAS conflicts and front-end shedding happen;
//! every trace count, summed over nodes, must then equal its counter.

use mystore_core::prelude::*;
use mystore_core::testing::Probe;
use mystore_net::{FaultPlan, NetConfig, NodeConfig, NodeId, SimConfig, SimTime};

/// `(trace event, registry counter)` pairs that count the same outcome.
const PAIRS: &[(&str, &str)] = &[
    ("put_ok", "quorum.write.ok"),
    ("put_fail", "quorum.write.failed"),
    ("get_ok", "quorum.read.ok"),
    ("get_fail", "quorum.read.failed"),
    ("cas_ok", "cas.ok"),
    ("cas_conflict", "cas.conflicts"),
    ("cas_fail", "cas.failed"),
    ("handoff", "hint.handoffs"),
    ("hint_replayed", "hint.replayed"),
    ("read_repair", "read_repair.pushes"),
    ("fe_shed", "frontend.shed"),
    ("fe_redispatch", "frontend.redispatches"),
    ("fe_timeout", "frontend.timeouts"),
];

fn rest(req: u64, method: Method, key: &str, body: &[u8], if_match: Option<&str>) -> Msg {
    Msg::RestReq(RestRequest {
        req,
        method,
        key: Some(key.into()),
        body: body.to_vec().into(),
        if_match: if_match.map(str::to_string),
        auth: None,
    })
}

#[test]
fn trace_counts_equal_registry_counters_under_faults() {
    // No cache tier, so every GET reaches a coordinator; a process pool the
    // burst below overflows.
    let spec =
        ClusterSpec { cache_nodes: 0, frontend_max_inflight: 64, ..ClusterSpec::paper_topology() };
    let fe = spec.frontend_ids()[0];
    let warm = spec.warmup_us();
    let (mut sim, registry) = spec.build_sim_with_metrics(SimConfig {
        net: NetConfig::gigabit_lan(),
        faults: FaultPlan::paper_table2(),
        seed: 39,
    });
    // Table 2 rates apply per replica-level operation (as in Figs. 16–17).
    sim.set_fault_filter(Msg::is_replica_op);

    // Per key: a write, a CAS that creates a fresh key (`0` = absent), a
    // CAS on the written key that must conflict, and a read.
    let mut script = Vec::new();
    for i in 0..120u64 {
        let at = warm + 200_000 + i * 100_000;
        let key = format!("k{i}");
        script.push((at, fe, rest(4 * i, Method::Post, &key, b"v", None)));
        script.push((
            at + 10_000,
            fe,
            rest(4 * i + 1, Method::Post, &format!("c{i}"), b"c", Some("0")),
        ));
        script.push((at + 20_000, fe, rest(4 * i + 2, Method::Post, &key, b"w", Some("0"))));
        script.push((at + 30_000, fe, rest(4 * i + 3, Method::Get, &key, b"", None)));
    }
    // A burst of writes at one instant overflows the process pool.
    for i in 0..100u64 {
        let burst = rest(1_000 + i, Method::Post, &format!("b{i}"), b"b", None);
        script.push((warm + 3_000_000, fe, burst));
    }
    let probe = sim.add_node(Probe::new(script), NodeConfig::default());
    // One storage node dies mid-workload and comes back four seconds later.
    sim.schedule_crash(SimTime(warm + 1_500_000), NodeId(1), Some(4_000_000));
    sim.start();
    sim.run_for(warm + 25_000_000);

    assert!(!sim.process::<Probe>(probe).unwrap().responses.is_empty());
    let trace = sim.trace();
    for &(event, counter) in PAIRS {
        assert_eq!(
            trace.count(event) as u64,
            registry.counter(counter).get(),
            "trace `{event}` vs registry `{counter}`"
        );
    }
    for event in ["put_ok", "get_ok", "handoff"] {
        assert!(trace.count(event) > 0, "the run must exercise `{event}`");
    }
}
