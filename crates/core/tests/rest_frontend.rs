//! End-to-end REST flows through the full Fig. 10 topology: front end +
//! cache tier + storage module, plus auth and load shedding.

use mystore_core::prelude::*;
use mystore_core::testing::Probe;
use mystore_core::{sign_request, AuthConfig, Frontend};
use mystore_net::{FaultPlan, NetConfig, NodeConfig, NodeId, Sim, SimConfig, SimTime};
use mystore_ring::HashRing;

fn sim_config(seed: u64) -> SimConfig {
    SimConfig { net: NetConfig::gigabit_lan(), faults: FaultPlan::none(), seed }
}

fn rest(req: u64, method: Method, key: Option<&str>, body: &[u8]) -> Msg {
    Msg::RestReq(RestRequest {
        req,
        method,
        key: key.map(str::to_string),
        body: body.to_vec().into(),
        if_match: None,
        auth: None,
    })
}

fn resp_status(msg: &Msg) -> Option<u16> {
    match msg {
        Msg::RestResp(r) => Some(r.status),
        _ => None,
    }
}

#[test]
fn full_topology_get_post_delete() {
    let spec = ClusterSpec::paper_topology();
    let fe = spec.frontend_ids()[0];
    let warm = spec.warmup_us();
    let mut sim = spec.build_sim(sim_config(21));
    let probe = sim.add_node(
        Probe::new(vec![
            // POST with key, then GET twice (second should hit cache),
            // DELETE, then GET again (404).
            (warm, fe, rest(1, Method::Post, Some("scene-1"), b"<xml>circuit</xml>")),
            (warm + 400_000, fe, rest(2, Method::Get, Some("scene-1"), b"")),
            (warm + 800_000, fe, rest(3, Method::Get, Some("scene-1"), b"")),
            (warm + 1_200_000, fe, rest(4, Method::Delete, Some("scene-1"), b"")),
            (warm + 1_600_000, fe, rest(5, Method::Get, Some("scene-1"), b"")),
            // Key-less POST: creation with assigned key.
            (warm + 2_000_000, fe, rest(6, Method::Post, None, b"fresh")),
            // DELETE without key: bad request.
            (warm + 2_400_000, fe, rest(7, Method::Delete, None, b"")),
            // GET of a never-written key: 404.
            (warm + 2_800_000, fe, rest(8, Method::Get, Some("ghost"), b"")),
        ]),
        NodeConfig::default(),
    );
    sim.start();
    sim.run_for(warm + 5_000_000);
    let p = sim.process::<Probe>(probe).unwrap();

    assert_eq!(p.response_for(1).and_then(resp_status), Some(status::OK));
    match p.response_for(2) {
        Some(Msg::RestResp(r)) => {
            assert_eq!(r.status, status::OK);
            assert_eq!(*r.body, b"<xml>circuit</xml>");
        }
        other => panic!("{other:?}"),
    }
    match p.response_for(3) {
        Some(Msg::RestResp(r)) => {
            assert_eq!(r.status, status::OK);
            assert!(r.from_cache, "second GET must be served from cache");
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(p.response_for(4).and_then(resp_status), Some(status::OK));
    assert_eq!(p.response_for(5).and_then(resp_status), Some(status::NOT_FOUND));
    match p.response_for(6) {
        Some(Msg::RestResp(r)) => {
            assert_eq!(r.status, status::CREATED);
            assert!(r.assigned_key.is_some(), "creation must return the generated key");
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(p.response_for(7).and_then(resp_status), Some(status::BAD_REQUEST));
    assert_eq!(p.response_for(8).and_then(resp_status), Some(status::NOT_FOUND));
    // Cache accounting: exactly one hit.
    assert!(sim.trace().count("cache_hit") >= 1);
}

#[test]
fn post_populates_cache_for_subsequent_get() {
    let spec = ClusterSpec::paper_topology();
    let fe = spec.frontend_ids()[0];
    let warm = spec.warmup_us();
    let mut sim = spec.build_sim(sim_config(22));
    let probe = sim.add_node(
        Probe::new(vec![
            (warm, fe, rest(1, Method::Post, Some("warmed"), b"cached-by-write")),
            (warm + 500_000, fe, rest(2, Method::Get, Some("warmed"), b"")),
        ]),
        NodeConfig::default(),
    );
    sim.start();
    sim.run_for(warm + 2_000_000);
    let p = sim.process::<Probe>(probe).unwrap();
    match p.response_for(2) {
        Some(Msg::RestResp(r)) => {
            assert_eq!(r.status, status::OK);
            assert!(r.from_cache, "write path must have populated the cache (§4 POST)");
            assert_eq!(*r.body, b"cached-by-write");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn auth_rejects_unsigned_and_wrong_signatures() {
    let mut spec = ClusterSpec::paper_topology();
    spec.frontends = 0; // we add a custom-auth front end manually
    let warm = spec.warmup_us();
    let mut sim = spec.build_sim(sim_config(23));
    let mut fe_cfg = spec.frontend_config();
    fe_cfg.auth = Some(AuthConfig::default().with_user("alice", "s3cret"));
    let metrics = fe_cfg.metrics.clone();
    let mut fe_proc = Frontend::new(fe_cfg);
    let token_good = fe_proc.issue_token("alice");
    let token_for_get = fe_proc.issue_token("alice");
    let fe = sim.add_node(fe_proc, NodeConfig { concurrency: 8 });

    let good_sig = sign_request(&token_good, "/data/secured", "s3cret");
    let bad_sig = sign_request(&token_for_get, "/data/secured", "wrong-secret");
    let good_get = sign_request(&token_for_get, "/data/secured", "s3cret");
    let probe = sim.add_node(
        Probe::new(vec![
            // Unsigned: 401.
            (warm, fe, rest(1, Method::Get, Some("secured"), b"")),
            // Properly signed POST: accepted.
            (
                warm + 300_000,
                fe,
                Msg::RestReq(RestRequest {
                    req: 2,
                    method: Method::Post,
                    key: Some("secured".into()),
                    body: b"top secret".to_vec().into(),
                    if_match: None,
                    auth: Some(("alice".into(), good_sig)),
                }),
            ),
            // Bad digest: 401.
            (
                warm + 600_000,
                fe,
                Msg::RestReq(RestRequest {
                    req: 3,
                    method: Method::Get,
                    key: Some("secured".into()),
                    body: Default::default(),
                    if_match: None,
                    auth: Some(("alice".into(), bad_sig)),
                }),
            ),
            // Correctly signed GET: 200.
            (
                warm + 900_000,
                fe,
                Msg::RestReq(RestRequest {
                    req: 4,
                    method: Method::Get,
                    key: Some("secured".into()),
                    body: Default::default(),
                    if_match: None,
                    auth: Some(("alice".into(), good_get)),
                }),
            ),
        ]),
        NodeConfig::default(),
    );
    sim.start();
    sim.run_for(warm + 3_000_000);
    let p = sim.process::<Probe>(probe).unwrap();
    let st = |req| match p.response_for(req) {
        Some(Msg::RestResp(r)) => r.status,
        other => panic!("req {req}: {other:?}"),
    };
    assert_eq!(st(1), status::UNAUTHORIZED);
    assert_eq!(st(2), status::OK);
    assert_eq!(st(3), status::UNAUTHORIZED);
    assert_eq!(st(4), status::OK);
    assert_eq!(metrics.counter("frontend.auth_failures").get(), 2);
}

#[test]
fn overload_sheds_with_busy() {
    let mut spec = ClusterSpec::paper_topology();
    spec.frontend_max_inflight = 4;
    spec.frontends = 1;
    let fe = spec.frontend_ids()[0];
    let warm = spec.warmup_us();
    let (mut sim, metrics) = spec.build_sim_with_metrics(sim_config(24));
    // 50 large POSTs at the same instant; with only 4 in-flight slots most
    // must be shed.
    let script: Vec<_> = (0..50u64)
        .map(|i| (warm, fe, rest(i, Method::Post, Some(&format!("burst{i}")), &vec![0u8; 100_000])))
        .collect();
    let probe = sim.add_node(Probe::new(script), NodeConfig::default());
    sim.start();
    sim.run_for(warm + 10_000_000);
    let p = sim.process::<Probe>(probe).unwrap();
    let busy = p.count_where(|m| matches!(m, Msg::RestResp(r) if r.status == status::BUSY));
    let ok = p.count_where(|m| matches!(m, Msg::RestResp(r) if r.status == status::OK));
    assert!(busy > 0, "load shedding expected");
    assert!(ok >= 4, "admitted requests should finish");
    assert_eq!(busy + ok, 50);
    assert_eq!(metrics.counter("frontend.shed").get() as usize, busy);
}

#[test]
fn storage_failure_maps_to_500() {
    // Front end with no storage nodes configured: every request fails fast.
    let mut spec = ClusterSpec::paper_topology();
    spec.frontends = 0;
    spec.cache_nodes = 0;
    spec.storage_nodes = 1;
    let mut sim = spec.build_sim(sim_config(25));
    let mut cfg = spec.frontend_config();
    cfg.storage_nodes = vec![];
    cfg.cache_nodes = vec![];
    let fe = sim.add_node(Frontend::new(cfg), NodeConfig::default());
    let probe = sim.add_node(
        Probe::new(vec![(100_000, fe, rest(1, Method::Post, Some("x"), b"y"))]),
        NodeConfig::default(),
    );
    sim.start();
    sim.run_for(2_000_000);
    let p = sim.process::<Probe>(probe).unwrap();
    assert_eq!(
        p.response_for(1).and_then(|m| match m {
            Msg::RestResp(r) => Some(r.status),
            _ => None,
        }),
        Some(status::STORAGE_ERROR)
    );
}

#[test]
fn runtime_token_flow_completes_the_fig2_loop() {
    use mystore_core::{sign_request, AuthConfig, Frontend};
    let mut spec = ClusterSpec::paper_topology();
    spec.frontends = 0;
    let warm = spec.warmup_us();
    let mut sim = spec.build_sim(sim_config(26));
    let mut cfg = spec.frontend_config();
    cfg.auth = Some(AuthConfig::default().with_user("alice", "s3cret"));
    let metrics = cfg.metrics.clone();
    let fe = sim.add_node(Frontend::new(cfg), NodeConfig { concurrency: 8 });

    // Phase 1: ask the TOKEN DB for tokens (one valid user, one unknown).
    let probe = sim.add_node(
        Probe::new(vec![
            (warm, fe, Msg::TokenReq { req: 1, user: "alice".into() }),
            (warm, fe, Msg::TokenReq { req: 2, user: "mallory".into() }),
        ]),
        NodeConfig::default(),
    );
    sim.start();
    sim.run_for(warm + 1_000_000);
    let token = match sim.process::<Probe>(probe).unwrap().response_for(1) {
        Some(Msg::TokenResp { token: Some(t), .. }) => t.clone(),
        other => panic!("token issue failed: {other:?}"),
    };
    assert!(
        matches!(
            sim.process::<Probe>(probe).unwrap().response_for(2),
            Some(Msg::TokenResp { token: None, .. })
        ),
        "unknown users must not get tokens"
    );

    // Phase 2: use the token to sign a request (computed outside the sim,
    // as a real client library would) and inject it; success is observable
    // in the front-end counters and the stored record.
    let sig = sign_request(&token, "/data/fig2", "s3cret");
    sim.inject(
        sim.now() + 1,
        fe,
        Msg::RestReq(RestRequest {
            req: 3,
            method: Method::Post,
            key: Some("fig2".into()),
            body: b"signed with a runtime token".to_vec().into(),
            if_match: None,
            auth: Some(("alice".into(), sig)),
        }),
    );
    sim.run_for(3_000_000);
    assert_eq!(metrics.counter("frontend.auth_failures").get(), 0, "the runtime token must verify");
    assert_eq!(metrics.counter("frontend.admitted").get(), 1);
    let copies = spec
        .storage_ids()
        .iter()
        .filter(|&&id| {
            sim.process::<StorageNode>(id)
                .unwrap()
                .db()
                .get_record("data", "fig2")
                .ok()
                .flatten()
                .is_some()
        })
        .count();
    assert!(copies >= 2, "the signed write must have replicated ({copies} copies)");
}

#[test]
fn stats_endpoint_reports_quorum_counters_after_traffic() {
    let spec = ClusterSpec::paper_topology();
    let fe = spec.frontend_ids()[0];
    let warm = spec.warmup_us();
    let (mut sim, registry) = spec.build_sim_with_metrics(sim_config(31));
    let probe = sim.add_node(
        Probe::new(vec![
            // A cold `/_stats` works before any traffic...
            (warm, fe, rest(1, Method::Get, Some("_stats"), b"")),
            // ...then drive one quorum write, and one quorum read via a
            // key the cache tier has never seen (a cached key would be
            // answered by a cache server without touching storage).
            (warm + 400_000, fe, rest(2, Method::Post, Some("observed"), b"payload")),
            (warm + 800_000, fe, rest(3, Method::Get, Some("uncached"), b"")),
            (warm + 1_600_000, fe, rest(4, Method::Get, Some("_stats"), b"")),
        ]),
        NodeConfig::default(),
    );
    sim.start();
    sim.run_for(warm + 4_000_000);
    let p = sim.process::<Probe>(probe).unwrap();

    // The cold snapshot is valid JSON with empty-but-present sections.
    let cold = match p.response_for(1) {
        Some(Msg::RestResp(r)) if r.status == status::OK => {
            serde_json::from_str(std::str::from_utf8(&r.body).unwrap()).unwrap()
        }
        other => panic!("cold /_stats: {other:?}"),
    };
    assert!(cold["counters"].as_object().is_some());

    let warm_stats = match p.response_for(4) {
        Some(Msg::RestResp(r)) if r.status == status::OK => {
            serde_json::from_str(std::str::from_utf8(&r.body).unwrap()).unwrap()
        }
        other => panic!("warm /_stats: {other:?}"),
    };
    // Quorum counters advanced and the latency histograms carry samples
    // with percentile summaries.
    assert!(warm_stats["counters"]["quorum.write.ok"].as_f64().unwrap() >= 1.0);
    assert!(warm_stats["counters"]["quorum.read.ok"].as_f64().unwrap() >= 1.0);
    assert!(warm_stats["counters"]["frontend.admitted"].as_f64().unwrap() >= 2.0);
    let wlat = &warm_stats["histograms"]["quorum.write.latency_us"];
    assert!(wlat["count"].as_f64().unwrap() >= 1.0);
    assert!(wlat["p50"].as_f64().unwrap() > 0.0);
    assert!(wlat["p99"].as_f64().unwrap() >= wlat["p50"].as_f64().unwrap());
    // The REST body agrees with a direct registry snapshot.
    let direct = registry.snapshot();
    assert!(direct.counters["quorum.write.ok"] >= 1);
    assert!(direct.counters["wal.appends"] >= 1, "WAL metrics flow into the same registry");
}

fn rest_if_match(req: u64, method: Method, key: Option<&str>, body: &[u8], pred: &str) -> Msg {
    Msg::RestReq(RestRequest {
        req,
        method,
        key: key.map(str::to_string),
        body: body.to_vec().into(),
        if_match: Some(pred.into()),
        auth: None,
    })
}

/// Malformed requests must be rejected at the front door: `400` to the
/// client AND nothing forwarded to storage — the quorum `started` counters
/// must not move. (A rejection that still costs a quorum round-trip is a
/// denial-of-service amplifier.)
#[test]
fn malformed_requests_get_400_without_touching_storage() {
    let spec = ClusterSpec::paper_topology();
    let fe = spec.frontend_ids()[0];
    let warm = spec.warmup_us();
    let (mut sim, registry) = spec.build_sim_with_metrics(sim_config(51));
    let oversized_key = "k".repeat(2048); // frontend_config caps at 1024
    let probe = sim.add_node(
        Probe::new(vec![
            // DELETE without a key: nothing to delete.
            (warm, fe, rest(1, Method::Delete, None, b"")),
            // Unparseable If-Match predicate on a keyed POST.
            (warm + 200_000, fe, rest_if_match(2, Method::Post, Some("k"), b"v", "garbage")),
            // If-Match on a GET: the predicate only applies to keyed POSTs.
            (warm + 400_000, fe, rest_if_match(3, Method::Get, Some("k"), b"", "1")),
            // If-Match on a key-less POST (key assignment can't be conditional).
            (warm + 600_000, fe, rest_if_match(4, Method::Post, None, b"v", "1")),
            // Key longer than the front end's 1 KiB key limit.
            (warm + 800_000, fe, rest(5, Method::Post, Some(&oversized_key), b"v")),
        ]),
        NodeConfig::default(),
    );
    sim.start();
    sim.run_for(warm + 3_000_000);
    let p = sim.process::<Probe>(probe).unwrap();
    for req in 1..=5u64 {
        assert_eq!(
            p.response_for(req).and_then(resp_status),
            Some(status::BAD_REQUEST),
            "malformed request {req} must get 400"
        );
    }
    // None of them may have reached a coordinator — or even been admitted.
    let snap = registry.snapshot();
    assert_eq!(snap.counters.get("quorum.write.started").copied().unwrap_or(0), 0);
    assert_eq!(snap.counters.get("quorum.read.started").copied().unwrap_or(0), 0);
    assert_eq!(snap.counters.get("cas.started").copied().unwrap_or(0), 0);
    assert_eq!(snap.counters.get("frontend.admitted").copied().unwrap_or(0), 0);
}

/// Conditional put through the REST surface: `If-Match: 0` creates, the
/// returned version conditions the next write, a stale predicate gets `409`
/// with the actual version in the body, and the matching retry succeeds.
#[test]
fn if_match_conditional_put_end_to_end() {
    let spec = ClusterSpec::paper_topology();
    let fe = spec.frontend_ids()[0];
    let warm = spec.warmup_us();
    let (mut sim, registry) = spec.build_sim_with_metrics(sim_config(52));
    let probe = sim.add_node(
        Probe::new(vec![
            // Create iff absent.
            (warm, fe, rest_if_match(1, Method::Post, Some("ledger"), b"v1", "0")),
            // A second create-if-absent must now conflict.
            (warm + 600_000, fe, rest_if_match(2, Method::Post, Some("ledger"), b"v2", "0")),
            // Unconditional read still sees v1.
            (warm + 1_200_000, fe, rest(3, Method::Get, Some("ledger"), b"")),
        ]),
        NodeConfig::default(),
    );
    sim.start();
    sim.run_for(warm + 3_000_000);

    // The create returns the new version as a decimal body.
    let v1: u64 = {
        let p = sim.process::<Probe>(probe).unwrap();
        match p.response_for(1) {
            Some(Msg::RestResp(r)) if r.status == status::OK => {
                std::str::from_utf8(&r.body).unwrap().parse().expect("version body")
            }
            other => panic!("create-if-absent: {other:?}"),
        }
    };
    assert!(v1 > 0, "a created record must carry a non-zero version");
    // The conflicting create reports the version actually present.
    {
        let p = sim.process::<Probe>(probe).unwrap();
        match p.response_for(2) {
            Some(Msg::RestResp(r)) if r.status == status::CONFLICT => {
                let actual: u64 = std::str::from_utf8(&r.body).unwrap().parse().unwrap();
                assert_eq!(actual, v1, "409 body must carry the winning version");
            }
            other => panic!("stale predicate: {other:?}"),
        }
        match p.response_for(3) {
            Some(Msg::RestResp(r)) if r.status == status::OK => assert_eq!(*r.body, b"v1"),
            other => panic!("read after conflict: {other:?}"),
        }
    }

    // Retry conditioned on the observed version (injected, so the reply has
    // no client to land on — the outcome is asserted storage-side).
    sim.inject(
        sim.now() + 1,
        fe,
        rest_if_match(4, Method::Post, Some("ledger"), b"v3", &v1.to_string()),
    );
    sim.run_for(2_000_000);
    let stored = spec
        .storage_ids()
        .iter()
        .find_map(|&id| {
            sim.process::<StorageNode>(id).unwrap().db().get_record("data", "ledger").ok().flatten()
        })
        .expect("record must exist after the matching CAS");
    assert_eq!(stored.val, b"v3", "the matching retry must have applied");
    assert!(stored.version > v1, "a successful CAS must advance the version");

    let snap = registry.snapshot();
    assert_eq!(snap.counters.get("cas.ok").copied(), Some(2));
    assert_eq!(snap.counters.get("cas.conflicts").copied(), Some(1));
    assert!(snap.histograms.get("cas.latency_us").map(|h| h.count).unwrap_or(0) >= 3);
}

/// A coordinator the static upstream list still names crashes; REST
/// requests whose key it heads the preference list of must be re-dispatched
/// to the next member at the deadline instead of surfacing `504` — the
/// client sees every write and read succeed.
#[test]
fn dead_coordinator_is_redispatched_not_timed_out() {
    let spec = ClusterSpec::paper_topology();
    let fe = spec.frontend_ids()[0];
    let warm = spec.warmup_us();
    let (mut sim, registry) = spec.build_sim_with_metrics(sim_config(41));

    // 15 POSTs, each to its key's first preference-list member; about one
    // in five of them is the victim while it is down. A read of a
    // never-cached key afterwards.
    let mut script = vec![];
    for i in 0..15u64 {
        script.push((
            warm + 500_000 + i * 200_000,
            fe,
            rest(i, Method::Post, Some(&format!("rr-{i}")), b"survives"),
        ));
    }
    // GET a never-written key late, so it rides the storage path too.
    script.push((warm + 16_000_000, fe, rest(900, Method::Get, Some("rr-ghost"), b"")));
    let probe = sim.add_node(Probe::new(script), NodeConfig::default());

    // Storage node 2 is down for the whole write burst.
    sim.schedule_crash(
        mystore_net::SimTime(warm + 400_000),
        mystore_net::NodeId(2),
        Some(10_000_000),
    );
    sim.start();
    sim.run_for(warm + 20_000_000);

    let p = sim.process::<Probe>(probe).unwrap();
    for i in 0..15u64 {
        assert_eq!(
            p.response_for(i).and_then(resp_status),
            Some(status::OK),
            "POST rr-{i} must succeed via re-dispatch while a coordinator is down"
        );
    }
    assert_eq!(p.response_for(900).and_then(resp_status), Some(status::NOT_FOUND));
    let snap = registry.snapshot();
    assert!(
        snap.counters.get("frontend.redispatches").copied().unwrap_or(0) >= 1,
        "requests routed at the dead coordinator must be re-dispatched: {:?}",
        snap.counters
    );
    assert_eq!(snap.counters.get("frontend.timeouts").copied().unwrap_or(0), 0);
}

/// `key`'s preference list as `spec`'s storage nodes place it once their
/// rings converge: `node{id}` labels, `storage.vnodes` points each.
fn placement(spec: &ClusterSpec, key: &str) -> Vec<NodeId> {
    let mut ring = HashRing::new();
    for id in spec.storage_ids() {
        ring.add_node(id, format!("node{}", id.0), spec.storage.vnodes).unwrap();
    }
    ring.preference_list(key.as_bytes(), spec.storage.nwr.n)
}

/// A storage node's coordinator outcomes so far.
#[derive(Clone, Copy, Default)]
struct Outcomes {
    puts_ok: u64,
    puts_failed: u64,
    gets_ok: u64,
    gets_failed: u64,
}

/// Every storage node's outcomes, indexed by node id: the coordinator
/// records each one in the sim trace under its own node id.
fn node_stats(sim: &Sim<Msg>, spec: &ClusterSpec) -> Vec<Outcomes> {
    let mut out = vec![Outcomes::default(); spec.storage_nodes];
    for e in sim.trace().events() {
        let Some(o) = out.get_mut(e.node.0 as usize) else { continue };
        match e.name {
            "put_ok" => o.puts_ok += 1,
            "put_fail" => o.puts_failed += 1,
            "get_ok" => o.gets_ok += 1,
            "get_fail" => o.gets_failed += 1,
            _ => {}
        }
    }
    out
}

/// The storage nodes that coordinated an op between two snapshots, with how
/// many each: (node, puts, gets), successful or not.
fn coordinated(before: &[Outcomes], after: &[Outcomes]) -> Vec<(NodeId, u64, u64)> {
    before
        .iter()
        .zip(after)
        .enumerate()
        .map(|(i, (b, a))| {
            let puts = a.puts_ok + a.puts_failed - b.puts_ok - b.puts_failed;
            let gets = a.gets_ok + a.gets_failed - b.gets_ok - b.gets_failed;
            (NodeId(i as u32), puts, gets)
        })
        .filter(|&(_, puts, gets)| puts + gets > 0)
        .collect()
}

/// The paper topology without its cache tier, so every GET reaches a
/// coordinator.
fn uncached_topology() -> ClusterSpec {
    ClusterSpec { cache_nodes: 0, ..ClusterSpec::paper_topology() }
}

/// The front end hosts no storage node on the paper topology, so it sends
/// each op to the first member of its key's preference list. The sim's
/// registry is cluster-wide, so the check reads each coordinator's events
/// from the trace, one op at a time.
#[test]
fn every_forward_lands_on_its_keys_first_preference_list_member() {
    let spec = uncached_topology();
    let fe = spec.frontend_ids()[0];
    let warm = spec.warmup_us();
    const STEP_US: u64 = 100_000;
    let keys: Vec<String> = (0..12).map(|i| format!("route-{i}")).collect();
    let mut script = vec![];
    for (i, key) in keys.iter().enumerate() {
        let at = warm + 2 * i as u64 * STEP_US;
        script.push((at, fe, rest(2 * i as u64, Method::Post, Some(key), b"routed")));
        script.push((at + STEP_US, fe, rest(2 * i as u64 + 1, Method::Get, Some(key), b"")));
    }
    let mut sim = spec.build_sim(sim_config(43));
    let probe = sim.add_node(Probe::new(script), NodeConfig::default());
    sim.start();
    sim.run_until(SimTime(warm - 1));

    let mut heads = std::collections::BTreeSet::new();
    for (i, key) in keys.iter().enumerate() {
        let prefs = placement(&spec, key);
        heads.insert(prefs[0]);
        for (req, puts, gets) in [(2 * i as u64, 1, 0), (2 * i as u64 + 1, 0, 1)] {
            let before = node_stats(&sim, &spec);
            sim.run_for(STEP_US);
            let p = sim.process::<Probe>(probe).unwrap();
            assert_eq!(p.response_for(req).and_then(resp_status), Some(status::OK), "{key}");
            let by = coordinated(&before, &node_stats(&sim, &spec));
            assert_eq!(by, vec![(prefs[0], puts, gets)], "{key}: preference list {prefs:?}");
        }
    }
    // The keys spread over more than one coordinator; placement agrees with
    // the storage nodes' converged rings.
    assert!(heads.len() > 1, "{heads:?}");
    for key in &keys {
        let ring = sim.process::<StorageNode>(NodeId(0)).unwrap().ring();
        assert_eq!(ring.preference_list(key.as_bytes(), 3), placement(&spec, key));
    }
}

/// A request whose first coordinator is down goes, at the deadline, to the
/// second member of its key's preference list, and to no other node.
#[test]
fn redispatch_after_silence_goes_to_the_next_preference_list_member() {
    let spec = uncached_topology();
    let fe = spec.frontend_ids()[0];
    let warm = spec.warmup_us();
    let key = "silent-head";
    let prefs = placement(&spec, key);
    let (mut sim, registry) = spec.build_sim_with_metrics(sim_config(44));
    let probe = sim.add_node(
        Probe::new(vec![(warm + 200_000, fe, rest(1, Method::Post, Some(key), b"v"))]),
        NodeConfig::default(),
    );
    sim.schedule_crash(SimTime(warm + 100_000), prefs[0], None);
    sim.start();
    sim.run_until(SimTime(warm));
    let before = node_stats(&sim, &spec);
    sim.run_for(spec.frontend_config().request_deadline_us + 1_000_000);

    let p = sim.process::<Probe>(probe).unwrap();
    assert_eq!(p.response_for(1).and_then(resp_status), Some(status::OK));
    let by = coordinated(&before, &node_stats(&sim, &spec));
    assert_eq!(by, vec![(prefs[1], 1, 0)], "preference list {prefs:?}");
    let snap = registry.snapshot();
    assert_eq!(snap.counters.get("frontend.redispatches").copied(), Some(1));
    assert_eq!(snap.counters.get("frontend.timeouts").copied().unwrap_or(0), 0);
}

/// A coordinator that is up but cut off from its peers answers with a
/// quorum failure instead of going silent. The front end sends a GET, PUT
/// or DELETE that fails so to the next member of the key's preference
/// list, which reaches a quorum. The paper's `W = 2` fails at the head:
/// its own copy and the hint it holds for itself are one node's ack.
/// `R = 2` because it would answer a read of one from its own copy.
#[test]
fn failed_coordinator_is_redispatched_to_the_next_member() {
    let mut spec = uncached_topology();
    spec.storage.nwr = Nwr { n: 3, w: 2, r: 2 };
    let fe = spec.frontend_ids()[0];
    let warm = spec.warmup_us();
    let key = "cut-off-head";
    let prefs = placement(&spec, key);
    let (mut sim, registry) = spec.build_sim_with_metrics(sim_config(45));
    let probe = sim.add_node(
        Probe::new(vec![
            (warm + 100_000, fe, rest(1, Method::Post, Some(key), b"v")),
            (warm + 3_000_000, fe, rest(2, Method::Get, Some(key), b"")),
        ]),
        NodeConfig::default(),
    );
    // The head still hears its peers (so it keeps them on its ring) and
    // still answers the front end, but reaches no other storage node.
    for peer in spec.storage_ids().into_iter().filter(|&id| id != prefs[0]) {
        sim.schedule_link_oneway(SimTime(warm), prefs[0], peer, false);
    }
    sim.start();
    sim.run_until(SimTime(warm));
    let before = node_stats(&sim, &spec);
    sim.run_for(5_000_000);

    let p = sim.process::<Probe>(probe).unwrap();
    assert_eq!(p.response_for(1).and_then(resp_status), Some(status::OK));
    match p.response_for(2) {
        Some(Msg::RestResp(r)) => {
            assert_eq!(r.status, status::OK);
            assert_eq!(*r.body, b"v");
        }
        other => panic!("{other:?}"),
    }
    let after = node_stats(&sim, &spec);
    let (head, next) = (prefs[0].0 as usize, prefs[1].0 as usize);
    assert_eq!((after[head].puts_failed, after[head].gets_failed), (1, 1), "{prefs:?}");
    assert_eq!((after[next].puts_ok, after[next].gets_ok), (1, 1), "{prefs:?}");
    assert_eq!(coordinated(&before, &after).len(), 2, "{prefs:?}");
    let snap = registry.snapshot();
    assert_eq!(snap.counters.get("frontend.redispatches").copied(), Some(2));
    assert_eq!(snap.counters.get("frontend.timeouts").copied().unwrap_or(0), 0);
}
