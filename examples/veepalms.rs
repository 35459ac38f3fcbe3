//! VeePalms — the multi-discipline virtual-experiment platform the paper
//! deploys MyStore under (§1, §6).
//!
//! The platform stores four kinds of unstructured data: XML experiment
//! components, experiment scenes, guideline videos, and experiment reports.
//! This example drives a day-in-the-life slice of that workload with
//! authenticated requests:
//!
//! 1. instructors upload components and scenes (signed POSTs),
//! 2. a class of students hammers GETs on the hot scene (cache at work),
//! 3. a scene is revised (update) and an obsolete component deleted.
//!
//! ```bash
//! cargo run --example veepalms
//! ```

use mystore::core::prelude::*;
use mystore::core::testing::Probe;
use mystore::core::{sign_request, AuthConfig, Frontend};
use mystore::net::{FaultPlan, NetConfig, NodeConfig, NodeId, SimConfig};

fn main() {
    let mut spec = ClusterSpec::paper_topology();
    spec.frontends = 0; // we add one with authentication enabled
    let warm = spec.warmup_us();
    let mut sim = spec.build_sim(SimConfig {
        net: NetConfig::gigabit_lan(),
        faults: FaultPlan::none(),
        seed: 2026,
    });

    // Authenticated front end: the instructor holds a secret key issued by
    // the platform's web interface (paper Fig. 2).
    let mut fe_cfg = spec.frontend_config();
    fe_cfg.auth = Some(AuthConfig::default().with_user("instructor", "circuits-2026"));
    let mut fe_proc = Frontend::new(fe_cfg);
    // RESTful interfaces are stateless, so every request carries its own
    // single-use token (paper Fig. 2). Pre-issue enough for the session.
    let tokens: Vec<String> = (0..200).map(|_| fe_proc.issue_token("instructor")).collect();
    let fe = sim.add_node(fe_proc, NodeConfig { concurrency: 32 });

    // --- build the signed instructor uploads -------------------------------
    let signed = |req: u64, token: &str, key: &str, body: &[u8]| {
        let sig = sign_request(token, &format!("/data/{key}"), "circuits-2026");
        Msg::RestReq(RestRequest {
            req,
            method: Method::Post,
            key: Some(key.to_string()),
            body: body.to_vec().into(),
            if_match: None,
            auth: Some(("instructor".to_string(), sig)),
        })
    };
    let component = br#"<component id="Resistor5" ohms="470" package="smd"/>"#;
    let scene = br#"<scene id="rc-filter"><use ref="Resistor5"/><use ref="Cap33n"/></scene>"#;
    let mut script: Vec<(u64, NodeId, Msg)> = vec![
        (warm, fe, signed(1, &tokens[0], "component:Resistor5", component)),
        (warm + 200_000, fe, signed(2, &tokens[1], "scene:rc-filter", scene)),
    ];
    let mut tok = 2usize;

    // --- students read the hot scene ---------------------------------------
    for i in 0..60u64 {
        let key = "scene:rc-filter";
        let sig = sign_request(&tokens[tok], &format!("/data/{key}"), "circuits-2026");
        tok += 1;
        script.push((
            warm + 2_000_000 + i * 30_000,
            fe,
            Msg::RestReq(RestRequest {
                req: 100 + i,
                method: Method::Get,
                key: Some(key.into()),
                body: Default::default(),
                if_match: None,
                auth: Some(("instructor".into(), sig)),
            }),
        ));
    }
    // --- revise + retire ------------------------------------------------------
    script.push((
        warm + 5_000_000,
        fe,
        signed(3, &tokens[tok], "scene:rc-filter", b"<scene id=\"rc-filter\" v=\"2\"/>"),
    ));
    tok += 1;
    script.push((
        warm + 5_400_000,
        fe,
        Msg::RestReq(RestRequest {
            req: 4,
            method: Method::Delete,
            key: Some("component:Resistor5".into()),
            body: Default::default(),
            if_match: None,
            auth: Some((
                "instructor".into(),
                sign_request(&tokens[tok], "/data/component:Resistor5", "circuits-2026"),
            )),
        }),
    ));

    let probe = sim.add_node(Probe::new(script), NodeConfig::default());
    sim.start();
    sim.run_for(warm + 8_000_000);

    // --- report ------------------------------------------------------------
    let p = sim.process::<Probe>(probe).expect("probe");
    let ok = p.count_where(|m| matches!(m, Msg::RestResp(r) if r.status < 300));
    let cached = p.count_where(|m| matches!(m, Msg::RestResp(r) if r.from_cache));
    println!("{ok} successful responses, {cached} served from cache");

    // The revised scene reached its replicas; the retired component is a
    // tombstone there (logical delete, paper §3.3).
    let replicas = |key: &str| -> Vec<_> {
        spec.storage_ids()
            .iter()
            .filter_map(|&id| {
                let node = sim.process::<StorageNode>(id).expect("node");
                node.db().get_record("data", key).ok().flatten()
            })
            .collect()
    };
    let scenes = replicas("scene:rc-filter");
    let tombstones = replicas("component:Resistor5").iter().filter(|r| r.is_del).count();
    println!("scene replicas: {}, component tombstones: {tombstones}", scenes.len());

    assert!(ok >= 60, "most operations must succeed, got {ok}");
    assert!(cached >= 40, "the hot scene must be served from cache, got {cached}");
    assert_eq!(scenes.len(), 3, "N=3 replicas of the scene");
    assert!(scenes.iter().all(|r| r.val.starts_with(b"<scene id=\"rc-filter\" v=\"2\"")));
    assert_eq!(tombstones, 3, "the delete reached every replica");
    println!("veepalms OK");
}
