//! Quickstart: bring up the paper's Fig. 10 topology on the deterministic
//! simulator, then create, read, update and delete a record through the
//! REST front end.
//!
//! ```bash
//! cargo run --example quickstart
//! ```

use mystore::core::prelude::*;
use mystore::core::testing::Probe;
use mystore::net::{FaultPlan, NetConfig, NodeConfig, SimConfig};

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

fn main() {
    // 1. Describe the deployment: 5 DB nodes (1 seed), 4 cache servers,
    //    1 front end, (N,W,R) = (3,2,1) — exactly the paper's testbed.
    let spec = ClusterSpec::paper_topology();
    println!(
        "topology: {} storage, {} cache, {} front end(s), NWR = (3,2,1)",
        spec.storage_nodes, spec.cache_nodes, spec.frontends
    );

    // 2. Build it on the simulator and add ourselves as a client.
    let mut sim = spec.build_sim(SimConfig {
        net: NetConfig::gigabit_lan(),
        faults: FaultPlan::none(),
        seed: 7,
    });
    let fe = spec.frontend_ids()[0];
    let warm = spec.warmup_us();
    let probe = sim.add_node(
        Probe::new(vec![
            (warm, fe, rest(1, Method::Post, Some("Resistor5"), b"<component ohms=\"470\"/>")),
            (warm + 300_000, fe, rest(2, Method::Get, Some("Resistor5"), b"")),
            (warm + 600_000, fe, rest(3, Method::Get, Some("Resistor5"), b"")),
            (
                warm + 900_000,
                fe,
                rest(4, Method::Post, Some("Resistor5"), b"<component ohms=\"220\"/>"),
            ),
            (warm + 1_200_000, fe, rest(5, Method::Get, Some("Resistor5"), b"")),
            (warm + 1_500_000, fe, rest(6, Method::Delete, Some("Resistor5"), b"")),
            (warm + 1_800_000, fe, rest(7, Method::Get, Some("Resistor5"), b"")),
        ]),
        NodeConfig::default(),
    );

    // 3. Run: gossip converges, then our script plays out.
    sim.start();
    sim.run_for(warm + 3_000_000);

    // 4. Inspect the responses.
    let p = sim.process::<Probe>(probe).expect("probe");
    for (at, _, msg) in &p.responses {
        if let Msg::RestResp(r) = msg {
            println!(
                "t={at} req={} -> {} {}{}",
                r.req,
                r.status,
                String::from_utf8_lossy(&r.body),
                if r.from_cache { " (from cache)" } else { "" },
            );
        }
    }

    // 5. And the cluster's own accounting: each coordinator records its
    // outcomes in the sim trace under its own id.
    for id in spec.storage_ids() {
        let node = sim.process::<StorageNode>(id).expect("storage node");
        let coordinated =
            |name| sim.trace().events().iter().filter(|e| e.node == id && e.name == name).count();
        println!(
            "{id}: {} records, coordinated {} puts / {} gets",
            node.record_count(),
            coordinated("put_ok"),
            coordinated("get_ok")
        );
    }

    let ok = p.count_where(|m| matches!(m, Msg::RestResp(r) if r.status < 300));
    let not_found =
        p.count_where(|m| matches!(m, Msg::RestResp(r) if r.status == status::NOT_FOUND));
    assert_eq!(ok, 6, "create/read/read/update/read/delete must succeed");
    assert_eq!(not_found, 1, "the final read must be 404 after DELETE");
    println!("quickstart OK");
}
