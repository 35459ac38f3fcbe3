//! Workspace-level integration tests spanning every crate: the full REST
//! topology with workload clients, the baseline systems, and whole-stack
//! determinism.

use std::sync::Arc;

use mystore::baselines::FsStoreNode;
use mystore::core::prelude::*;
use mystore::net::{FaultPlan, NetConfig, NodeConfig, Sim, SimConfig, SimTime};
use mystore::workload::{
    preload_mystore, rate_per_sec, xml_corpus, RestClient, RestClientConfig, Summary,
};

fn sim_config(seed: u64) -> SimConfig {
    SimConfig { net: NetConfig::gigabit_lan(), faults: FaultPlan::none(), seed }
}

#[test]
fn full_topology_serves_a_closed_loop_workload() {
    let spec = ClusterSpec::paper_topology();
    let net = NetConfig::gigabit_lan();
    let mut sim = spec.build_sim(sim_config(1));
    let items = Arc::new(xml_corpus(300, 100, &mut mystore::net::Rng::new(5)));
    let fe = spec.frontend_ids()[0];
    let mut clients = Vec::new();
    for i in 0..30 {
        clients.push(sim.add_node(
            RestClient::new(RestClientConfig {
                target: fe,
                items: Arc::clone(&items),
                read_ratio: 0.8,
                think_us: (0, 100_000),
                max_ops: Some(20),
                start_delay_us: spec.warmup_us() + 1 + i * 1000,
                retry_statuses: vec![status::BUSY, status::TIMEOUT],
                net: net.clone(),
                class_filter: None,
            }),
            NodeConfig::default(),
        ));
    }
    sim.start();
    sim.run_for(spec.warmup_us());
    preload_mystore(&mut sim, &spec.storage_ids(), spec.storage.vnodes, spec.storage.nwr.n, &items);
    sim.run_for(30_000_000);

    let mut completed = 0;
    for &c in &clients {
        let client = sim.process::<RestClient>(c).unwrap();
        completed += client.completed;
        assert_eq!(client.errors, 0, "client saw errors");
    }
    assert_eq!(completed, 30 * 20);
    // Latency metrics exist and are sane.
    let ttfb = Summary::from_trace(sim.trace(), "ttfb_us").unwrap();
    assert!(ttfb.count >= 400);
    assert!(ttfb.mean > 100.0 && ttfb.mean < 1_000_000.0, "mean ttfb {}", ttfb.mean);
    // Rate accounting works.
    let rps = rate_per_sec(sim.trace(), "ttlb_us", SimTime(spec.warmup_us()), sim.now());
    assert!(rps > 1.0);
}

#[test]
fn baseline_store_serves_the_same_workload() {
    let net = NetConfig::gigabit_lan();
    let mut sim: Sim<Msg> = Sim::new(sim_config(2));
    let store = sim.add_node(FsStoreNode::default(), NodeConfig { concurrency: 2 });
    let items = Arc::new(xml_corpus(100, 100, &mut mystore::net::Rng::new(6)));
    let client = sim.add_node(
        RestClient::new(RestClientConfig {
            target: store,
            items: Arc::clone(&items),
            read_ratio: 0.5, // writes populate, reads hit
            think_us: (0, 10_000),
            max_ops: Some(100),
            start_delay_us: 1,
            retry_statuses: vec![],
            net,
            class_filter: None,
        }),
        NodeConfig::default(),
    );
    sim.start();
    sim.run_for(60_000_000);
    let c = sim.process::<RestClient>(client).unwrap();
    assert_eq!(c.completed, 100);
    // 404s on unwritten keys are fine; hard errors are not.
    let errs = sim.trace().values("rest_status").into_iter().filter(|s| *s >= 500.0).count();
    assert_eq!(errs, 0);
}

#[test]
fn whole_stack_is_deterministic_per_seed() {
    let run = |seed: u64| -> Vec<f64> {
        let spec = ClusterSpec::paper_topology();
        let net = NetConfig::gigabit_lan();
        let mut sim = spec.build_sim(sim_config(seed));
        let items = Arc::new(xml_corpus(100, 100, &mut mystore::net::Rng::new(9)));
        sim.add_node(
            RestClient::new(RestClientConfig {
                target: spec.frontend_ids()[0],
                items,
                read_ratio: 0.7,
                think_us: (0, 50_000),
                max_ops: Some(50),
                start_delay_us: spec.warmup_us(),
                retry_statuses: vec![status::BUSY],
                net,
                class_filter: None,
            }),
            NodeConfig::default(),
        );
        sim.start();
        sim.run_for(spec.warmup_us() + 20_000_000);
        sim.trace().values("ttlb_us")
    };
    assert_eq!(run(77), run(77), "same seed must give identical latencies");
    assert_ne!(run(77), run(78), "different seeds should differ");
}

#[test]
fn facade_reexports_compose() {
    // The facade crate must expose all layers coherently.
    let digest = mystore::ring::md5::md5(b"facade");
    assert_eq!(digest.len(), 16);
    let d = mystore::bson::doc! { "x": 1 };
    assert_eq!(d.to_bytes().len(), d.encoded_size());
    let mut lru = mystore::cache::LruCache::new(1024);
    lru.put("k", vec![1]);
    assert!(lru.get("k").is_some());
    let plan = mystore::net::FaultPlan::paper_table2();
    assert!(!plan.is_none());
    let mut db = mystore::engine::Db::memory();
    db.insert_doc("c", mystore::bson::doc! { "y": 2 }).unwrap();
    assert_eq!(db.stats().documents, 1);
}
