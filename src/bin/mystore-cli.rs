//! `mystore-cli` — an interactive shell over a live MyStore cluster.
//!
//! Boots a storage cluster on the threaded runtime (real OS threads) and
//! reads commands from stdin:
//!
//! ```text
//! put <key> <value...>     quorum write
//! get <key>                quorum read
//! del <key>                logical delete (tombstone)
//! stats                    per-node record counts and coordinator stats
//! ring <key>               the N nodes responsible for a key
//! help                     this text
//! quit                     shut the cluster down and exit
//! ```
//!
//! ```bash
//! cargo run --bin mystore-cli                        # 5 nodes, in-memory
//! MYSTORE_NODES=8 cargo run --bin mystore-cli        # 8 nodes
//! MYSTORE_DATA_DIR=./data cargo run --bin mystore-cli # durable: survives restarts
//! ```

use std::io::{BufRead, Write as _};
use std::time::Duration;

use mystore::core::prelude::*;
use mystore::gossip::GossipConfig;
use mystore::net::{NodeId, ThreadedCluster, ThreadedClusterBuilder};
use mystore::ring::HashRing;

fn main() {
    let nodes: usize = std::env::var("MYSTORE_NODES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| (1..=64).contains(&n))
        .unwrap_or(5);
    let vnodes = 64u32;
    let gossip = GossipConfig {
        interval_us: 50_000,
        fail_after_us: 500_000,
        remove_after_us: 10_000_000,
        seeds: vec![NodeId(0)],
        extra_fanout: 1,
        idle_backoff_max: 1,
    };
    let data_dir = std::env::var("MYSTORE_DATA_DIR").ok().map(std::path::PathBuf::from);
    let mut builder = ThreadedClusterBuilder::new();
    for i in 0..nodes as u32 {
        let cfg = StorageConfig {
            gossip: gossip.clone(),
            vnodes,
            replica_timeout_us: 100_000,
            request_deadline_us: 2_000_000,
            data_dir: data_dir.clone(),
            ..StorageConfig::default()
        };
        builder = builder.add_node(StorageNode::new(NodeId(i), cfg));
    }
    let cluster = builder.build();
    match &data_dir {
        Some(d) => println!(
            "mystore-cli: {nodes} durable storage nodes up (NWR = (3,2,1), data in {}); 'help' for commands",
            d.display()
        ),
        None => println!("mystore-cli: {nodes} storage nodes up (NWR = (3,2,1)); type 'help' for commands"),
    }
    std::thread::sleep(Duration::from_millis(500));

    // The CLI's own placement view, for `ring` and coordinator choice.
    let mut ring = HashRing::new();
    for i in 0..nodes as u32 {
        ring.add_node(NodeId(i), format!("node{i}"), vnodes).expect("unique");
    }

    let stdin = std::io::stdin();
    let mut req: u64 = 1;
    let mut put_ok: u64 = 0;
    let mut get_ok: u64 = 0;
    loop {
        print!("mystore> ");
        let _ = std::io::stdout().flush();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break; // EOF
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let coordinator = |key: &str| -> NodeId {
            // Route straight to the key's primary, like the front end would.
            *ring.preference_list(key.as_bytes(), 1).first().expect("non-empty ring")
        };
        match parts.as_slice() {
            [] => {}
            ["help"] => {
                println!("put <key> <value...> | get <key> | del <key> | ring <key> | stats | quit")
            }
            ["put", key, rest @ ..] if !rest.is_empty() => {
                req += 1;
                cluster.send(
                    coordinator(key),
                    Msg::Put {
                        req,
                        key: key.to_string(),
                        value: rest.join(" ").into_bytes().into(),
                        delete: false,
                    },
                );
                match wait_reply(&cluster, req) {
                    Some(Msg::PutResp { result: Ok(()), .. }) => {
                        put_ok += 1;
                        println!("OK (quorum reached)");
                    }
                    Some(Msg::PutResp { result: Err(e), .. }) => println!("ERROR: {e}"),
                    _ => println!("ERROR: timed out"),
                }
            }
            ["get", key] => {
                req += 1;
                cluster.send(coordinator(key), Msg::Get { req, key: key.to_string() });
                match wait_reply(&cluster, req) {
                    Some(Msg::GetResp { result: Ok(Some(v)), .. }) => {
                        get_ok += 1;
                        println!("{}", String::from_utf8_lossy(&v));
                    }
                    Some(Msg::GetResp { result: Ok(None), .. }) => println!("(not found)"),
                    Some(Msg::GetResp { result: Err(e), .. }) => println!("ERROR: {e}"),
                    _ => println!("ERROR: timed out"),
                }
            }
            ["del", key] => {
                req += 1;
                cluster.send(
                    coordinator(key),
                    Msg::Put { req, key: key.to_string(), value: Default::default(), delete: true },
                );
                match wait_reply(&cluster, req) {
                    Some(Msg::PutResp { result: Ok(()), .. }) => println!("OK (tombstoned)"),
                    Some(Msg::PutResp { result: Err(e), .. }) => println!("ERROR: {e}"),
                    _ => println!("ERROR: timed out"),
                }
            }
            ["ring", key] => {
                let prefs = ring.preference_list(key.as_bytes(), 3);
                println!(
                    "{key} -> {}",
                    prefs.iter().map(|n| n.to_string()).collect::<Vec<_>>().join(", ")
                );
            }
            ["stats"] => {
                println!("session: {put_ok} puts ok, {get_ok} gets ok across {nodes} nodes");
            }
            ["quit"] | ["exit"] => break,
            other => println!("unknown command {other:?}; try 'help'"),
        }
    }
    cluster.shutdown();
    println!("bye");
}

/// Waits for the response correlated with `req`, discarding strays.
fn wait_reply(cluster: &ThreadedCluster<Msg>, req: u64) -> Option<Msg> {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while std::time::Instant::now() < deadline {
        match cluster.recv_timeout(Duration::from_millis(200)) {
            Ok((_, msg)) => {
                let matches = match &msg {
                    Msg::PutResp { req: r, .. } | Msg::GetResp { req: r, .. } => *r == req,
                    _ => false,
                };
                if matches {
                    return Some(msg);
                }
            }
            Err(mystore::net::RecvError::Timeout) => continue,
            Err(mystore::net::RecvError::Disconnected) => {
                eprintln!("cluster is down; giving up on req {req}");
                return None;
            }
        }
    }
    None
}
