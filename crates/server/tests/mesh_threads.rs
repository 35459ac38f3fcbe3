//! The thread inventory of a 3-host TCP mesh under load and after
//! shutdown.
//!
//! Each host runs one loop thread for its storage node and its frontend
//! together (`mystore-node-<first node id>`). The loop hands cross-host
//! frames straight to its peer host's writer, so no routing thread sits
//! between them, and each host runs exactly one writer per remote host
//! (named by that host's first node id, since a thread name keeps 15
//! bytes). `Host::shutdown` joins the loop and every gateway and
//! peer-writer thread before it returns.
//!
//! This binary holds one test, so no other mesh shares the process whose
//! threads it counts.

#![cfg(target_os = "linux")]

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mystore_core::Msg;
use mystore_net::NodeId;
use mystore_serverd::{write_frame, FrameReader, Host, ServerSpec};

const PUTS: u64 = 100;

/// The names of this process's threads, from `/proc/self/task/*/comm`.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect()
}

/// This process's threads whose names start with one of `prefixes`,
/// sorted.
fn threads_named(prefixes: &[&str]) -> Vec<String> {
    let mut names: Vec<String> =
        thread_names().into_iter().filter(|n| prefixes.iter().any(|p| n.starts_with(p))).collect();
    names.sort_unstable();
    names
}

/// The threads a host starts: its loop, its gateway's and its peer
/// writers.
fn host_threads() -> Vec<String> {
    threads_named(&["mystore-node-", "mystore-gw-", "mystore-peer-"])
}

/// A wire client connection to `host`: its write half and a reader.
fn connect(host: &Host) -> (TcpStream, FrameReader<TcpStream>) {
    let stream = TcpStream::connect(host.wire_addr()).expect("connect to the wire listener");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    (stream.try_clone().expect("clone stream"), FrameReader::new(stream))
}

/// Sends `PUTS` PUTs through storage node 0 in one write and waits for
/// every ack.
fn put_through_node_0(host: &Host) {
    let (mut out, mut rd) = connect(host);
    let mut batch = Vec::new();
    for req in 1..=PUTS {
        let put = Msg::Put {
            req,
            key: format!("mesh-threads-{req}"),
            value: Arc::new(vec![req as u8; 256]),
            delete: false,
        };
        write_frame(&mut batch, NodeId::EXTERNAL, NodeId(0), &put).expect("encode");
    }
    out.write_all(&batch).expect("send puts");
    let mut acked = 0;
    while acked < PUTS {
        match rd.next_frame().expect("reply within the read timeout") {
            Some((_, _, Msg::PutResp { req, result })) => {
                assert!(result.is_ok(), "put {req} failed: {result:?}");
                acked += 1;
            }
            Some(_) => {}
            None => panic!("gateway closed the connection"),
        }
    }
}

#[test]
fn a_mesh_runs_one_writer_per_remote_host_and_no_pump_and_shutdown_joins_them() {
    let spec = ServerSpec::local(3);
    let hosts = Host::boot_tcp_mesh(&spec).expect("boot mesh");
    for host in &hosts {
        host.await_ready(&spec.node_ids(), Duration::from_secs(20)).expect("ring converges");
    }
    put_through_node_0(&hosts[0]);
    // A client that stays connected, idle, through the shutdown: only the
    // shutdown flag ends its reader, at a read timeout, so a gateway that
    // left its connection threads running would still show them below.
    let (mut idle, mut idle_rd) = connect(&hosts[2]);
    write_frame(&mut idle, NodeId::EXTERNAL, NodeId(2), &Msg::RingReq { req: 1 }).expect("probe");
    let reply = idle_rd.next_frame().expect("ring reply");
    assert!(matches!(reply, Some((_, _, Msg::RingResp { .. }))), "{reply:?}");

    let names = thread_names();
    assert!(!names.iter().any(|n| n == "mystore-gw-pump"), "a pump thread runs: {names:?}");
    let writers = threads_named(&["mystore-peer-"]);
    // Host 0 writes to hosts 1 and 2, host 1 to 0 and 2, host 2 to 0 and 1.
    let want: Vec<String> =
        [0, 0, 1, 1, 2, 2].iter().map(|id| format!("mystore-peer-{id}")).collect();
    assert_eq!(writers, want, "two peer writers per host, one per remote host");
    let loops = threads_named(&["mystore-node-"]);
    let want: Vec<String> = (0..3).map(|id| format!("mystore-node-{id}")).collect();
    assert_eq!(loops, want, "one loop per host drives its storage node and its frontend");

    for host in hosts {
        host.shutdown(Duration::ZERO);
    }
    // A joined thread can stay listed for an instant while the kernel
    // finishes its exit; a thread still running stays listed.
    let deadline = Instant::now() + Duration::from_millis(10);
    let mut left = host_threads();
    while !left.is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
        left = host_threads();
    }
    assert!(left.is_empty(), "threads left after Host::shutdown returned: {left:?}");
    drop((idle, idle_rd));
}
