//! `GET /_ready` over a real HTTP socket: 200 once every spec node runs
//! and has joined the ring, 503 while a peer the spec names is missing.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use mystore_serverd::{Host, ServerSpec, Transport};

/// One `GET /_ready` on a fresh connection; returns the status code.
fn get_ready(addr: SocketAddr) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect to the REST listener");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    stream
        .write_all(b"GET /_ready HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read reply");
    let status = reply.split(' ').nth(1).expect("status line");
    status.parse().expect("numeric status")
}

#[test]
fn ready_answers_200_once_every_spec_node_runs() {
    let hosts = Host::boot_tcp_mesh(&ServerSpec::local(3)).expect("boot mesh");
    let addr = hosts[0].http_addr().expect("node 0 serves REST");
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut last = 0;
    while Instant::now() < deadline {
        last = get_ready(addr);
        if last == 200 {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    for host in hosts {
        host.shutdown(Duration::ZERO);
    }
    assert_eq!(last, 200, "the mesh never reported ready");
}

#[test]
fn ready_answers_503_while_a_peer_was_never_booted() {
    // Node 1 gets an address nothing listens on: a port taken and freed.
    let missing = TcpListener::bind("127.0.0.1:0").and_then(|l| l.local_addr()).expect("probe");
    let mut spec = ServerSpec::local(2);
    spec.nodes[1].listen = missing.to_string();
    let host = Host::boot(&spec, Some(0), Transport::Tcp).expect("boot node 0");
    let addr = host.http_addr().expect("node 0 serves REST");
    // Several gossip rounds (50 ms each) pass during these polls; the ring
    // still lacks node 1, so every answer is 503.
    let statuses: Vec<u16> = (0..3).map(|_| get_ready(addr)).collect();
    host.shutdown(Duration::ZERO);
    assert_eq!(statuses, vec![503; 3]);
}
