//! On a 3-host TCP mesh with N = 3, every host holds a replica of every
//! key, so each host's frontend has its own storage node coordinate every
//! request it receives: no request crosses a socket to reach a remote
//! coordinator.
//!
//! Each host runs its own metrics `Registry`, so a host's
//! `quorum.{write,read}.started` count exactly the ops its own node
//! coordinated.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use mystore_core::{status, Method, Msg, RestRequest};
use mystore_net::NodeId;
use mystore_serverd::{write_frame, FrameReader, Host, ServerSpec, FRONTEND_BASE};

/// PUTs, and then GETs, each host's frontend receives.
const OPS: u64 = 40;

fn rest(req: u64, method: Method, key: String) -> Msg {
    Msg::RestReq(RestRequest {
        req,
        method,
        key: Some(key),
        body: vec![req as u8; 128].into(),
        if_match: None,
        auth: None,
    })
}

/// Sends `OPS` requests of `method` to `frontend` in one write and checks
/// that every one is answered `200`.
fn round(out: &mut TcpStream, rd: &mut FrameReader<TcpStream>, frontend: NodeId, method: Method) {
    let mut batch = Vec::new();
    for req in 1..=OPS {
        let key = format!("local-first-{}-{req}", frontend.0 - FRONTEND_BASE);
        write_frame(&mut batch, NodeId::EXTERNAL, frontend, &rest(req, method, key))
            .expect("encode");
    }
    out.write_all(&batch).expect("send requests");
    let mut answered = 0;
    while answered < OPS {
        match rd.next_frame().expect("reply within the read timeout") {
            Some((_, _, Msg::RestResp(r))) => {
                assert_eq!(r.status, status::OK, "{method:?} {} via {frontend}", r.req);
                answered += 1;
            }
            Some(_) => {}
            None => panic!("gateway closed the connection"),
        }
    }
}

#[test]
fn each_host_coordinates_the_requests_it_receives() {
    let spec = ServerSpec::local(3);
    let hosts = Host::boot_tcp_mesh(&spec).expect("boot mesh");
    for host in &hosts {
        host.await_ready(&spec.node_ids(), Duration::from_secs(20)).expect("ring converges");
    }
    for (host, node) in hosts.iter().zip(&spec.nodes) {
        let stream = TcpStream::connect(host.wire_addr()).expect("connect to the wire listener");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
        let mut out = stream.try_clone().expect("clone stream");
        let mut rd = FrameReader::new(stream);
        let frontend = NodeId(FRONTEND_BASE + node.id);
        round(&mut out, &mut rd, frontend, Method::Post);
        round(&mut out, &mut rd, frontend, Method::Get);
    }
    let snapshots: Vec<_> = hosts.iter().map(|h| h.metrics().snapshot()).collect();
    for host in hosts {
        host.shutdown(Duration::ZERO);
    }

    for (i, snap) in snapshots.iter().enumerate() {
        let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        assert_eq!(count("quorum.write.started"), OPS, "host {i}");
        assert_eq!(count("quorum.read.started"), OPS, "host {i}");
        assert_eq!(count("frontend.redispatches"), 0, "host {i}");
    }
}
