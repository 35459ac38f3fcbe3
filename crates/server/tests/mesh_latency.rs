//! Fixed-size PUTs over a real 3-node TCP mesh must not wait on delayed
//! ACKs.
//!
//! Every replication frame of a fixed-size value under a fixed-width key
//! has the same length, so Linux's receive-MSS estimate locks onto it and
//! the receiver delays its ACKs. A peer socket with Nagle on then holds the
//! next small frame until that delayed ACK fires, up to 40 ms later. The
//! writers avoid it with `TCP_NODELAY` and one write per drained batch.
//!
//! The shape is 100 sequential round trips of two PUTs each, sent in one
//! client write, all through storage node 0 as coordinator. One PUT at a
//! time rarely trips the timer: a fresh mesh's receive windows are still
//! opening, which makes the kernel ACK early. Two frames queued at once
//! make a Nagle socket send one and hold the second: before the writers
//! set `TCP_NODELAY`, 26–39 % of such round trips took 30–45 ms in every
//! run, while the median stayed under 1 ms. Hence the assertion is on the
//! 90th percentile, which bounds the median as well.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mystore_core::Msg;
use mystore_net::NodeId;
use mystore_serverd::{write_frame, FrameReader, Host, ServerSpec};

const ROUNDS: u64 = 100;
const PUTS_PER_ROUND: u64 = 2;
const VALUE_BYTES: usize = 1024;

fn put(req: u64) -> Msg {
    Msg::Put {
        req,
        key: format!("mesh-latency-{req:06}"),
        value: Arc::new(vec![req as u8; VALUE_BYTES]),
        delete: false,
    }
}

#[test]
fn fixed_size_puts_do_not_wait_on_delayed_acks() {
    let spec = ServerSpec::local(3);
    let hosts = Host::boot_tcp_mesh(&spec).expect("boot mesh");
    for host in &hosts {
        host.await_ready(&spec.node_ids(), Duration::from_secs(20)).expect("ring converges");
    }
    let stream = TcpStream::connect(hosts[0].wire_addr()).expect("connect to the wire listener");
    stream.set_nodelay(true).expect("nodelay");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let mut out = stream.try_clone().expect("clone stream");
    let mut rd = FrameReader::new(stream);

    let mut rtts = Vec::new();
    let mut batch = Vec::new();
    for round in 0..ROUNDS {
        let reqs = round * PUTS_PER_ROUND + 1..=(round + 1) * PUTS_PER_ROUND;
        batch.clear();
        for req in reqs.clone() {
            write_frame(&mut batch, NodeId::EXTERNAL, NodeId(0), &put(req)).expect("encode");
        }
        let start = Instant::now();
        out.write_all(&batch).expect("send round");
        let mut acked = 0;
        while acked < PUTS_PER_ROUND {
            match rd.next_frame().expect("reply within the read timeout") {
                Some((_, _, Msg::PutResp { req, result })) if reqs.contains(&req) => {
                    assert!(result.is_ok(), "put {req} failed: {result:?}");
                    acked += 1;
                }
                Some(_) => {}
                None => panic!("gateway closed the connection"),
            }
        }
        rtts.push(start.elapsed());
    }
    drop((out, rd));
    for host in hosts {
        host.shutdown(Duration::ZERO);
    }

    rtts.sort_unstable();
    let at = |q: usize| rtts[rtts.len() * q / 100];
    assert!(
        at(90) < Duration::from_millis(10),
        "round trip of {PUTS_PER_ROUND} PUTs over {ROUNDS} rounds: p50 {:?}, p90 {:?}, max {:?}",
        at(50),
        at(90),
        rtts[rtts.len() - 1],
    );
}
