//! One host of a 3-host TCP mesh reboots on its data directory and ports
//! while the other two keep running. Its clock counts from a fixed epoch,
//! not from its boot, so the writes it coordinates after the reboot stamp
//! versions above the ones it wrote before and win LWW over them, though
//! its first boot ran 3 s longer before writing than the second does.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use mystore_core::{status, Method, Msg, RestRequest, RestResponse};
use mystore_net::NodeId;
use mystore_serverd::{write_frame, FrameReader, Host, ServerSpec, Transport};

const KEY: &str = "mesh-restart";

/// Sends one REST request to `host`'s frontend and returns its answer.
fn request(host: &Host, req: u64, method: Method, body: &[u8]) -> RestResponse {
    let stream = TcpStream::connect(host.wire_addr()).expect("connect to the wire listener");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let mut out = stream.try_clone().expect("clone stream");
    let msg = Msg::RestReq(RestRequest {
        req,
        method,
        key: Some(KEY.to_string()),
        body: body.to_vec().into(),
        if_match: None,
        auth: None,
    });
    let mut frame = Vec::new();
    write_frame(&mut frame, NodeId::EXTERNAL, host.frontend_id(), &msg).expect("encode");
    out.write_all(&frame).expect("send request");
    let mut rd = FrameReader::new(stream);
    loop {
        match rd.next_frame().expect("reply within the read timeout") {
            Some((_, _, Msg::RestResp(r))) if r.req == req => return r,
            Some(_) => {}
            None => panic!("gateway closed the connection"),
        }
    }
}

#[test]
fn rebooted_host_writes_win_over_its_earlier_writes() {
    let dir = std::env::temp_dir().join(format!("mystore-mesh-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut spec = ServerSpec::local(3);
    spec.data_dir = Some(dir.to_string_lossy().into_owned());
    let ids = spec.node_ids();
    let mut hosts = Host::boot_tcp_mesh(&spec).expect("boot mesh");
    // The ports the mesh bound, so host 0 reboots where its peers look.
    for (node, host) in spec.nodes.iter_mut().zip(&hosts) {
        node.listen = host.wire_addr().to_string();
    }
    for host in &hosts {
        host.await_ready(&ids, Duration::from_secs(20)).expect("ring converges");
    }
    std::thread::sleep(Duration::from_secs(3));
    assert_eq!(request(&hosts[0], 1, Method::Post, b"before").status, status::OK);

    hosts.remove(0).shutdown(Duration::from_secs(5));
    hosts.insert(0, Host::boot(&spec, Some(0), Transport::Tcp).expect("reboot host 0"));
    for host in &hosts {
        host.await_ready(&ids, Duration::from_secs(20)).expect("ring re-converges");
    }
    assert_eq!(request(&hosts[0], 2, Method::Post, b"after").status, status::OK);
    // An `R = 1` read may beat the write's third replica copy to a host,
    // so each host is asked until it answers `after` or a deadline passes.
    for (i, host) in hosts.iter().take(2).enumerate() {
        let deadline = Instant::now() + Duration::from_secs(3);
        let mut body = Vec::new();
        for req in 10.. {
            let resp = request(host, req, Method::Get, b"");
            assert_eq!(resp.status, status::OK, "GET via host {i}");
            body = resp.body.to_vec();
            if body == b"after" || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        assert_eq!(String::from_utf8_lossy(&body), "after", "GET via host {i}");
    }
    for host in hosts {
        host.shutdown(Duration::ZERO);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
