//! `Host::boot_tcp_mesh` must not leave half a mesh running when a later
//! host fails to boot.

use std::net::{TcpListener, TcpStream};

use mystore_serverd::{Host, ServerSpec};

#[test]
fn failed_mesh_boot_shuts_down_the_hosts_already_booted() {
    // Three concrete loopback ports: the first two are free again by the
    // time the mesh boots, the third stays bound by this test.
    let probes: Vec<TcpListener> =
        (0..3).map(|_| TcpListener::bind("127.0.0.1:0").expect("probe bind")).collect();
    let addrs: Vec<_> = probes.iter().map(|l| l.local_addr().expect("probe addr")).collect();
    let mut probes = probes.into_iter();
    drop(probes.next());
    drop(probes.next());
    let _held = probes.next().expect("third probe");

    let mut spec = ServerSpec::local(3);
    for (node, addr) in spec.nodes.iter_mut().zip(&addrs) {
        node.listen = addr.to_string();
    }
    let err = Host::boot_tcp_mesh(&spec).err().expect("third listen address is taken");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);

    // The mesh boot took the first two ports before the third failed; once
    // the call has returned, nothing may be listening there any more.
    for addr in addrs.iter().take(2) {
        assert!(
            TcpStream::connect(addr).is_err(),
            "{addr} still accepts connections: a booted host outlived the failed mesh boot"
        );
    }
}
