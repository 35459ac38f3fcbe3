//! Production runtime for mystore: real threads, real sockets, same nodes.
//!
//! Everything the simulator verifies — `StorageNode`, `Frontend`, the
//! quorum/gossip/WAL machinery — runs here unmodified behind the sans-io
//! [`Process`](mystore_net::Process) trait. This crate supplies what the
//! simulator mocked:
//!
//! * [`codec`] / [`frame`] — a deterministic, bounds-checked binary wire
//!   format for `Msg` (length-prefixed frames, version byte).
//! * [`gateway`] — the socket edge: accepts peer and client connections;
//!   its [`Router`] hands outbound frames from the host loop straight to
//!   one writer per peer host, and client replies to their connections.
//! * [`http`] — a minimal HTTP/1.1 adapter in front of the existing REST
//!   frontend (`/_stats`, keyed GET/POST with `If-Match`, `/_ready`).
//! * [`spec`] — the TOML-subset cluster spec (`mystore-server --spec`).
//! * [`host`] — boot, readiness polling, and graceful drain-then-sync
//!   shutdown for one process's slice of the cluster.
//!
//! The simulator remains the oracle: nothing here changes `Msg` semantics,
//! and the deterministic traces (`quorum_golden`) are untouched.

#![forbid(unsafe_code)]

pub mod codec;
pub mod frame;
pub mod gateway;
pub mod host;
pub mod http;
pub mod spec;

pub use codec::{decode_msg, encode_msg};
pub use frame::{read_frame, write_frame, FrameReader, MAX_FRAME, WIRE_VERSION};
pub use gateway::{ClientRegistry, Gateway, Router, CLIENT_BASE};
pub use host::{
    await_ring_convergence, poll_ring_ready, ring_converged, Host, Transport, FRONTEND_BASE,
};
pub use http::HttpServer;
pub use spec::{NodeSpec, ServerSpec};
