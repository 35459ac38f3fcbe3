//! Cluster runtime substrate for MyStore.
//!
//! The paper deploys MyStore on a physical LAN (Netty message framework,
//! gigabit switch, Xeon servers). This crate replaces that testbed with two
//! interchangeable runtimes for the same *sans-io* component model:
//!
//! * [`sim::Sim`] — a deterministic discrete-event simulator with latency,
//!   bandwidth, queueing, and fault models. All experiments (`crates/bench`)
//!   run here, reproducibly.
//! * [`threaded::ThreadedCluster`] — one OS thread per node with channel
//!   links, for examples and integration tests that exercise real
//!   concurrency.
//!
//! Components implement [`process::Process`] and never do I/O themselves;
//! the runtime interprets their emitted [`process::Action`]s. See DESIGN.md
//! §4 for why this architecture was chosen.

#![forbid(unsafe_code)]

pub mod faults;
pub mod netmodel;
pub mod process;
pub mod rng;
pub mod sim;
mod syncer;
pub mod threaded;
pub mod time;
pub mod trace;

pub use faults::{
    FaultEvent, FaultMetrics, FaultPlan, FaultSchedule, LinkFaultRule, LinkOutcome, OpFault,
    ScheduleParseError, ScheduledFault,
};
pub use netmodel::NetConfig;
pub use process::{Action, Context, NodeId, Process, SyncJob, TimerToken, WireSized};
pub use rng::Rng;
pub use sim::{NodeConfig, Sim, SimConfig, StopReason};
pub use threaded::{Injector, RecvError, ThreadedCluster, ThreadedClusterBuilder, ThreadedConfig};
pub use time::SimTime;
pub use trace::{Trace, TraceEvent};
