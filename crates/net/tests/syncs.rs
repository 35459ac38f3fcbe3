//! The sync hook (`Context::start_sync` / `Process::on_sync_done`) in both
//! runtimes. Threaded: a sync runs beside message handling (i), its
//! completions arrive once each, in start order (ii), and a job with
//! nothing to run completes before the next envelope without a syncer
//! thread (iii). Simulator: a crash processed before a sync's completion
//! drops it (iv). A process that never syncs replays its old trace
//! exactly; `batches.rs` pins that digest.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Duration;

use mystore_net::{
    Context, FaultPlan, NetConfig, NodeConfig, NodeId, Process, Sim, SimConfig, SimTime, SyncJob,
    ThreadedClusterBuilder, TimerToken,
};

const DONE: u64 = 1_000_000;

/// Whether this process has a thread named `name` (Linux keeps the first
/// 15 bytes of a thread's name in `/proc/self/task/<tid>/comm`).
#[cfg(target_os = "linux")]
fn thread_named(name: &str) -> bool {
    std::fs::read_dir("/proc/self/task").expect("list threads").any(|task| {
        let comm = task.expect("thread entry").path().join("comm");
        std::fs::read_to_string(comm).is_ok_and(|c| c.trim_end() == name)
    })
}

// ---- threaded runtime ------------------------------------------------------

/// On `START` runs a sync job that blocks on `gate`; answers every other
/// message at once; reports `DONE` when the sync completes.
struct SlowSync {
    entered: Sender<()>,
    gate: Option<Receiver<()>>,
}

const START: u64 = 1;

impl Process<u64> for SlowSync {
    fn on_start(&mut self, _ctx: &mut Context<'_, u64>) {}
    fn on_message(&mut self, ctx: &mut Context<'_, u64>, _from: NodeId, msg: u64) {
        if msg == START {
            let (entered, gate) = (self.entered.clone(), self.gate.take().expect("one START"));
            ctx.start_sync(Some(SyncJob::new(move || {
                let _ = entered.send(());
                gate.recv_timeout(Duration::from_secs(5)).is_ok()
            })));
        } else {
            ctx.send(NodeId::EXTERNAL, msg);
        }
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_, u64>, _t: TimerToken) {}
    fn on_sync_done(&mut self, ctx: &mut Context<'_, u64>, ok: bool) {
        ctx.send(NodeId::EXTERNAL, DONE + u64::from(ok));
    }
}

/// (i) The job is held on a gate the test opens only after the node has
/// answered a message that arrived while the job was running: were the
/// job run on the node's thread, that answer would never come.
#[test]
fn threaded_message_during_a_sync_is_answered_before_it_completes() {
    let (entered_tx, entered_rx) = channel();
    let (gate_tx, gate_rx) = channel();
    let cluster = ThreadedClusterBuilder::new()
        .add_node_as(NodeId(5), SlowSync { entered: entered_tx, gate: Some(gate_rx) })
        .build();
    cluster.send(NodeId(5), START);
    entered_rx.recv_timeout(Duration::from_secs(5)).expect("the sync job started");
    #[cfg(target_os = "linux")]
    assert!(thread_named("mystore-sync-5"), "the job must run on the node's syncer thread");
    cluster.send(NodeId(5), 42);
    let (_, reply) = cluster.recv_timeout(Duration::from_secs(2)).expect("answer during the sync");
    assert_eq!(reply, 42, "the message must be answered while the sync runs");
    gate_tx.send(()).unwrap();
    let (_, done) = cluster.recv_timeout(Duration::from_secs(5)).expect("sync completion");
    assert_eq!(done, DONE + 1);
    cluster.shutdown();
}

/// On its first message starts `JOBS` syncs: every fourth has nothing to
/// run, the others sleep less the later they start and succeed unless
/// their index is a multiple of three. Reports every outcome, in order.
struct ManySyncs;

const JOBS: u64 = 12;

fn outcome(i: u64) -> bool {
    i.is_multiple_of(4) || !i.is_multiple_of(3)
}

impl Process<u64> for ManySyncs {
    fn on_start(&mut self, _ctx: &mut Context<'_, u64>) {}
    fn on_message(&mut self, ctx: &mut Context<'_, u64>, _from: NodeId, _msg: u64) {
        for i in 0..JOBS {
            let job = (!i.is_multiple_of(4)).then(|| {
                SyncJob::new(move || {
                    std::thread::sleep(Duration::from_micros((JOBS - i) * 300));
                    outcome(i)
                })
            });
            ctx.start_sync(job);
        }
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_, u64>, _t: TimerToken) {}
    fn on_sync_done(&mut self, ctx: &mut Context<'_, u64>, ok: bool) {
        ctx.send(NodeId::EXTERNAL, u64::from(ok));
    }
}

/// (ii) Completions arrive exactly once per job, in start order — also
/// when jobs with nothing to run are mixed in behind jobs with I/O.
#[test]
fn threaded_sync_completions_arrive_once_each_in_start_order() {
    let cluster = ThreadedClusterBuilder::new().add_node(ManySyncs).build();
    cluster.send(NodeId(0), 0);
    let mut got = Vec::new();
    while let Ok((_, ok)) = cluster.recv_timeout(Duration::from_millis(300)) {
        got.push(ok);
    }
    cluster.shutdown();
    let want: Vec<u64> = (0..JOBS).map(|i| u64::from(outcome(i))).collect();
    assert_eq!(got, want);
}

const BLOCK: u64 = 999;

/// On `BLOCK` starts a sync with nothing to run, then parks on a gate the
/// test opens; echoes every message and reports `DONE` per completion.
struct InlineSync {
    entered: Sender<()>,
    gate: Receiver<()>,
}

impl Process<u64> for InlineSync {
    fn on_start(&mut self, _ctx: &mut Context<'_, u64>) {}
    fn on_message(&mut self, ctx: &mut Context<'_, u64>, _f: NodeId, msg: u64) {
        if msg == BLOCK {
            ctx.start_sync(None);
            let _ = self.entered.send(());
            let _ = self.gate.recv_timeout(Duration::from_secs(5));
        }
        ctx.send(NodeId::EXTERNAL, msg);
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_, u64>, _t: TimerToken) {}
    fn on_sync_done(&mut self, ctx: &mut Context<'_, u64>, ok: bool) {
        ctx.send(NodeId::EXTERNAL, DONE + u64::from(ok));
    }
}

/// (iii) A message queued while the sync was started is taken only after
/// the sync completed, and a node that never had I/O to sync has no
/// syncer thread.
#[test]
fn threaded_job_with_nothing_to_run_completes_before_the_next_envelope() {
    let (entered_tx, entered_rx) = channel();
    let (gate_tx, gate_rx) = channel();
    let cluster = ThreadedClusterBuilder::new()
        .add_node_as(NodeId(7), InlineSync { entered: entered_tx, gate: gate_rx })
        .build();
    cluster.send(NodeId(7), BLOCK);
    entered_rx.recv_timeout(Duration::from_secs(5)).expect("node took BLOCK");
    cluster.send(NodeId(7), 3);
    gate_tx.send(()).unwrap();
    let mut out = Vec::new();
    while let Ok((_, v)) = cluster.recv_timeout(Duration::from_millis(300)) {
        out.push(v);
    }
    #[cfg(target_os = "linux")]
    assert!(!thread_named("mystore-sync-7"), "a job with nothing to run spawned a syncer");
    cluster.shutdown();
    assert_eq!(out, vec![BLOCK, DONE + 1, 3]);
}

// ---- simulator -------------------------------------------------------------

/// Starts a sync with nothing to run on every message and records when
/// each completes.
struct SimSyncer;

impl Process<u64> for SimSyncer {
    fn on_start(&mut self, _ctx: &mut Context<'_, u64>) {}
    fn on_message(&mut self, ctx: &mut Context<'_, u64>, _from: NodeId, _msg: u64) {
        ctx.start_sync(None);
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_, u64>, _token: TimerToken) {}
    fn on_sync_done(&mut self, ctx: &mut Context<'_, u64>, ok: bool) {
        ctx.record("sync_done", ok as u8 as f64);
    }
}

/// (iv) A sync started before a crash whose completion falls after it is
/// dropped: the restarted process never hears of it.
#[test]
fn sim_crash_before_a_sync_completes_drops_the_completion() {
    let run = |crash: bool| {
        let cfg = SimConfig { net: NetConfig::instant(), faults: FaultPlan::none(), seed: 50 };
        let mut sim = Sim::new(cfg);
        let node = sim.add_node(SimSyncer, NodeConfig::default());
        sim.schedule_disk_penalty(SimTime(0), node, 1_000);
        sim.start();
        sim.inject(SimTime(100), node, 1); // the sync completes at 1 100 µs
        if crash {
            sim.schedule_crash(SimTime(500), node, Some(100));
        }
        sim.run_until(SimTime::from_millis(10));
        assert!(sim.is_up(node));
        sim.trace().events().iter().map(|e| e.time.0).collect::<Vec<_>>()
    };
    assert_eq!(run(false), vec![1_100]);
    assert_eq!(run(true), Vec::<u64>::new(), "a completion outlived its crash");
}
