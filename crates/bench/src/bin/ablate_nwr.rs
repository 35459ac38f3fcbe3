//! Ablation A3 — NWR settings: latency vs consistency.
//!
//! §5.2.2: "If the system needs high consistency, then configures N = W and
//! R = 1 ... If the system needs high availability, configures W = 1".
//! This ablation measures, for `(3,3,1)`, `(3,2,1)` and `(3,1,1)`: the put
//! latency distribution (more required acks = slower writes) and the
//! read-your-write staleness observed by a client that writes through one
//! coordinator and immediately reads through another.

use mystore_bench::report::{fmt, Figure};
use mystore_core::message::Msg as CoreMsg;
use mystore_core::prelude::*;
use mystore_net::{
    Context, FaultPlan, NetConfig, NodeConfig, NodeId, Process, SimConfig, TimerToken,
};
use mystore_workload::Summary;

/// Writes `total` keys via `put_to` and immediately reads each back via
/// `get_to`, counting stale results.
struct PutGetProbe {
    put_to: NodeId,
    get_to: NodeId,
    start_delay_us: u64,
    total: u64,
    cursor: u64,
    awaiting_get: bool,
    fresh: u64,
    stale: u64,
    put_sent_at: u64,
}

impl PutGetProbe {
    fn key(&self) -> String {
        format!("nwr-{}", self.cursor)
    }
    fn value(&self) -> Vec<u8> {
        format!("value-{}", self.cursor).into_bytes()
    }
}

impl Process<Msg> for PutGetProbe {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        // Wait for gossip to converge before probing.
        ctx.set_timer(self.start_delay_us, 1);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
        match msg {
            Msg::PutResp { result: Err(_), .. } => {
                // Transient (e.g. ring still converging): retry the same key.
                ctx.set_timer(10_000, 1);
            }
            Msg::PutResp { result: Ok(()), .. } => {
                ctx.record("nwr_put_us", (ctx.now().as_micros() - self.put_sent_at) as f64);
                // Read-your-write probe through a *different* coordinator.
                self.awaiting_get = true;
                ctx.send(self.get_to, Msg::Get { req: self.cursor, key: self.key() });
            }
            Msg::GetResp { result, .. } if self.awaiting_get => {
                self.awaiting_get = false;
                match result {
                    Ok(Some(v)) if *v == self.value() => self.fresh += 1,
                    _ => self.stale += 1,
                }
                self.cursor += 1;
                if self.cursor < self.total {
                    ctx.set_timer(3_000, 1);
                } else {
                    ctx.record("nwr_done", 1.0);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _token: TimerToken) {
        self.put_sent_at = ctx.now().as_micros();
        ctx.send(
            self.put_to,
            Msg::Put {
                req: self.cursor,
                key: self.key(),
                value: self.value().into(),
                delete: false,
            },
        );
    }
}

fn main() {
    let mut fig = Figure::new(
        "ablate_nwr",
        "A3: NWR configurations — write latency vs read-your-write staleness",
        &["NWR", "p50_put_ms", "p95_put_ms", "stale_reads", "of", "R+W>N"],
    );
    fig.note("1000 write-then-read-elsewhere probes per configuration");
    fig.note("replica-level network-exception p=0.15: lost replica writes surface the trade-off");
    fig.note("note: hinted handoff makes quorums sloppy, so even R+W>N shows some staleness,");
    fig.note("while stricter W still reduces it and costs tail latency (the 60 ms soft timeout)");
    for (label, nwr) in [
        ("(3,3,1) high consistency", Nwr::HIGH_CONSISTENCY),
        ("(3,2,1) paper default", Nwr::PAPER),
        ("(3,1,1) high availability", Nwr::HIGH_AVAILABILITY),
    ] {
        let mut spec = ClusterSpec::small(5);
        spec.storage.nwr = nwr;
        let faults = FaultPlan {
            p_network: 0.15,
            p_disk: 0.0,
            p_block: 0.0,
            p_breakdown: 0.0,
            block_range_us: (1, 2),
        };
        let mut sim = spec.build_sim(SimConfig {
            net: NetConfig::gigabit_lan(),
            faults,
            seed: 3000 + nwr.w as u64,
        });
        sim.set_fault_filter(CoreMsg::is_replica_op);
        let probe = sim.add_node(
            PutGetProbe {
                put_to: NodeId(0),
                get_to: NodeId(3),
                start_delay_us: spec.warmup_us(),
                total: 1000,
                cursor: 0,
                awaiting_get: false,
                fresh: 0,
                stale: 0,
                put_sent_at: 0,
            },
            NodeConfig::default(),
        );
        sim.start();
        sim.run_for(spec.warmup_us() + 240_000_000);
        let p = sim.process::<PutGetProbe>(probe).unwrap();
        assert_eq!(p.fresh + p.stale, 1000, "probe incomplete: {} done", p.fresh + p.stale);
        let lat = Summary::from_trace(sim.trace(), "nwr_put_us").unwrap();
        fig.row(vec![
            label.to_string(),
            fmt(lat.p50 / 1e3),
            fmt(lat.p95 / 1e3),
            p.stale.to_string(),
            (p.fresh + p.stale).to_string(),
            nwr.strongly_consistent().to_string(),
        ]);
    }
    fig.finish().expect("write results");
}
