//! Test and experiment utilities.
//!
//! [`Probe`] is a scripted client process: it injects messages into the
//! cluster at chosen virtual times and records every response it receives.
//! Integration tests, examples, and the experiment harness all use it to
//! observe the cluster from the outside.

use mystore_net::{Context, NodeId, Process, SimTime, TimerToken};

use crate::message::Msg;

/// A scripted client: sends each `(at_us, target, message)` entry at its
/// time and collects responses.
pub struct Probe {
    script: Vec<(u64, NodeId, Option<Msg>)>,
    /// Responses received, with arrival times.
    pub responses: Vec<(SimTime, NodeId, Msg)>,
}

impl Probe {
    /// Creates a probe with a fixed script.
    pub fn new(script: Vec<(u64, NodeId, Msg)>) -> Self {
        Probe {
            script: script.into_iter().map(|(t, n, m)| (t, n, Some(m))).collect(),
            responses: Vec::new(),
        }
    }

    /// Number of responses whose payload satisfies `pred`.
    pub fn count_where(&self, pred: impl Fn(&Msg) -> bool) -> usize {
        self.responses.iter().filter(|(_, _, m)| pred(m)).count()
    }

    /// The response matching a correlation id, if any (checks the common
    /// response variants).
    pub fn response_for(&self, req: u64) -> Option<&Msg> {
        self.responses.iter().map(|(_, _, m)| m).find(|m| match m {
            Msg::GetResp { req: r, .. }
            | Msg::PutResp { req: r, .. }
            | Msg::CasResp { req: r, .. }
            | Msg::TokenResp { req: r, .. }
            | Msg::CacheGetResp { req: r, .. } => *r == req,
            Msg::RestResp(resp) => resp.req == req,
            _ => false,
        })
    }
}

impl Process<Msg> for Probe {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        for (i, (at, _, _)) in self.script.iter().enumerate() {
            ctx.set_timer(*at, i as TimerToken);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        self.responses.push((ctx.now(), from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, token: TimerToken) {
        if let Some((_, target, slot)) = self.script.get_mut(token as usize) {
            if let Some(msg) = slot.take() {
                ctx.send(*target, msg);
            }
        }
    }
}

/// A sequential conditional-put client: issues `total` CAS operations on
/// one key, chaining each op's `If-Match` off the previous outcome —
/// success hands back the new version, a conflict hands back the version
/// actually present, and either way the next op conditions on it. Exercises
/// the full CAS loop (predicate read, conditional write, conflict adoption)
/// against whatever chaos the surrounding test schedules.
pub struct CasProbe {
    /// Coordinators to rotate across, one per op.
    pub targets: Vec<NodeId>,
    /// Key every op contends on.
    pub key: String,
    /// When to start (virtual µs; leave gossip time to converge).
    pub start_at_us: u64,
    /// Gap between an outcome and the next op (µs).
    pub gap_us: u64,
    /// Ops to issue in total.
    pub total: u64,
    /// Ops issued so far (also the request-id cursor).
    pub issued: u64,
    /// The version the next op conditions on (`0` = expect absent).
    pub expected: u64,
    /// Successful conditional writes.
    pub oks: u64,
    /// Predicate rejections (the probe then adopts the actual version).
    pub conflicts: u64,
    /// Quorum/ring errors surfaced to the client.
    pub errors: u64,
}

impl CasProbe {
    /// A probe issuing `total` chained CAS ops on `key` across `targets`.
    pub fn new(targets: Vec<NodeId>, key: impl Into<String>, start_at_us: u64, total: u64) -> Self {
        CasProbe {
            targets,
            key: key.into(),
            start_at_us,
            gap_us: 150_000,
            total,
            issued: 0,
            expected: 0,
            oks: 0,
            conflicts: 0,
            errors: 0,
        }
    }

    /// Ops that have completed (any outcome).
    pub fn completed(&self) -> u64 {
        self.oks + self.conflicts + self.errors
    }

    fn next_op(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.issued >= self.total {
            return;
        }
        let req = self.issued;
        let target = self.targets[(self.issued % self.targets.len() as u64) as usize];
        self.issued += 1;
        let value: crate::message::Body = format!("cas-gen-{}", self.issued).into_bytes().into();
        ctx.send(target, Msg::Cas { req, key: self.key.clone(), value, expected: self.expected });
    }
}

impl Process<Msg> for CasProbe {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        ctx.set_timer(self.start_at_us, 0);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
        let Msg::CasResp { result, .. } = msg else { return };
        match result {
            Ok(new_version) => {
                self.oks += 1;
                self.expected = new_version;
                ctx.record("cas_probe_ok", 1.0);
            }
            Err(crate::message::StoreError::CasConflict(actual)) => {
                // Someone (or a duplicated own write) got there first: adopt
                // the observed version and retry against it.
                self.conflicts += 1;
                self.expected = actual;
                ctx.record("cas_probe_conflict", 1.0);
            }
            Err(_) => {
                self.errors += 1;
                ctx.record("cas_probe_error", 1.0);
            }
        }
        if self.completed() < self.total {
            ctx.set_timer(self.gap_us, 0);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _token: TimerToken) {
        self.next_op(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache_node::CacheNode;
    use mystore_net::{NetConfig, NodeConfig, Sim, SimConfig};

    #[test]
    fn probe_sends_script_and_collects_responses() {
        let mut sim: Sim<Msg> =
            Sim::new(SimConfig { net: NetConfig::instant(), faults: Default::default(), seed: 1 });
        let cache = sim.add_node(CacheNode::new(1 << 16), NodeConfig::default());
        let probe = sim.add_node(
            Probe::new(vec![
                (10, cache, Msg::CachePut { key: "k".into(), value: std::sync::Arc::new(vec![9]) }),
                (20, cache, Msg::CacheGet { req: 77, key: "k".into() }),
            ]),
            NodeConfig::default(),
        );
        sim.start();
        sim.run_for(1_000_000);
        let p = sim.process::<Probe>(probe).unwrap();
        assert_eq!(p.responses.len(), 1);
        match p.response_for(77) {
            Some(Msg::CacheGetResp { value: Some(v), .. }) => assert_eq!(**v, vec![9]),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(p.count_where(|m| matches!(m, Msg::CacheGetResp { .. })), 1);
    }
}
