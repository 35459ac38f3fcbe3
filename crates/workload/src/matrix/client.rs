//! The scenario-matrix client: a strictly sequential closed-loop
//! read/write workload whose every acknowledged write is independently
//! checkable against the node databases after the run.
//!
//! One operation is in flight at any moment, and every put's payload
//! encodes `(key index, global sequence number)`. Because the client waits
//! for each acknowledgement (or gives the attempt up) before issuing the
//! next operation, per-key sequence numbers are acknowledged in version
//! order — so "no acked write was lost" reduces to: for every key, some
//! replica stores a payload with a sequence number at least as high as the
//! last acknowledged one (see `run_cell`'s verification pass).
//!
//! Operations arrive in *bursts* spread across the cell's virtual horizon,
//! so a week-long cell models a week of diurnal traffic without paying for
//! a week of saturated load — and the quiescent gaps between bursts are
//! exactly what the idle-clock fast-forward machinery is meant to make
//! cheap.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::collections::BTreeMap;

use mystore_core::message::Msg;
use mystore_net::{Context, NodeId, Process, SimTime, TimerToken};

const TK_NEXT: TimerToken = 1;
const TK_DEADLINE_TAG: TimerToken = 2;

/// Key-popularity distribution of a matrix cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// Zipf(s=1): key `k` drawn with weight `1/(k+1)`.
    Zipf,
    /// 90 % of operations hit the first 10 % of the key space.
    Hotspot,
}

impl KeyDist {
    /// Stable label used in cell names and the results table.
    pub fn label(&self) -> &'static str {
        match self {
            KeyDist::Uniform => "uniform",
            KeyDist::Zipf => "zipf",
            KeyDist::Hotspot => "hotspot",
        }
    }
}

/// Configuration of a [`MatrixClient`].
#[derive(Debug, Clone)]
pub struct MatrixClientConfig {
    /// Storage nodes usable as coordinators; attempts rotate through them.
    pub coordinators: Vec<NodeId>,
    /// Size of the key space.
    pub keys: usize,
    /// Key-popularity distribution.
    pub dist: KeyDist,
    /// Fraction of operations that are reads.
    pub read_ratio: f64,
    /// Number of bursts across the horizon.
    pub bursts: u64,
    /// Sequential operations per burst.
    pub ops_per_burst: u64,
    /// Virtual time between burst starts (µs).
    pub burst_every_us: u64,
    /// Gap between consecutive operations inside a burst (µs).
    pub op_gap_us: u64,
    /// Delay before the first burst (the cluster warmup) (µs).
    pub start_delay_us: u64,
    /// Per-attempt deadline; must exceed the coordinator's request deadline
    /// so an attempt is never abandoned while it could still succeed (µs).
    pub attempt_deadline_us: u64,
    /// Attempts (across rotated coordinators) before an operation is
    /// counted as a client error.
    pub max_attempts: u32,
    /// Padding bytes appended to each payload.
    pub payload_pad: usize,
}

struct CurrentOp {
    key_idx: usize,
    seq: u64,
    is_read: bool,
    attempt: u32,
    waiting_req: Option<u64>,
    started_at: SimTime,
}

/// The strictly sequential matrix workload process.
pub struct MatrixClient {
    cfg: MatrixClientConfig,
    /// Zipf cumulative weights (empty unless `dist == Zipf`).
    zipf_cdf: Vec<f64>,
    burst: u64,
    op_in_burst: u64,
    next_seq: u64,
    next_req: u64,
    target_rr: usize,
    current: Option<CurrentOp>,
    /// Last acknowledged put sequence number per key index.
    pub acked: BTreeMap<usize, u64>,
    /// Successful puts.
    pub puts_ok: u64,
    /// Successful reads (found or clean not-found).
    pub gets_ok: u64,
    /// Operations abandoned after `max_attempts` — the matrix's
    /// "client errors" invariant counts exactly these.
    pub errors: u64,
    /// Attempt retries (timeouts or error replies that were re-tried).
    pub retries: u64,
    /// True once every burst has completed.
    pub done: bool,
}

/// The key string for key index `i` (shared with the verification pass).
pub fn key_name(i: usize) -> String {
    format!("mx{i:05}")
}

/// Builds the payload for `(key index, sequence)`: parseable header plus
/// padding.
pub fn encode_payload(key_idx: usize, seq: u64, pad: usize) -> Vec<u8> {
    let mut v = format!("k{key_idx}:s{seq}:").into_bytes();
    v.resize(v.len() + pad, b'x');
    v
}

/// Parses a payload produced by [`encode_payload`] back into
/// `(key index, sequence)`.
pub fn parse_payload(value: &[u8]) -> Option<(usize, u64)> {
    let s = std::str::from_utf8(value).ok()?;
    let rest = s.strip_prefix('k')?;
    let (key_part, rest) = rest.split_once(":s")?;
    let (seq_part, _) = rest.split_once(':')?;
    Some((key_part.parse().ok()?, seq_part.parse().ok()?))
}

impl MatrixClient {
    /// Creates the client.
    pub fn new(cfg: MatrixClientConfig) -> Self {
        let zipf_cdf = if cfg.dist == KeyDist::Zipf {
            let mut acc = 0.0;
            let mut cdf = Vec::with_capacity(cfg.keys);
            for k in 0..cfg.keys {
                acc += 1.0 / (k as f64 + 1.0);
                cdf.push(acc);
            }
            cdf
        } else {
            Vec::new()
        };
        MatrixClient {
            cfg,
            zipf_cdf,
            burst: 0,
            op_in_burst: 0,
            next_seq: 1,
            next_req: 1,
            target_rr: 0,
            current: None,
            acked: BTreeMap::new(),
            puts_ok: 0,
            gets_ok: 0,
            errors: 0,
            retries: 0,
            done: false,
        }
    }

    /// Total operations this client will issue.
    pub fn total_ops(&self) -> u64 {
        self.cfg.bursts * self.cfg.ops_per_burst
    }

    fn pick_key(&self, ctx: &mut Context<'_, Msg>) -> usize {
        let keys = self.cfg.keys.max(1);
        match self.cfg.dist {
            KeyDist::Uniform => ctx.rng().index(keys),
            KeyDist::Zipf => {
                let total = self.zipf_cdf.last().copied().unwrap_or(1.0);
                let draw = ctx.rng().next_f64() * total;
                self.zipf_cdf.partition_point(|&c| c < draw).min(keys - 1)
            }
            KeyDist::Hotspot => {
                let hot = (keys / 10).max(1);
                if ctx.rng().next_f64() < 0.9 {
                    ctx.rng().index(hot)
                } else {
                    ctx.rng().index(keys)
                }
            }
        }
    }

    fn begin_op(&mut self, ctx: &mut Context<'_, Msg>) {
        let key_idx = self.pick_key(ctx);
        let is_read = ctx.rng().next_f64() < self.cfg.read_ratio;
        let seq = if is_read {
            0
        } else {
            let s = self.next_seq;
            self.next_seq += 1;
            s
        };
        self.current = Some(CurrentOp {
            key_idx,
            seq,
            is_read,
            attempt: 0,
            waiting_req: None,
            started_at: ctx.now(),
        });
        self.send_attempt(ctx);
    }

    fn send_attempt(&mut self, ctx: &mut Context<'_, Msg>) {
        let Some(op) = &mut self.current else { return };
        op.attempt += 1;
        let req = self.next_req;
        self.next_req += 1;
        op.waiting_req = Some(req);
        let n_targets = self.cfg.coordinators.len().max(1);
        let target =
            self.cfg.coordinators.get(self.target_rr % n_targets).copied().unwrap_or(NodeId(0));
        let msg = if op.is_read {
            Msg::Get { req, key: key_name(op.key_idx) }
        } else {
            Msg::Put {
                req,
                key: key_name(op.key_idx),
                value: encode_payload(op.key_idx, op.seq, self.cfg.payload_pad).into(),
                delete: false,
            }
        };
        ctx.send(target, msg);
        ctx.set_timer(self.cfg.attempt_deadline_us, (req << 2) | TK_DEADLINE_TAG);
    }

    fn finish_op(&mut self, ctx: &mut Context<'_, Msg>, success: bool) {
        if let Some(op) = self.current.take() {
            if success {
                // Operation-level latency (first attempt to final ack),
                // retries included — what a caller actually waited.
                ctx.record("matrix_op_us", (ctx.now() - op.started_at) as f64);
            }
            match (success, op.is_read) {
                (true, true) => self.gets_ok += 1,
                (true, false) => {
                    self.puts_ok += 1;
                    self.acked.insert(op.key_idx, op.seq);
                }
                (false, _) => {
                    self.errors += 1;
                    ctx.record("matrix_client_error", 1.0);
                }
            }
        }
        self.op_in_burst += 1;
        if self.op_in_burst < self.cfg.ops_per_burst {
            ctx.set_timer(self.cfg.op_gap_us.max(1), TK_NEXT);
            return;
        }
        self.op_in_burst = 0;
        self.burst += 1;
        if self.burst < self.cfg.bursts {
            // Bursts start on an absolute grid so the quiescent gap between
            // them is independent of how long the previous burst took.
            let next_start =
                self.cfg.start_delay_us.saturating_add(self.burst * self.cfg.burst_every_us);
            let delay = next_start.saturating_sub(ctx.now().as_micros()).max(1);
            ctx.set_timer(delay, TK_NEXT);
        } else {
            self.done = true;
            ctx.record("matrix_client_done", 1.0);
        }
    }

    fn retry_or_fail(&mut self, ctx: &mut Context<'_, Msg>) {
        let give_up = match &mut self.current {
            Some(op) => {
                op.waiting_req = None;
                op.attempt >= self.cfg.max_attempts
            }
            None => return,
        };
        if give_up {
            self.finish_op(ctx, false);
        } else {
            // Rotate to the next coordinator — the current one may be the
            // impaired node.
            self.target_rr += 1;
            self.retries += 1;
            ctx.record("matrix_client_retry", 1.0);
            self.send_attempt(ctx);
        }
    }
}

impl Process<Msg> for MatrixClient {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.total_ops() > 0 {
            ctx.set_timer(self.cfg.start_delay_us.max(1), TK_NEXT);
        } else {
            self.done = true;
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
        let (req, outcome) = match msg {
            Msg::PutResp { req, result } => (req, result.is_ok()),
            Msg::GetResp { req, result } => (req, result.is_ok()),
            _ => return,
        };
        let is_current =
            self.current.as_ref().map(|op| op.waiting_req == Some(req)).unwrap_or(false);
        if !is_current {
            return; // stale reply from an abandoned attempt
        }
        if outcome {
            self.finish_op(ctx, true);
        } else {
            self.retry_or_fail(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, token: TimerToken) {
        if token == TK_NEXT {
            if self.current.is_none() && !self.done {
                self.begin_op(ctx);
            }
            return;
        }
        if token & 0b11 == TK_DEADLINE_TAG {
            let req = token >> 2;
            let timed_out =
                self.current.as_ref().map(|op| op.waiting_req == Some(req)).unwrap_or(false);
            if timed_out {
                self.retry_or_fail(ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_round_trip() {
        let v = encode_payload(42, 9001, 64);
        assert_eq!(parse_payload(&v), Some((42, 9001)));
        assert!(v.len() >= 64);
        assert_eq!(parse_payload(b"garbage"), None);
        assert_eq!(parse_payload(b"k3:s"), None);
    }

    #[test]
    fn key_names_are_stable() {
        assert_eq!(key_name(7), "mx00007");
        assert_eq!(key_name(12345), "mx12345");
    }
}
