//! Fault injection: the paper's Table 2 per-operation faults, plus a
//! deterministic, scriptable fault-event subsystem for availability drills.
//!
//! **Per-operation faults** ([`FaultPlan`]) reproduce the evaluation's four
//! fault types with fixed per-operation probabilities:
//!
//! | # | type  | reason              | probability |
//! |---|-------|---------------------|-------------|
//! | 1 | short | network exception   | 0.1         |
//! | 2 | short | disk IO error       | 0.002       |
//! | 3 | short | blocking processing | 0.002       |
//! | 4 | long  | node breakdown      | 0.001       |
//!
//! *Short* failures self-recover (paper §5.2.4); *long* failures persist
//! until membership action removes or restores the node. The runtime samples
//! at most one fault per handled operation and hands it to the process via
//! [`Context::take_op_fault`](crate::process::Context::take_op_fault); the
//! process decides what the fault means for the operation it is executing.
//!
//! **Fault schedules** ([`FaultSchedule`]) script cluster-level events in
//! virtual time: node crash/restart, symmetric and one-way link cuts (for
//! asymmetric partitions), heals, and per-link message chaos
//! ([`LinkFaultRule`]: drop / duplicate / delay / reorder with seeded
//! probabilities). Schedules are built programmatically or parsed from a
//! small text format (see [`FaultSchedule::parse`]) and applied to a
//! simulator with `Sim::apply_schedule`; everything derives from the
//! simulator seed, so a failed chaos run reproduces exactly.

use std::fmt;

use mystore_obs::{Counter, Registry};

use crate::process::NodeId;
use crate::rng::Rng;

/// A fault drawn for one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpFault {
    /// Short: the message effectively never reaches the replica (or its ack
    /// is lost). The coordinator sees a timeout.
    NetworkException,
    /// Short: the local storage engine returns an I/O error.
    DiskIoError,
    /// Short: the serving process stalls; the node's server is blocked for a
    /// sampled interval, delaying everything behind it.
    BlockedProcess,
    /// Long: the node breaks down and stays offline until recovered by the
    /// operator / membership layer.
    NodeBreakdown,
}

/// Per-operation fault probabilities (paper Table 2) plus recovery-interval
/// parameters for the short faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// P(network exception) per operation.
    pub p_network: f64,
    /// P(disk IO error) per operation.
    pub p_disk: f64,
    /// P(blocking process) per operation.
    pub p_block: f64,
    /// P(node breakdown) per operation.
    pub p_breakdown: f64,
    /// How long a blocked process stalls, sampled uniformly from this range (µs).
    pub block_range_us: (u64, u64),
}

impl FaultPlan {
    /// No faults at all (the paper's *no-fault* runs).
    pub fn none() -> Self {
        FaultPlan {
            p_network: 0.0,
            p_disk: 0.0,
            p_block: 0.0,
            p_breakdown: 0.0,
            block_range_us: (10_000, 100_000),
        }
    }

    /// Exactly Table 2 of the paper.
    pub fn paper_table2() -> Self {
        FaultPlan {
            p_network: 0.1,
            p_disk: 0.002,
            p_block: 0.002,
            p_breakdown: 0.001,
            block_range_us: (10_000, 100_000),
        }
    }

    /// True when every probability is zero (sampling can be skipped).
    pub fn is_none(&self) -> bool {
        self.p_network == 0.0
            && self.p_disk == 0.0
            && self.p_block == 0.0
            && self.p_breakdown == 0.0
    }

    /// Draws at most one fault for an operation. Faults are tested in Table 2
    /// order; probabilities are small enough that the order is immaterial in
    /// practice but a fixed order keeps runs deterministic.
    pub fn sample(&self, rng: &mut Rng) -> Option<OpFault> {
        if self.is_none() {
            return None;
        }
        if rng.chance(self.p_network) {
            Some(OpFault::NetworkException)
        } else if rng.chance(self.p_disk) {
            Some(OpFault::DiskIoError)
        } else if rng.chance(self.p_block) {
            Some(OpFault::BlockedProcess)
        } else if rng.chance(self.p_breakdown) {
            Some(OpFault::NodeBreakdown)
        } else {
            None
        }
    }

    /// Samples a blocked-process stall duration.
    pub fn sample_block_us(&self, rng: &mut Rng) -> u64 {
        let (lo, hi) = self.block_range_us;
        if lo >= hi {
            lo
        } else {
            rng.range_u64(lo, hi)
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

// ---- scripted fault events ------------------------------------------------

/// Per-link message chaos: each message crossing the link independently
/// draws drop, duplication, delay, and reorder faults. Delay and reorder
/// both add latency sampled from `delay_range_us`; reorder is accounted
/// separately because an extra-delayed message lets later traffic overtake
/// it, which is exactly what reordering means in an event-driven model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaultRule {
    /// P(message silently dropped).
    pub p_drop: f64,
    /// P(message delivered twice, each copy with independent latency).
    pub p_dup: f64,
    /// P(message delayed by a sample from `delay_range_us`).
    pub p_delay: f64,
    /// Extra-latency range for delay and reorder faults (µs).
    pub delay_range_us: (u64, u64),
    /// P(message held back so later sends can overtake it).
    pub p_reorder: f64,
}

/// What the injector decided for one message crossing a chaotic link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkOutcome {
    /// The message never arrives.
    pub dropped: bool,
    /// The message arrives twice.
    pub duplicated: bool,
    /// Latency added on top of the network model (µs).
    pub extra_delay_us: u64,
    /// A delay fault fired.
    pub delayed: bool,
    /// A reorder fault fired.
    pub reordered: bool,
}

impl LinkFaultRule {
    /// A rule that never faults (useful as a neutral default).
    pub fn none() -> Self {
        LinkFaultRule {
            p_drop: 0.0,
            p_dup: 0.0,
            p_delay: 0.0,
            delay_range_us: (0, 0),
            p_reorder: 0.0,
        }
    }

    /// True when every probability is zero.
    pub fn is_none(&self) -> bool {
        self.p_drop == 0.0 && self.p_dup == 0.0 && self.p_delay == 0.0 && self.p_reorder == 0.0
    }

    fn sample_delay_us(&self, rng: &mut Rng) -> u64 {
        let (lo, hi) = self.delay_range_us;
        if lo >= hi {
            lo
        } else {
            rng.range_u64(lo, hi)
        }
    }

    /// Draws the faults for one message. A dropped message draws nothing
    /// else; drop/dup/delay/reorder are otherwise independent.
    pub fn sample(&self, rng: &mut Rng) -> LinkOutcome {
        let mut out = LinkOutcome::default();
        if rng.chance(self.p_drop) {
            out.dropped = true;
            return out;
        }
        out.duplicated = rng.chance(self.p_dup);
        if rng.chance(self.p_delay) {
            out.delayed = true;
            out.extra_delay_us += self.sample_delay_us(rng);
        }
        if rng.chance(self.p_reorder) {
            out.reordered = true;
            out.extra_delay_us += self.sample_delay_us(rng);
        }
        out
    }
}

impl Default for LinkFaultRule {
    fn default() -> Self {
        LinkFaultRule::none()
    }
}

/// One scripted cluster-level fault (or heal) event.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// Crash a node; `down_for_us: None` keeps it down until a
    /// [`FaultEvent::Restart`].
    Crash {
        /// The node to take down.
        node: NodeId,
        /// Auto-restart after this long; `None` means stay down.
        down_for_us: Option<u64>,
    },
    /// Restart a crashed node (its process replays its WAL and rejoins with
    /// a bumped boot generation).
    Restart {
        /// The node to bring back.
        node: NodeId,
    },
    /// Cut the link in both directions.
    CutLink {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Cut only the `from → to` direction (asymmetric partition: `to` can
    /// still reach `from`).
    CutOneWay {
        /// Sending side of the dead direction.
        from: NodeId,
        /// Receiving side of the dead direction.
        to: NodeId,
    },
    /// Heal a symmetric cut.
    HealLink {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Heal a one-way cut.
    HealOneWay {
        /// Sending side of the healed direction.
        from: NodeId,
        /// Receiving side of the healed direction.
        to: NodeId,
    },
    /// Cut every link between the two groups (both directions).
    Partition {
        /// Nodes on one side.
        left: Vec<NodeId>,
        /// Nodes on the other side.
        right: Vec<NodeId>,
    },
    /// Heal every symmetric and one-way cut at once.
    HealAll,
    /// Install a chaos rule on the `a`↔`b` link (both directions).
    Chaos {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// The rule every message on the link draws from.
        rule: LinkFaultRule,
    },
    /// Remove the chaos rule from the `a`↔`b` link.
    ChaosClear {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Degrade `node`'s disk: every WAL sync costs `extra_us` additional
    /// service time until a matching [`FaultEvent::HealDisk`]. Models a
    /// failing/contended drive; exercises the commit path under latency
    /// faults. Survives crashes (it is the hardware).
    SlowFsync {
        /// The node whose disk degrades.
        node: NodeId,
        /// Extra per-sync latency (µs).
        extra_us: u64,
    },
    /// Restore `node`'s disk to full speed.
    HealDisk {
        /// The node whose disk recovers.
        node: NodeId,
    },
}

/// A [`FaultEvent`] pinned to a virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledFault {
    /// When the event fires (µs of virtual time).
    pub at_us: u64,
    /// What happens.
    pub event: FaultEvent,
}

/// A deterministic script of fault events, applied to a simulator with
/// `Sim::apply_schedule`. Events fire at their virtual times regardless of
/// cluster state; the same schedule plus the same seed reproduces the same
/// run bit-for-bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    /// The scripted events (any order; the simulator's event queue sorts).
    pub events: Vec<ScheduledFault>,
}

/// Error from parsing a fault-schedule script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ScheduleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schedule line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ScheduleParseError {}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Builder-style: appends `event` at `at_us`.
    pub fn at(mut self, at_us: u64, event: FaultEvent) -> Self {
        self.events.push(ScheduledFault { at_us, event });
        self
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Parses the line-oriented schedule format (documented in DESIGN.md):
    ///
    /// ```text
    /// # comment                      blank lines and #-comments are skipped
    /// <at_us> crash <node> [down_us]
    /// <at_us> restart <node>
    /// <at_us> cut <a> <b>            symmetric link cut
    /// <at_us> cut-oneway <from> <to> asymmetric: only from→to dies
    /// <at_us> heal <a> <b>
    /// <at_us> heal-oneway <from> <to>
    /// <at_us> partition <a,b|c,d,e>  cut every link between the groups
    /// <at_us> heal-all
    /// <at_us> chaos <a> <b> [drop=P] [dup=P] [delay=P:LO..HI] [reorder=P]
    /// <at_us> chaos-clear <a> <b>
    /// <at_us> slow-fsync <node> <extra_us>
    /// <at_us> heal-disk <node>
    /// ```
    pub fn parse(text: &str) -> Result<Self, ScheduleParseError> {
        let mut schedule = FaultSchedule::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let err = |message: String| ScheduleParseError { line, message };
            let trimmed = raw.split('#').next().unwrap_or("").trim();
            if trimmed.is_empty() {
                continue;
            }
            let mut tokens = trimmed.split_whitespace();
            let at_us: u64 = tokens
                .next()
                .ok_or_else(|| err("missing time".into()))?
                .parse()
                .map_err(|e| err(format!("bad time: {e}")))?;
            let verb = tokens.next().ok_or_else(|| err("missing verb".into()))?;
            let rest: Vec<&str> = tokens.collect();
            let node = |s: &str| -> Result<NodeId, ScheduleParseError> {
                s.parse::<u32>().map(NodeId).map_err(|e| err(format!("bad node id {s:?}: {e}")))
            };
            let arg = |i: usize| -> Result<&str, ScheduleParseError> {
                rest.get(i).copied().ok_or_else(|| err(format!("{verb} needs argument {i}")))
            };
            let event = match verb {
                "crash" => {
                    let down_for_us = match rest.get(1) {
                        Some(s) => Some(s.parse().map_err(|e| err(format!("bad down_us: {e}")))?),
                        None => None,
                    };
                    FaultEvent::Crash { node: node(arg(0)?)?, down_for_us }
                }
                "restart" => FaultEvent::Restart { node: node(arg(0)?)? },
                "cut" => FaultEvent::CutLink { a: node(arg(0)?)?, b: node(arg(1)?)? },
                "cut-oneway" => FaultEvent::CutOneWay { from: node(arg(0)?)?, to: node(arg(1)?)? },
                "heal" => FaultEvent::HealLink { a: node(arg(0)?)?, b: node(arg(1)?)? },
                "heal-oneway" => {
                    FaultEvent::HealOneWay { from: node(arg(0)?)?, to: node(arg(1)?)? }
                }
                "heal-all" => FaultEvent::HealAll,
                "partition" => {
                    let spec = arg(0)?;
                    let (l, r) = spec
                        .split_once('|')
                        .ok_or_else(|| err(format!("partition wants a|b groups, got {spec:?}")))?;
                    let group = |s: &str| -> Result<Vec<NodeId>, ScheduleParseError> {
                        s.split(',').filter(|t| !t.is_empty()).map(node).collect()
                    };
                    let (left, right) = (group(l)?, group(r)?);
                    if left.is_empty() || right.is_empty() {
                        return Err(err("partition groups must be non-empty".into()));
                    }
                    FaultEvent::Partition { left, right }
                }
                "chaos" => {
                    let (a, b) = (node(arg(0)?)?, node(arg(1)?)?);
                    let mut rule = LinkFaultRule::none();
                    for kv in &rest[2..] {
                        let (k, v) = kv
                            .split_once('=')
                            .ok_or_else(|| err(format!("chaos wants key=value, got {kv:?}")))?;
                        let prob = |s: &str| -> Result<f64, ScheduleParseError> {
                            let p: f64 =
                                s.parse().map_err(|e| err(format!("bad probability: {e}")))?;
                            if !(0.0..=1.0).contains(&p) {
                                return Err(err(format!("probability {p} outside [0, 1]")));
                            }
                            Ok(p)
                        };
                        match k {
                            "drop" => rule.p_drop = prob(v)?,
                            "dup" => rule.p_dup = prob(v)?,
                            "reorder" => rule.p_reorder = prob(v)?,
                            "delay" => {
                                let (p, range) = v.split_once(':').ok_or_else(|| {
                                    err(format!("delay wants P:LO..HI, got {v:?}"))
                                })?;
                                let (lo, hi) = range.split_once("..").ok_or_else(|| {
                                    err(format!("delay wants P:LO..HI, got {v:?}"))
                                })?;
                                rule.p_delay = prob(p)?;
                                rule.delay_range_us = (
                                    lo.parse().map_err(|e| err(format!("bad delay lo: {e}")))?,
                                    hi.parse().map_err(|e| err(format!("bad delay hi: {e}")))?,
                                );
                            }
                            other => return Err(err(format!("unknown chaos key {other:?}"))),
                        }
                    }
                    FaultEvent::Chaos { a, b, rule }
                }
                "chaos-clear" => FaultEvent::ChaosClear { a: node(arg(0)?)?, b: node(arg(1)?)? },
                "slow-fsync" => {
                    let extra_us: u64 =
                        arg(1)?.parse().map_err(|e| err(format!("bad extra_us: {e}")))?;
                    if extra_us == 0 {
                        return Err(err("slow-fsync wants extra_us > 0 (use heal-disk)".into()));
                    }
                    FaultEvent::SlowFsync { node: node(arg(0)?)?, extra_us }
                }
                "heal-disk" => FaultEvent::HealDisk { node: node(arg(0)?)? },
                other => return Err(err(format!("unknown verb {other:?}"))),
            };
            schedule.events.push(ScheduledFault { at_us, event });
        }
        Ok(schedule)
    }
}

/// Registry-backed counters for the fault injector. Attach with
/// `Sim::set_fault_metrics`; the standard names land in `/_stats` under
/// `fault.*` (injected message faults, crashes, restarts) and `partition.*`
/// (link cuts, heals, and messages lost to severed links).
#[derive(Clone, Default)]
pub struct FaultMetrics {
    /// Messages dropped by a chaos rule.
    pub msg_dropped: Counter,
    /// Messages duplicated by a chaos rule.
    pub msg_duplicated: Counter,
    /// Messages delayed by a chaos rule.
    pub msg_delayed: Counter,
    /// Messages held back for reordering by a chaos rule.
    pub msg_reordered: Counter,
    /// Node crashes (scheduled or breakdown faults).
    pub crashes: Counter,
    /// Node restarts.
    pub restarts: Counter,
    /// Link cuts applied (symmetric cuts count once; one-way cuts once per
    /// direction).
    pub partition_cuts: Counter,
    /// Link heals applied.
    pub partition_heals: Counter,
    /// Messages dropped because their link was cut.
    pub partition_dropped: Counter,
    /// Disks degraded by a `slow-fsync` fault (healthy → slow transitions).
    pub disk_degraded: Counter,
}

impl FaultMetrics {
    /// Resolves the standard `fault.*` / `partition.*` names in `registry`.
    pub fn from_registry(registry: &Registry) -> Self {
        FaultMetrics {
            msg_dropped: registry.counter("fault.msg.dropped"),
            msg_duplicated: registry.counter("fault.msg.duplicated"),
            msg_delayed: registry.counter("fault.msg.delayed"),
            msg_reordered: registry.counter("fault.msg.reordered"),
            crashes: registry.counter("fault.crashes"),
            restarts: registry.counter("fault.restarts"),
            partition_cuts: registry.counter("partition.cuts"),
            partition_heals: registry.counter("partition.heals"),
            partition_dropped: registry.counter("partition.msg.dropped"),
            disk_degraded: registry.counter("fault.disk.degraded"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_faults() {
        let plan = FaultPlan::none();
        let mut rng = Rng::new(5);
        assert!(plan.is_none());
        assert!((0..10_000).all(|_| plan.sample(&mut rng).is_none()));
    }

    #[test]
    fn table2_empirical_rates_match() {
        let plan = FaultPlan::paper_table2();
        let mut rng = Rng::new(1234);
        let n = 200_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            match plan.sample(&mut rng) {
                Some(OpFault::NetworkException) => counts[0] += 1,
                Some(OpFault::DiskIoError) => counts[1] += 1,
                Some(OpFault::BlockedProcess) => counts[2] += 1,
                Some(OpFault::NodeBreakdown) => counts[3] += 1,
                None => {}
            }
        }
        let rate = |c: usize| c as f64 / n as f64;
        assert!((0.095..0.105).contains(&rate(counts[0])), "network {}", rate(counts[0]));
        assert!((0.0013..0.0027).contains(&rate(counts[1])), "disk {}", rate(counts[1]));
        assert!((0.0013..0.0027).contains(&rate(counts[2])), "block {}", rate(counts[2]));
        assert!((0.0005..0.0016).contains(&rate(counts[3])), "breakdown {}", rate(counts[3]));
    }

    #[test]
    fn block_duration_within_range() {
        let plan = FaultPlan::paper_table2();
        let mut rng = Rng::new(2);
        for _ in 0..1000 {
            let d = plan.sample_block_us(&mut rng);
            assert!((10_000..100_000).contains(&d));
        }
    }

    #[test]
    fn degenerate_block_range() {
        let mut plan = FaultPlan::paper_table2();
        plan.block_range_us = (5_000, 5_000);
        let mut rng = Rng::new(3);
        assert_eq!(plan.sample_block_us(&mut rng), 5_000);
    }

    #[test]
    fn link_rule_none_never_faults() {
        let rule = LinkFaultRule::none();
        let mut rng = Rng::new(4);
        assert!(rule.is_none());
        for _ in 0..1_000 {
            assert_eq!(rule.sample(&mut rng), LinkOutcome::default());
        }
    }

    #[test]
    fn link_rule_empirical_rates_match() {
        let rule = LinkFaultRule {
            p_drop: 0.1,
            p_dup: 0.2,
            p_delay: 0.3,
            delay_range_us: (1_000, 2_000),
            p_reorder: 0.05,
        };
        let mut rng = Rng::new(99);
        let n = 100_000usize;
        let (mut drops, mut dups, mut delays, mut reorders) = (0usize, 0usize, 0usize, 0usize);
        for _ in 0..n {
            let o = rule.sample(&mut rng);
            if o.dropped {
                drops += 1;
                // Dropped messages draw nothing else.
                assert_eq!(o, LinkOutcome { dropped: true, ..LinkOutcome::default() });
                continue;
            }
            if o.delayed || o.reordered {
                assert!(o.extra_delay_us >= 1_000);
            } else {
                assert_eq!(o.extra_delay_us, 0);
            }
            dups += o.duplicated as usize;
            delays += o.delayed as usize;
            reorders += o.reordered as usize;
        }
        let rate = |c: usize| c as f64 / n as f64;
        assert!((0.09..0.11).contains(&rate(drops)), "drop {}", rate(drops));
        // dup/delay/reorder rates are conditioned on not-dropped (×0.9).
        assert!((0.17..0.19).contains(&rate(dups)), "dup {}", rate(dups));
        assert!((0.26..0.28).contains(&rate(delays)), "delay {}", rate(delays));
        assert!((0.040..0.050).contains(&rate(reorders)), "reorder {}", rate(reorders));
    }

    #[test]
    fn schedule_parse_round_trip() {
        let text = "\
# warm up for 1 s, then make life hard
1000000 crash 2 500000        # auto-restart after 0.5 s
1500000 restart 4
2000000 cut 0 1
2000000 cut-oneway 3 0
2500000 heal 0 1
2500000 heal-oneway 3 0
3000000 partition 0,1|2,3,4
3500000 heal-all
4000000 chaos 0 2 drop=0.1 dup=0.05 delay=0.2:1000..5000 reorder=0.01
4500000 chaos-clear 0 2
5000000 slow-fsync 1 7500         # degraded disk: +7.5 ms per durable write
5500000 heal-disk 1
";
        let s = FaultSchedule::parse(text).expect("parse");
        assert_eq!(s.events.len(), 12);
        assert_eq!(
            s.events[0],
            ScheduledFault {
                at_us: 1_000_000,
                event: FaultEvent::Crash { node: NodeId(2), down_for_us: Some(500_000) },
            }
        );
        assert_eq!(s.events[1].event, FaultEvent::Restart { node: NodeId(4) });
        assert_eq!(s.events[3].event, FaultEvent::CutOneWay { from: NodeId(3), to: NodeId(0) });
        assert_eq!(
            s.events[6].event,
            FaultEvent::Partition {
                left: vec![NodeId(0), NodeId(1)],
                right: vec![NodeId(2), NodeId(3), NodeId(4)],
            }
        );
        assert_eq!(s.events[7].event, FaultEvent::HealAll);
        assert_eq!(
            s.events[8].event,
            FaultEvent::Chaos {
                a: NodeId(0),
                b: NodeId(2),
                rule: LinkFaultRule {
                    p_drop: 0.1,
                    p_dup: 0.05,
                    p_delay: 0.2,
                    delay_range_us: (1_000, 5_000),
                    p_reorder: 0.01,
                },
            }
        );
        assert_eq!(s.events[9].event, FaultEvent::ChaosClear { a: NodeId(0), b: NodeId(2) });
        assert_eq!(s.events[10].event, FaultEvent::SlowFsync { node: NodeId(1), extra_us: 7_500 });
        assert_eq!(s.events[11].event, FaultEvent::HealDisk { node: NodeId(1) });
    }

    #[test]
    fn schedule_parse_crash_without_duration_stays_down() {
        let s = FaultSchedule::parse("5 crash 1").expect("parse");
        assert_eq!(s.events[0].event, FaultEvent::Crash { node: NodeId(1), down_for_us: None });
    }

    #[test]
    fn schedule_parse_rejects_garbage_with_line_numbers() {
        let cases = [
            ("banana", 1, "bad time"),
            ("10 explode 3", 1, "unknown verb"),
            ("10 crash", 1, "needs argument"),
            ("\n\n10 partition 0,1", 3, "a|b groups"),
            ("10 partition |1", 1, "non-empty"),
            ("10 chaos 0 1 drop=1.5", 1, "outside [0, 1]"),
            ("10 chaos 0 1 delay=0.5", 1, "P:LO..HI"),
            ("10 chaos 0 1 warp=0.5", 1, "unknown chaos key"),
            ("10 slow-fsync 0", 1, "needs argument"),
            ("10 slow-fsync 0 fast", 1, "bad extra_us"),
            ("10 slow-fsync 0 0", 1, "extra_us > 0"),
            ("10 heal-disk", 1, "needs argument"),
        ];
        for (text, line, needle) in cases {
            let err = FaultSchedule::parse(text).expect_err(text);
            assert_eq!(err.line, line, "{text}");
            assert!(err.to_string().contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn schedule_builder_matches_parse() {
        let built = FaultSchedule::new()
            .at(10, FaultEvent::CutLink { a: NodeId(0), b: NodeId(1) })
            .at(20, FaultEvent::HealAll);
        let parsed = FaultSchedule::parse("10 cut 0 1\n20 heal-all").expect("parse");
        assert_eq!(built, parsed);
        assert!(!built.is_empty());
        assert!(FaultSchedule::new().is_empty());
    }

    #[test]
    fn fault_metrics_resolve_standard_names() {
        let registry = Registry::new();
        let m = FaultMetrics::from_registry(&registry);
        m.msg_dropped.inc();
        m.partition_cuts.add(3);
        let snap = registry.snapshot();
        assert_eq!(snap.counters.get("fault.msg.dropped").copied(), Some(1));
        assert_eq!(snap.counters.get("partition.cuts").copied(), Some(3));
    }
}
