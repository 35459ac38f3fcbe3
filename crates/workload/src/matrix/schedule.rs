//! Deterministic fault-schedule generation for scenario-matrix cells.
//!
//! Each cell names a [`FaultProfile`]; this module expands it into a
//! concrete [`FaultSchedule`] — a seeded sequence of fault *epochs* inside
//! the cell's active window. The generator keeps the invariants the
//! matrix's global assertions rely on:
//!
//! * at most **one node is impaired at a time** (crashed, isolated, or on a
//!   degraded disk), so quorum overlap plus hinted handoff can always make
//!   progress,
//! * every impairment is **healed before the next epoch starts**, with a
//!   recovery gap in between for hints to replay,
//! * the window **ends healed**: the schedule's final events restore every
//!   link and disk before the cell's settle phase, in which the loss
//!   invariant is checked against the node databases.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use mystore_net::{FaultEvent, FaultSchedule, NodeId, Rng};

/// The fault vocabulary a matrix cell sweeps over (DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultProfile {
    /// No scripted faults — the baseline column.
    None,
    /// A node crashes and auto-restarts after 30–120 s (short failures,
    /// Fig. 8 territory: hinted handoff covers the outage).
    Kill,
    /// A node is partitioned off from every other storage node for
    /// 60–300 s, then the cut heals.
    Partition,
    /// A node flaps: three crash/restart cycles of 5–10 s in quick
    /// succession — the gossip generation bump and WAL replay churn test.
    Flap,
    /// A node's disk degrades (`slow-fsync`): every WAL sync on it takes
    /// 2–20 ms for 60–600 s, exercising the commit path under latency
    /// faults.
    SlowFsync,
    /// Round-robin through kill, partition, flap, and slow-fsync.
    Mixed,
}

impl FaultProfile {
    /// Stable label used in cell names and the results table.
    pub fn label(&self) -> &'static str {
        match self {
            FaultProfile::None => "none",
            FaultProfile::Kill => "kill",
            FaultProfile::Partition => "partition",
            FaultProfile::Flap => "flap",
            FaultProfile::SlowFsync => "slow-fsync",
            FaultProfile::Mixed => "mixed",
        }
    }
}

const SEC: u64 = 1_000_000;

/// Expands `profile` into a seeded schedule of non-overlapping fault
/// epochs over storage nodes `0..nodes`, inside `[active_from_us,
/// active_until_us)`. The same arguments always produce the same schedule.
pub fn build_schedule(
    profile: FaultProfile,
    nodes: usize,
    active_from_us: u64,
    active_until_us: u64,
    seed: u64,
) -> FaultSchedule {
    let mut schedule = FaultSchedule::new();
    if profile == FaultProfile::None || nodes < 2 || active_until_us <= active_from_us {
        return schedule;
    }
    let mut rng = Rng::new(seed ^ 0x6d61_7472_6978); // "matrix"
    let mut cursor = active_from_us;
    let mut epoch = 0u64;
    loop {
        let kind = match profile {
            FaultProfile::Mixed => match epoch % 4 {
                0 => FaultProfile::Kill,
                1 => FaultProfile::Partition,
                2 => FaultProfile::Flap,
                _ => FaultProfile::SlowFsync,
            },
            other => other,
        };
        let victim = NodeId(rng.range_u64(0, nodes as u64) as u32);
        let (impair_len, events) = epoch_events(kind, victim, nodes, cursor, &mut rng);
        // Refuse epochs that would spill past the active window: the cell
        // must end healed.
        if cursor.saturating_add(impair_len) > active_until_us {
            break;
        }
        for (at, ev) in events {
            schedule = schedule.at(at, ev);
        }
        // Recovery gap after the heal: 4–12 min for gossip to reconverge,
        // hints to replay, and the ring to go quiet again (so long cells
        // spend most of their virtual time in the fast-forwardable idle
        // regime) before the next victim is drawn.
        cursor = cursor + impair_len + rng.range_u64(240 * SEC, 720 * SEC);
        epoch += 1;
        if cursor >= active_until_us {
            break;
        }
    }
    // Belt and braces: even though every epoch heals itself, end the window
    // with a global link heal so the settle phase starts from a clean mesh.
    schedule.at(active_until_us, FaultEvent::HealAll)
}

/// One epoch of `kind` against `victim`, starting at `start`: returns the
/// impairment's total length and the events (impair + matching heal).
fn epoch_events(
    kind: FaultProfile,
    victim: NodeId,
    nodes: usize,
    start: u64,
    rng: &mut Rng,
) -> (u64, Vec<(u64, FaultEvent)>) {
    match kind {
        FaultProfile::Kill => {
            let down = rng.range_u64(30 * SEC, 120 * SEC);
            (down, vec![(start, FaultEvent::Crash { node: victim, down_for_us: Some(down) })])
        }
        FaultProfile::Partition => {
            let cut = rng.range_u64(60 * SEC, 300 * SEC);
            let right: Vec<NodeId> =
                (0..nodes as u32).map(NodeId).filter(|&n| n != victim).collect();
            (
                cut,
                vec![
                    (start, FaultEvent::Partition { left: vec![victim], right }),
                    (start + cut, FaultEvent::HealAll),
                ],
            )
        }
        FaultProfile::Flap => {
            let mut events = Vec::new();
            let mut at = start;
            for _ in 0..3 {
                let down = rng.range_u64(5 * SEC, 10 * SEC);
                events.push((at, FaultEvent::Crash { node: victim, down_for_us: Some(down) }));
                at += down + rng.range_u64(20 * SEC, 40 * SEC);
            }
            (at.saturating_sub(start), events)
        }
        FaultProfile::SlowFsync => {
            let slow = rng.range_u64(60 * SEC, 600 * SEC);
            let extra_us = rng.range_u64(2_000, 20_000);
            (
                slow,
                vec![
                    (start, FaultEvent::SlowFsync { node: victim, extra_us }),
                    (start + slow, FaultEvent::HealDisk { node: victim }),
                ],
            )
        }
        FaultProfile::None | FaultProfile::Mixed => (0, Vec::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = build_schedule(FaultProfile::Mixed, 10, 100 * SEC, 4000 * SEC, 7);
        let b = build_schedule(FaultProfile::Mixed, 10, 100 * SEC, 4000 * SEC, 7);
        assert_eq!(a.events, b.events);
        assert!(!a.events.is_empty());
    }

    #[test]
    fn epochs_never_overlap_and_end_healed() {
        for profile in [
            FaultProfile::Kill,
            FaultProfile::Partition,
            FaultProfile::Flap,
            FaultProfile::SlowFsync,
            FaultProfile::Mixed,
        ] {
            let until = 7 * 24 * 3600 * SEC;
            let s = build_schedule(profile, 100, 200 * SEC, until, 42);
            // No event past the active window, and the last event is the
            // global heal at the window's end.
            assert!(s.events.iter().all(|e| e.at_us <= until), "{profile:?}");
            assert!(
                s.events.iter().any(|e| e.at_us == until && e.event == FaultEvent::HealAll),
                "{profile:?} must end with a global heal"
            );
            // Sort by time and walk: crashes auto-heal; cuts/disk faults
            // must carry an explicit heal before the next impairment.
            let mut timeline = s.events.clone();
            timeline.sort_by_key(|e| e.at_us);
            let mut impaired_until = 0u64;
            for ev in &timeline {
                match &ev.event {
                    FaultEvent::Crash { down_for_us, .. } => {
                        assert!(ev.at_us >= impaired_until, "overlap in {profile:?}");
                        impaired_until = ev.at_us + down_for_us.unwrap_or(0);
                    }
                    FaultEvent::Partition { .. } | FaultEvent::SlowFsync { .. } => {
                        assert!(ev.at_us >= impaired_until, "overlap in {profile:?}");
                    }
                    FaultEvent::HealAll | FaultEvent::HealDisk { .. } => {
                        impaired_until = impaired_until.max(ev.at_us);
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn none_profile_is_empty() {
        let s = build_schedule(FaultProfile::None, 10, 0, 1000 * SEC, 1);
        assert!(s.events.is_empty());
    }
}
