//! The gossip protocol engine (paper §5.2.3, Fig. 6 & 7).
//!
//! Push-pull gossip with the paper's three messages:
//!
//! 1. **`GossipDigestSynMessage`** — A sends digests (endpoint, generation,
//!    max version) for everything it knows.
//! 2. **`GossipDigestAck1Message`** — B replies with (a) deltas for
//!    endpoints where B is newer and (b) requests for endpoints where A is
//!    newer.
//! 3. **`GossipDigestAck2Message`** — A answers the requests with its
//!    deltas; both sides now agree.
//!
//! Node roles follow Fig. 7: **seed nodes** gossip with every other seed
//! each round (keeping the authoritative view consistent) and answer
//! everyone; **normal nodes** gossip with a seed each round (plus
//! occasionally a random peer, which speeds convergence without changing
//! the role structure). Seeds — not normal nodes — declare *long failure*
//! (§5.2.4 issue 1): after `remove_after_us` without a heartbeat, a seed
//! publishes `removed:<node>` in its own versioned state, which gossip then
//! spreads to the whole cluster within a few rounds.
//!
//! The gossiper is sans-io: the owner calls [`Gossiper::tick`] on a timer
//! and [`Gossiper::handle`] per received message, and sends whatever
//! `(destination, message)` pairs come back. Membership changes surface as
//! [`MembershipEvent`]s via [`Gossiper::drain_events`].

use std::collections::BTreeMap;

use mystore_net::{NodeId, Rng, SimTime};
use mystore_obs::{Counter, Gauge, Histogram, Registry};

use crate::state::{keys, Digest, EndpointDelta, EndpointState};

/// Gossip protocol messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GossipMsg {
    /// Round opener: the sender's digests.
    Syn(Vec<Digest>),
    /// Reply: deltas the receiver had newer, plus requests for what the
    /// sender had newer.
    Ack1 {
        /// States where the replier was ahead.
        deltas: Vec<EndpointDelta>,
        /// Digests (with the replier's versions) the replier wants updated.
        requests: Vec<Digest>,
    },
    /// Final: the requested deltas.
    Ack2 {
        /// The states requested in the Ack1.
        deltas: Vec<EndpointDelta>,
    },
}

impl GossipMsg {
    /// Approximate encoded size (for the simulator's bandwidth model).
    pub fn wire_size(&self) -> usize {
        match self {
            GossipMsg::Syn(digests) => 8 + digests.len() * 20,
            GossipMsg::Ack1 { deltas, requests } => {
                8 + requests.len() * 20 + deltas.iter().map(EndpointDelta::wire_size).sum::<usize>()
            }
            GossipMsg::Ack2 { deltas } => {
                8 + deltas.iter().map(EndpointDelta::wire_size).sum::<usize>()
            }
        }
    }
}

/// Membership changes derived from gossip, in detection order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipEvent {
    /// First contact with an endpoint.
    Joined(NodeId),
    /// An endpoint transitioned dead → alive (or was first seen alive).
    Up(NodeId),
    /// An endpoint stopped heartbeating (short-failure suspicion).
    Down(NodeId),
    /// A seed declared the endpoint long-failed; replicas must be rebuilt.
    Removed(NodeId),
}

/// Tuning knobs.
#[derive(Debug, Clone)]
pub struct GossipConfig {
    /// Gossip round interval (µs). The owner arms a timer at this period
    /// and calls [`Gossiper::tick`].
    pub interval_us: u64,
    /// No heartbeat change for this long ⇒ endpoint considered down.
    pub fail_after_us: u64,
    /// (Seeds only) no heartbeat for this long ⇒ declare long failure.
    pub remove_after_us: u64,
    /// Seed endpoints (Fig. 7).
    pub seeds: Vec<NodeId>,
    /// Extra random peers contacted per round, beyond the role-mandated
    /// targets.
    pub extra_fanout: usize,
    /// Idle backoff cap: after consecutive quiet rounds (no membership
    /// events observed), the effective round interval doubles per extra
    /// quiet round, up to `interval_us * idle_backoff_max`. Any membership
    /// event snaps it back to `interval_us`. `1` disables backoff (the
    /// default) and preserves the fixed-cadence behaviour exactly. Owners
    /// must re-arm their gossip timer from [`Gossiper::current_interval_us`]
    /// for the backoff to take effect.
    pub idle_backoff_max: u64,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            interval_us: 1_000_000,      // 1 s rounds
            fail_after_us: 5_000_000,    // 5 s ⇒ down
            remove_after_us: 30_000_000, // 30 s ⇒ long failure
            seeds: Vec::new(),
            extra_fanout: 1,
            idle_backoff_max: 1,
        }
    }
}

#[derive(Debug, Clone)]
struct Liveness {
    last_change_us: u64,
    alive: bool,
}

/// Observability handles for gossip rounds. Default handles are standalone
/// (invisible); attach registry-backed ones with [`Gossiper::set_metrics`].
#[derive(Debug, Clone, Default)]
pub struct GossipMetrics {
    /// Gossip rounds run (ticks).
    pub rounds: Counter,
    /// Syns sent per round (seed rounds fan out to all other seeds).
    pub fanout: Histogram,
    /// Endpoints this node has heard of, including itself and dead ones.
    pub known_endpoints: Gauge,
    /// Membership events emitted (Up/Down/Removed).
    pub events: Counter,
}

impl GossipMetrics {
    /// Resolves the standard `gossip.*` metric names in `registry`.
    pub fn from_registry(registry: &Registry) -> Self {
        GossipMetrics {
            rounds: registry.counter("gossip.rounds"),
            fanout: registry.histogram("gossip.fanout"),
            known_endpoints: registry.gauge("gossip.known_endpoints"),
            events: registry.counter("gossip.events"),
        }
    }
}

/// Per-node gossip state machine.
pub struct Gossiper {
    me: NodeId,
    config: GossipConfig,
    states: BTreeMap<NodeId, EndpointState>,
    liveness: BTreeMap<NodeId, Liveness>,
    events: Vec<MembershipEvent>,
    /// Nodes already declared removed (to emit Removed once).
    removed: BTreeMap<NodeId, u64>,
    metrics: GossipMetrics,
    /// Monotonic count of membership events ever pushed (activity signal
    /// for the idle backoff; never reset by [`Gossiper::drain_events`]).
    events_total: u64,
    /// `events_total` as of the previous tick.
    events_at_last_tick: u64,
    /// Consecutive ticks that observed no membership events.
    quiet_rounds: u32,
    /// Whether any endpoint's advertised [`keys::VNODES`] value changed, or
    /// an endpoint rebooted (which resets what it advertises), since
    /// [`Gossiper::take_vnodes_changed`] last ran.
    vnodes_changed: bool,
}

/// Quiet rounds tolerated before the idle backoff starts widening the
/// interval — keeps initial convergence and post-fault re-convergence at
/// full cadence.
const IDLE_GRACE_ROUNDS: u32 = 4;

impl Gossiper {
    /// Creates a gossiper for `me`, booting with `generation`.
    pub fn new(me: NodeId, generation: u64, config: GossipConfig) -> Self {
        let mut states = BTreeMap::new();
        states.insert(me, EndpointState::new(generation));
        Gossiper {
            me,
            config,
            states,
            liveness: BTreeMap::new(),
            events: Vec::new(),
            removed: BTreeMap::new(),
            metrics: GossipMetrics::default(),
            events_total: 0,
            events_at_last_tick: 0,
            quiet_rounds: 0,
            vnodes_changed: false,
        }
    }

    /// Attaches registry-backed metric handles.
    pub fn set_metrics(&mut self, metrics: GossipMetrics) {
        self.metrics = metrics;
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// This node's current boot generation. Owners persisting a boot clock
    /// read this after a run so the next incarnation can start above it.
    pub fn generation(&self) -> u64 {
        self.states.get(&self.me).expect("own state").generation
    }

    /// True when this node is a seed.
    pub fn is_seed(&self) -> bool {
        self.config.seeds.contains(&self.me)
    }

    /// Round interval (for the owner's timer).
    pub fn interval_us(&self) -> u64 {
        self.config.interval_us
    }

    /// The interval the owner should arm its next gossip timer at: the
    /// configured interval, widened by the idle backoff when the membership
    /// has been quiet (see [`GossipConfig::idle_backoff_max`]). This is what
    /// lets a quiescent 100-node ring fast-forward through long virtual-time
    /// horizons instead of grinding fixed-cadence ticks.
    pub fn current_interval_us(&self) -> u64 {
        let base = self.config.interval_us;
        if self.config.idle_backoff_max <= 1 {
            return base;
        }
        let cap = base.saturating_mul(self.config.idle_backoff_max);
        let shift = self.quiet_rounds.saturating_sub(IDLE_GRACE_ROUNDS).min(32);
        base.saturating_mul(1u64 << shift).min(cap)
    }

    /// Failure-detection windows scaled to the *current* (possibly backed
    /// off) round cadence. With everyone gossiping slowly, heartbeat news
    /// propagates slowly too; judging staleness against the configured
    /// `fail_after_us` would mark healthy-but-quiet peers down and make the
    /// resulting Down/Up churn defeat the backoff entirely.
    fn effective_timeouts(&self) -> (u64, u64) {
        if self.config.idle_backoff_max <= 1 {
            return (self.config.fail_after_us, self.config.remove_after_us);
        }
        let cur = self.current_interval_us();
        (
            self.config.fail_after_us.max(cur.saturating_mul(6)),
            self.config.remove_after_us.max(cur.saturating_mul(12)),
        )
    }

    /// Sets one of this node's application states (load, vnodes, ...).
    pub fn set_app_state(&mut self, key: impl Into<String>, value: impl Into<String>) {
        let (key, value) = (key.into(), value.into());
        let state = self.states.get_mut(&self.me).expect("own state");
        self.vnodes_changed |= key == keys::VNODES && state.app(&key) != Some(value.as_str());
        state.set_app(key, value);
    }

    /// Sets one of this node's application states only when the value
    /// actually differs, so steady-state republication (a capacity weight
    /// or migration-progress field re-asserted every tick) does not bump
    /// the version clock — and therefore does not force a re-gossip — for
    /// an unchanged value. Returns `true` when the state was updated.
    pub fn set_app_state_if_changed(&mut self, key: &str, value: impl Into<String>) -> bool {
        let value = value.into();
        if self.app_state(self.me, key) == Some(value.as_str()) {
            return false;
        }
        self.set_app_state(key, value);
        true
    }

    /// Whether the vnode counts a ring is built from may have changed —
    /// here (via [`Gossiper::set_app_state`]), in a merged delta, or by a
    /// peer's reboot — since the last call; clears the flag. Re-publishing
    /// an unchanged count bumps versions but not this, so a caller can skip
    /// re-deriving the ring on the gossip messages that carry no news.
    pub fn take_vnodes_changed(&mut self) -> bool {
        std::mem::take(&mut self.vnodes_changed)
    }

    /// Reads an endpoint's application state.
    pub fn app_state(&self, node: NodeId, key: &str) -> Option<&str> {
        self.states.get(&node).and_then(|s| s.app(key))
    }

    /// All endpoints this node has heard of (including itself and dead ones).
    pub fn known_endpoints(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.states.keys().copied()
    }

    /// Liveness belief for `node` (self is always alive).
    pub fn is_alive(&self, node: NodeId) -> bool {
        if node == self.me {
            return true;
        }
        self.liveness.get(&node).map(|l| l.alive).unwrap_or(false)
    }

    /// True if a long failure has been declared for `node` (by any seed)
    /// and the node has not rebooted since.
    pub fn is_removed(&self, node: NodeId) -> bool {
        match (self.removed.get(&node), self.states.get(&node)) {
            (Some(&gen), Some(state)) => state.generation <= gen,
            (Some(_), None) => true,
            _ => false,
        }
    }

    /// Drains pending membership events.
    pub fn drain_events(&mut self) -> Vec<MembershipEvent> {
        self.metrics.events.add(self.events.len() as u64);
        std::mem::take(&mut self.events)
    }

    /// One gossip round: beats the local heartbeat, runs failure detection,
    /// picks role-appropriate targets, and returns the Syns to send.
    pub fn tick(&mut self, now: SimTime, rng: &mut Rng) -> Vec<(NodeId, GossipMsg)> {
        self.states.get_mut(&self.me).expect("own state").beat();
        self.detect_failures(now);
        if self.events_total == self.events_at_last_tick {
            self.quiet_rounds = self.quiet_rounds.saturating_add(1);
        } else {
            self.quiet_rounds = 0;
        }
        self.events_at_last_tick = self.events_total;

        let mut targets: Vec<NodeId> = Vec::new();
        let seeds: Vec<NodeId> =
            self.config.seeds.iter().copied().filter(|&s| s != self.me).collect();
        if self.is_seed() {
            // Fig. 7: seeds keep each other consistent every round.
            targets.extend(seeds.iter().copied());
        } else if let Some(&seed) = rng.choose(&seeds) {
            // Normal nodes refresh from a seed each round.
            targets.push(seed);
        }
        // Extra random fanout across known endpoints.
        let peers: Vec<NodeId> = self
            .states
            .keys()
            .copied()
            .filter(|&n| n != self.me && !targets.contains(&n) && !self.is_removed(n))
            .collect();
        for _ in 0..self.config.extra_fanout {
            if let Some(&p) = rng.choose(&peers) {
                if !targets.contains(&p) {
                    targets.push(p);
                }
            }
        }

        self.metrics.rounds.inc();
        self.metrics.fanout.record(targets.len() as u64);
        self.metrics.known_endpoints.set(self.states.len() as i64);

        let digests = self.digests();
        targets.into_iter().map(|t| (t, GossipMsg::Syn(digests.clone()))).collect()
    }

    /// Handles an incoming gossip message; returns the reply, if the
    /// protocol calls for one.
    pub fn handle(
        &mut self,
        now: SimTime,
        from: NodeId,
        msg: GossipMsg,
    ) -> Option<(NodeId, GossipMsg)> {
        match msg {
            GossipMsg::Syn(remote_digests) => {
                if let Some(d) = remote_digests.iter().find(|d| d.endpoint == self.me) {
                    self.reassert_self_authority((d.generation, d.max_version));
                }
                let mut deltas = Vec::new();
                let mut requests = Vec::new();
                for d in &remote_digests {
                    match self.states.get(&d.endpoint) {
                        Some(local) => {
                            let lc = local.clock();
                            let rc = (d.generation, d.max_version);
                            if lc > rc {
                                // We are newer: send what they miss.
                                let after = if local.generation == d.generation {
                                    d.max_version
                                } else {
                                    0
                                };
                                deltas.push(local.delta_since(d.endpoint, after));
                            } else if lc < rc {
                                // They are newer: request it, advertising our version.
                                requests.push(local.digest(d.endpoint));
                            }
                        }
                        None => {
                            // Never heard of it: request everything.
                            requests.push(Digest {
                                endpoint: d.endpoint,
                                generation: 0,
                                max_version: 0,
                            });
                        }
                    }
                }
                // Endpoints the sender did not mention at all.
                for (&ep, state) in &self.states {
                    if !remote_digests.iter().any(|d| d.endpoint == ep) {
                        deltas.push(state.delta_since(ep, 0));
                    }
                }
                Some((from, GossipMsg::Ack1 { deltas, requests }))
            }
            GossipMsg::Ack1 { deltas, requests } => {
                self.apply_deltas(now, &deltas);
                if let Some(req) = requests.iter().find(|r| r.endpoint == self.me) {
                    self.reassert_self_authority((req.generation, req.max_version));
                }
                let answers: Vec<EndpointDelta> = requests
                    .iter()
                    .filter_map(|req| {
                        self.states.get(&req.endpoint).map(|local| {
                            let after = if local.generation == req.generation {
                                req.max_version
                            } else {
                                0
                            };
                            local.delta_since(req.endpoint, after)
                        })
                    })
                    .collect();
                Some((from, GossipMsg::Ack2 { deltas: answers }))
            }
            GossipMsg::Ack2 { deltas } => {
                self.apply_deltas(now, &deltas);
                None
            }
        }
    }

    fn digests(&self) -> Vec<Digest> {
        self.states.iter().map(|(&ep, s)| s.digest(ep)).collect()
    }

    /// Re-establishes authority over our own state when a peer demonstrably
    /// holds a *newer* clock for us than we do. That only happens after a
    /// restart that lost the boot-clock file: we came back with a lower
    /// generation, so every peer keeps preferring the dead incarnation's
    /// states and marks us down once its heartbeat goes stale. The remedy
    /// (§5.2.3's generation-trumps-version rule, applied to ourselves) is to
    /// jump past the observed generation, carrying the current incarnation's
    /// app states forward re-versioned, so our next gossip wins everywhere
    /// and the stale states die with the old generation.
    fn reassert_self_authority(&mut self, observed: (u64, u64)) {
        let own = self.states.get_mut(&self.me).expect("own state");
        if own.clock() >= observed {
            return;
        }
        let mut fresh = EndpointState::new(observed.0 + 1);
        for (key, value) in &own.app_states {
            fresh.set_app(key.clone(), value.value.clone());
        }
        fresh.beat();
        *own = fresh;
    }

    fn apply_deltas(&mut self, now: SimTime, deltas: &[EndpointDelta]) {
        for delta in deltas {
            if delta.endpoint == self.me {
                // Nobody else is authoritative about us — but a peer echoing
                // a clock *ahead* of ours means we restarted with a lost
                // boot-clock file; jump past the dead incarnation instead of
                // silently dropping the evidence (which would livelock: the
                // peer keeps preferring the dead generation and we keep
                // ignoring its deltas).
                self.reassert_self_authority((delta.generation, delta.max_version));
                continue;
            }
            let entry = self.states.entry(delta.endpoint);
            let is_new = matches!(entry, std::collections::btree_map::Entry::Vacant(_));
            let state = entry.or_insert_with(|| EndpointState::new(delta.generation));
            let before_hb = (state.generation, state.heartbeat);
            let rebooted = delta.generation > state.generation;
            self.vnodes_changed |= rebooted
                || delta
                    .app_states
                    .iter()
                    .any(|(k, v)| k == keys::VNODES && state.app(k) != Some(v.value.as_str()));
            state.merge(delta);
            let after_hb = (state.generation, state.heartbeat);
            if is_new {
                self.events.push(MembershipEvent::Joined(delta.endpoint));
                self.events_total += 1;
            }
            if rebooted {
                // A reboot invalidates any standing removal record.
                self.removed
                    .retain(|&n, &mut gen| !(n == delta.endpoint && delta.generation > gen));
            }
            if after_hb != before_hb {
                // Fresh heartbeat: endpoint is alive.
                let l = self
                    .liveness
                    .entry(delta.endpoint)
                    .or_insert(Liveness { last_change_us: now.as_micros(), alive: false });
                l.last_change_us = now.as_micros();
                if !l.alive {
                    l.alive = true;
                    self.events.push(MembershipEvent::Up(delta.endpoint));
                    self.events_total += 1;
                }
            }
            // Learn seed-declared removals carried in app states.
            let removals: Vec<(NodeId, u64)> = self
                .states
                .get(&delta.endpoint)
                .map(|s| {
                    s.app_states
                        .iter()
                        .filter_map(|(k, v)| {
                            let id = k.strip_prefix(keys::REMOVED_PREFIX)?.parse::<u32>().ok()?;
                            let gen = v.value.parse::<u64>().ok()?;
                            Some((NodeId(id), gen))
                        })
                        .collect()
                })
                .unwrap_or_default();
            for (node, gen) in removals {
                if node == self.me {
                    continue;
                }
                let newer_boot =
                    self.states.get(&node).map(|s| s.generation > gen).unwrap_or(false);
                if !newer_boot && self.removed.insert(node, gen) != Some(gen) {
                    self.events.push(MembershipEvent::Removed(node));
                    self.events_total += 1;
                }
            }
        }
    }

    fn detect_failures(&mut self, now: SimTime) {
        let now_us = now.as_micros();
        let is_seed = self.is_seed();
        let (fail_after_us, remove_after_us) = self.effective_timeouts();
        let mut to_remove: Vec<(NodeId, u64)> = Vec::new();
        for (&node, l) in self.liveness.iter_mut() {
            if l.alive && now_us.saturating_sub(l.last_change_us) > fail_after_us {
                l.alive = false;
                self.events.push(MembershipEvent::Down(node));
                self.events_total += 1;
            }
            if is_seed && !l.alive && now_us.saturating_sub(l.last_change_us) > remove_after_us {
                if let Some(state) = self.states.get(&node) {
                    let gen = state.generation;
                    if self.removed.get(&node) != Some(&gen) {
                        to_remove.push((node, gen));
                    }
                }
            }
        }
        for (node, gen) in to_remove {
            // Publish the long-failure declaration in our own state so
            // gossip spreads it (§5.2.4: seeds, not normal nodes, detect
            // long failure; normal nodes then learn it from seeds).
            self.set_app_state(format!("{}{}", keys::REMOVED_PREFIX, node.0), gen.to_string());
            self.removed.insert(node, gen);
            self.events.push(MembershipEvent::Removed(node));
            self.events_total += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seeds: Vec<NodeId>) -> GossipConfig {
        GossipConfig {
            interval_us: 1_000_000,
            fail_after_us: 5_000_000,
            remove_after_us: 30_000_000,
            seeds,
            extra_fanout: 1,
            idle_backoff_max: 1,
        }
    }

    #[test]
    fn idle_backoff_widens_interval_and_resets_on_activity() {
        let mut config = cfg(vec![NodeId(0)]);
        config.idle_backoff_max = 8;
        let mut a = Gossiper::new(NodeId(0), 1, config);
        let mut rng = Rng::new(7);
        assert_eq!(a.current_interval_us(), 1_000_000);
        // Quiet ticks: full cadence through the grace window, then doubling
        // up to the cap.
        for i in 0..20u64 {
            let _ = a.tick(SimTime::from_secs(1 + i), &mut rng);
        }
        assert_eq!(a.current_interval_us(), 8_000_000, "capped at interval * idle_backoff_max");
        // Any membership event snaps the cadence back to the base interval.
        let mut b = Gossiper::new(NodeId(1), 1, cfg(vec![NodeId(0)]));
        exchange(&mut a, &mut b, SimTime::from_secs(30));
        let _ = a.tick(SimTime::from_secs(31), &mut rng);
        assert_eq!(a.current_interval_us(), 1_000_000);
    }

    #[test]
    fn backoff_disabled_keeps_fixed_interval() {
        let mut a = Gossiper::new(NodeId(0), 1, cfg(vec![NodeId(0)]));
        let mut rng = Rng::new(8);
        for i in 0..50u64 {
            let _ = a.tick(SimTime::from_secs(1 + i), &mut rng);
        }
        assert_eq!(a.current_interval_us(), a.interval_us());
    }

    /// With the backoff active, failure detection must scale with the
    /// widened cadence: a healthy-but-quiet peer whose heartbeat news simply
    /// travels slowly may not be declared down at the configured
    /// `fail_after_us`, or the resulting Down/Up churn would defeat the
    /// backoff.
    #[test]
    fn backed_off_failure_detection_tolerates_slow_heartbeat_news() {
        let mut config = cfg(vec![NodeId(0)]);
        config.idle_backoff_max = 64;
        let mut a = Gossiper::new(NodeId(0), 1, config);
        let mut b = Gossiper::new(NodeId(1), 1, cfg(vec![NodeId(0)]));
        let mut rng = Rng::new(9);
        let _ = a.tick(SimTime::from_secs(1), &mut rng);
        let _ = b.tick(SimTime::from_secs(1), &mut rng);
        exchange(&mut a, &mut b, SimTime::from_secs(1));
        assert!(a.is_alive(NodeId(1)));
        a.drain_events();
        // 50 quiet ticks, 1 s apart: b's last observed heartbeat goes 50 s
        // stale — far beyond fail_after (5 s), but within the scaled window
        // once the interval has backed off.
        for i in 0..50u64 {
            let _ = a.tick(SimTime::from_secs(2 + i), &mut rng);
        }
        assert!(a.is_alive(NodeId(1)), "scaled fail_after must cover backed-off cadence");
        // The identical sequence with backoff disabled marks b down.
        let mut c = Gossiper::new(NodeId(0), 1, cfg(vec![NodeId(0)]));
        let mut b2 = Gossiper::new(NodeId(1), 1, cfg(vec![NodeId(0)]));
        let _ = c.tick(SimTime::from_secs(1), &mut rng);
        let _ = b2.tick(SimTime::from_secs(1), &mut rng);
        exchange(&mut c, &mut b2, SimTime::from_secs(1));
        for i in 0..50u64 {
            let _ = c.tick(SimTime::from_secs(2 + i), &mut rng);
        }
        assert!(!c.is_alive(NodeId(1)));
    }

    /// Pumps one full Syn→Ack1→Ack2 exchange from `a` to `b`.
    fn exchange(a: &mut Gossiper, b: &mut Gossiper, now: SimTime) {
        let digests = a.digests();
        let (_, ack1) = b.handle(now, a.id(), GossipMsg::Syn(digests)).expect("ack1");
        if let Some((_, ack2)) = a.handle(now, b.id(), ack1) {
            b.handle(now, a.id(), ack2);
        }
    }

    #[test]
    fn three_way_handshake_converges_two_nodes() {
        let mut a = Gossiper::new(NodeId(0), 1, cfg(vec![NodeId(0)]));
        let mut b = Gossiper::new(NodeId(1), 1, cfg(vec![NodeId(0)]));
        a.set_app_state(keys::LOAD, "0.3");
        b.set_app_state(keys::VNODES, "128");
        let now = SimTime::from_secs(1);
        let mut rng = Rng::new(1);
        let _ = a.tick(now, &mut rng);
        let _ = b.tick(now, &mut rng);
        exchange(&mut a, &mut b, now);
        assert_eq!(a.app_state(NodeId(1), keys::VNODES), Some("128"));
        assert_eq!(b.app_state(NodeId(0), keys::LOAD), Some("0.3"));
        assert!(a.is_alive(NodeId(1)));
        assert!(b.is_alive(NodeId(0)));
        let events = a.drain_events();
        assert!(events.contains(&MembershipEvent::Joined(NodeId(1))));
        assert!(events.contains(&MembershipEvent::Up(NodeId(1))));
    }

    #[test]
    fn syn_with_unknown_endpoint_requests_everything() {
        let a = Gossiper::new(NodeId(0), 1, cfg(vec![]));
        let mut b = Gossiper::new(NodeId(1), 1, cfg(vec![]));
        let (_, ack1) =
            b.handle(SimTime::ZERO, NodeId(0), GossipMsg::Syn(a.digests())).expect("reply");
        match ack1 {
            GossipMsg::Ack1 { requests, deltas } => {
                assert_eq!(requests.len(), 1, "b must request a's state");
                assert_eq!(requests[0].endpoint, NodeId(0));
                assert_eq!(requests[0].max_version, 0);
                // b also pushes its own (unmentioned) state.
                assert!(deltas.iter().any(|d| d.endpoint == NodeId(1)));
            }
            other => panic!("expected Ack1, got {other:?}"),
        }
    }

    #[test]
    fn state_spreads_transitively_via_seed() {
        // a and c never talk directly; the seed b relays.
        let seeds = vec![NodeId(1)];
        let mut a = Gossiper::new(NodeId(0), 1, cfg(seeds.clone()));
        let mut b = Gossiper::new(NodeId(1), 1, cfg(seeds.clone()));
        let mut c = Gossiper::new(NodeId(2), 1, cfg(seeds));
        a.set_app_state(keys::LOAD, "0.9");
        let now = SimTime::from_secs(1);
        let mut rng = Rng::new(2);
        for g in [&mut a, &mut b, &mut c] {
            let _ = g.tick(now, &mut rng);
        }
        exchange(&mut a, &mut b, now);
        exchange(&mut c, &mut b, now);
        assert_eq!(c.app_state(NodeId(0), keys::LOAD), Some("0.9"));
    }

    #[test]
    fn normal_nodes_target_a_seed_seeds_target_all_seeds() {
        let seeds = vec![NodeId(0), NodeId(1)];
        let mut seed = Gossiper::new(NodeId(0), 1, cfg(seeds.clone()));
        let mut normal = Gossiper::new(NodeId(2), 1, cfg(seeds.clone()));
        let mut rng = Rng::new(3);
        let out_seed = seed.tick(SimTime::from_secs(1), &mut rng);
        assert!(out_seed.iter().any(|(t, _)| *t == NodeId(1)), "seed gossips to other seed");
        let out_normal = normal.tick(SimTime::from_secs(1), &mut rng);
        assert!(
            out_normal.iter().any(|(t, _)| seeds.contains(t)),
            "normal node must contact a seed: {out_normal:?}"
        );
    }

    #[test]
    fn missing_heartbeats_mark_node_down_then_seed_removes_it() {
        let seeds = vec![NodeId(0)];
        let mut seed = Gossiper::new(NodeId(0), 1, cfg(seeds.clone()));
        let mut normal = Gossiper::new(NodeId(1), 1, cfg(seeds));
        let mut rng = Rng::new(4);
        // Initial contact at t=1s.
        let t1 = SimTime::from_secs(1);
        let _ = normal.tick(t1, &mut rng);
        exchange(&mut normal, &mut seed, t1);
        assert!(seed.is_alive(NodeId(1)));
        seed.drain_events();

        // The normal node falls silent. At t=7s it is down...
        let _ = seed.tick(SimTime::from_secs(7), &mut rng);
        assert!(!seed.is_alive(NodeId(1)));
        assert!(seed.drain_events().contains(&MembershipEvent::Down(NodeId(1))));
        assert!(!seed.is_removed(NodeId(1)));

        // ...and at t=40s the seed declares long failure.
        let _ = seed.tick(SimTime::from_secs(40), &mut rng);
        assert!(seed.is_removed(NodeId(1)));
        assert!(seed.drain_events().contains(&MembershipEvent::Removed(NodeId(1))));
        // The declaration is carried in the seed's own gossip state.
        assert_eq!(seed.app_state(NodeId(0), "removed:1"), Some("1"));
    }

    #[test]
    fn removal_spreads_to_normal_nodes_via_gossip() {
        let seeds = vec![NodeId(0)];
        let mut seed = Gossiper::new(NodeId(0), 1, cfg(seeds.clone()));
        let mut n1 = Gossiper::new(NodeId(1), 1, cfg(seeds.clone()));
        let mut n2 = Gossiper::new(NodeId(2), 1, cfg(seeds));
        let mut rng = Rng::new(5);
        let t1 = SimTime::from_secs(1);
        for g in [&mut n1, &mut n2] {
            let _ = g.tick(t1, &mut rng);
        }
        exchange(&mut n1, &mut seed, t1);
        exchange(&mut n2, &mut seed, t1);
        // n1 dies; the seed declares it at t=40.
        let _ = seed.tick(SimTime::from_secs(40), &mut rng);
        assert!(seed.is_removed(NodeId(1)));
        // n2 syncs with the seed and learns of the removal.
        let t2 = SimTime::from_secs(41);
        let _ = n2.tick(t2, &mut rng);
        exchange(&mut n2, &mut seed, t2);
        assert!(n2.is_removed(NodeId(1)));
        assert!(n2.drain_events().contains(&MembershipEvent::Removed(NodeId(1))));
    }

    #[test]
    fn reboot_with_higher_generation_clears_removal() {
        let seeds = vec![NodeId(0)];
        let mut seed = Gossiper::new(NodeId(0), 1, cfg(seeds.clone()));
        let mut old = Gossiper::new(NodeId(1), 1, cfg(seeds.clone()));
        let mut rng = Rng::new(6);
        let t1 = SimTime::from_secs(1);
        let _ = old.tick(t1, &mut rng);
        exchange(&mut old, &mut seed, t1);
        let _ = seed.tick(SimTime::from_secs(40), &mut rng);
        assert!(seed.is_removed(NodeId(1)));
        // Node 1 reboots with generation 2 and gossips again.
        let mut fresh = Gossiper::new(NodeId(1), 2, cfg(seeds));
        let t2 = SimTime::from_secs(50);
        let _ = fresh.tick(t2, &mut rng);
        exchange(&mut fresh, &mut seed, t2);
        assert!(!seed.is_removed(NodeId(1)), "newer generation must clear the removal");
        assert!(seed.is_alive(NodeId(1)));
    }

    #[test]
    fn lost_clock_restart_reasserts_authority() {
        // Node 1 runs at generation 5, publishes state, and gossips with the
        // seed. It then restarts having lost its boot-clock file, coming
        // back at generation 1 — lower than what the cluster remembers.
        let seeds = vec![NodeId(0)];
        let mut seed = Gossiper::new(NodeId(0), 1, cfg(seeds.clone()));
        let mut old = Gossiper::new(NodeId(1), 5, cfg(seeds.clone()));
        old.set_app_state(keys::LOAD, "old-load");
        let mut rng = Rng::new(8);
        let t1 = SimTime::from_secs(1);
        let _ = old.tick(t1, &mut rng);
        exchange(&mut old, &mut seed, t1);
        assert_eq!(seed.app_state(NodeId(1), keys::LOAD), Some("old-load"));

        let mut fresh = Gossiper::new(NodeId(1), 1, cfg(seeds));
        fresh.set_app_state(keys::VNODES, "64");
        let t2 = SimTime::from_secs(2);
        let _ = fresh.tick(t2, &mut rng);
        exchange(&mut fresh, &mut seed, t2);
        // The seed's reply carried the dead incarnation (generation 5); the
        // restarted node must jump past it rather than ignore it.
        assert!(fresh.generation() > 5, "got generation {}", fresh.generation());

        // One more round spreads the new incarnation back to the seed: the
        // fresh states win and the dead generation's states die with it.
        let t3 = SimTime::from_secs(3);
        let _ = fresh.tick(t3, &mut rng);
        exchange(&mut fresh, &mut seed, t3);
        assert_eq!(seed.app_state(NodeId(1), keys::VNODES), Some("64"));
        assert_eq!(
            seed.app_state(NodeId(1), keys::LOAD),
            None,
            "stale app state from the dead generation must not be resurrected"
        );
        assert!(seed.is_alive(NodeId(1)));
    }

    #[test]
    fn own_state_is_never_overwritten_by_peers() {
        let mut a = Gossiper::new(NodeId(0), 1, cfg(vec![]));
        a.set_app_state(keys::LOAD, "truth");
        // A malicious/buggy delta claiming to describe node 0.
        let mut fake = EndpointState::new(9);
        fake.set_app(keys::LOAD, "lies");
        a.apply_deltas(SimTime::ZERO, &[fake.delta_since(NodeId(0), 0)]);
        assert_eq!(a.app_state(NodeId(0), keys::LOAD), Some("truth"));
    }

    #[test]
    fn convergence_over_random_rounds() {
        // 8 nodes, seeds {0,1}: after a handful of rounds everyone knows
        // everyone's app state.
        let seeds = vec![NodeId(0), NodeId(1)];
        let mut nodes: Vec<Gossiper> = (0..8)
            .map(|i| {
                let mut g = Gossiper::new(NodeId(i), 1, cfg(seeds.clone()));
                g.set_app_state(keys::VNODES, format!("{}", 100 + i));
                g
            })
            .collect();
        let mut rng = Rng::new(7);
        for round in 0..6u64 {
            let now = SimTime::from_secs(round + 1);
            // Collect this round's Syns.
            let mut mail: Vec<(usize, usize, GossipMsg)> = Vec::new();
            for (i, node) in nodes.iter_mut().enumerate() {
                for (to, msg) in node.tick(now, &mut rng) {
                    mail.push((i, to.0 as usize, msg));
                }
            }
            // Deliver Syn → Ack1 → Ack2 synchronously.
            for (from, to, msg) in mail {
                let reply = nodes[to].handle(now, NodeId(from as u32), msg);
                if let Some((_, ack1)) = reply {
                    if let Some((_, ack2)) = nodes[from].handle(now, NodeId(to as u32), ack1) {
                        nodes[to].handle(now, NodeId(from as u32), ack2);
                    }
                }
            }
        }
        for g in &nodes {
            for i in 0..8u32 {
                assert_eq!(
                    g.app_state(NodeId(i), keys::VNODES),
                    Some(format!("{}", 100 + i).as_str()),
                    "node {} missing state of {}",
                    g.id(),
                    i
                );
            }
        }
    }
}
