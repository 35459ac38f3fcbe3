//! The MyStore storage node (paper §5).
//!
//! One process per database node, combining:
//!
//! * the **local store** — a [`Db`] holding the `data` collection (indexed
//!   by `self-key`) and the `hints` collection,
//! * the **gossiper** — §5.2.3 state transfer and failure detection,
//! * the **ring view** — rebuilt from gossiped membership (endpoints
//!   publish their virtual-node counts),
//! * the **coordinator** — every node can coordinate any key (the paper
//!   notes "clients can connect to any node in the system to get/put
//!   data"): quorum writes/reads/conditional writes per §5.2.2, hinted
//!   handoff per §5.2.4 (Fig. 8), read repair ("replications are
//!   supplemented to achieve N"),
//! * **rebalance** — migration on node addition and replica rebuilding on
//!   long failure (Fig. 9).
//!
//! The node is a sans-io [`Process`]: all I/O and timing is delegated to
//! the runtime, so identical logic runs in the deterministic simulator and
//! in the threaded runtime.
//!
//! The implementation is a module tree; this file holds the node state,
//! construction, and the [`Process`] dispatch shell:
//!
//! * `coordinator` — the quorum engine: the pending table's lifecycle
//!   (`coordinator::driver`) and the write, read and CAS ops it drives,
//! * `replica` — the replica-level server side (store/fetch/hint) and
//!   the group commit that syncs the WAL off the node's thread and
//!   releases parked acks as the sync completes,
//! * `maintenance` — membership/ring/rebalance, hint replay,
//!   anti-entropy and gossip ticks, and the outbound table.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub(crate) mod coordinator;
pub(crate) mod maintenance;
pub(crate) mod metrics;
pub(crate) mod migrate;
pub(crate) mod replica;
pub(crate) mod sync;

use std::collections::BTreeMap;

use mystore_engine::{Collection, Db, WalMetrics};
use mystore_gossip::{GossipMetrics, Gossiper};
use mystore_net::{Context, NodeId, OpFault, Process, TimerToken};
use mystore_ring::HashRing;

use crate::config::{StorageConfig, COST};
use crate::message::Msg;

use self::coordinator::driver::{Pending, Reply};
use self::maintenance::{Outbound, Sent};
pub use self::metrics::StorageMetrics;
use self::migrate::{InboundArc, MigrationPlan};

// Timer-token layout: low 4 bits select the kind, the rest carry a request id.
pub(crate) const TK_KIND_MASK: u64 = 0b1111;
pub(crate) const TK_GOSSIP: u64 = 1;
pub(crate) const TK_HINT_REPLAY: u64 = 2;
/// A coordinated op's retry timer (the token carries its request id).
pub(crate) const TK_RETRY: u64 = 3;
/// A coordinated op's hard request deadline.
pub(crate) const TK_DEADLINE: u64 = 4;
pub(crate) const TK_REAP: u64 = 6;
pub(crate) const TK_ANTI_ENTROPY: u64 = 7;
pub(crate) const TK_MIGRATE: u64 = 11;

pub(crate) fn tk(kind: u64, req: u64) -> TimerToken {
    (req << 4) | kind
}

pub(crate) fn tk_split(token: TimerToken) -> (u64, u64) {
    (token & TK_KIND_MASK, token >> 4)
}

/// Collection holding the node's records (one per `self-key`).
pub(crate) const DATA: &str = "data";

/// Collection holding hinted-handoff records.
pub(crate) const HINTS: &str = "hints";

/// The data collection of `db`, empty until a first write creates it.
pub(crate) fn data(db: &Db) -> &Collection {
    static NONE: Collection = Collection::new();
    db.collection(DATA).unwrap_or(&NONE)
}

/// The storage-node process.
pub struct StorageNode {
    pub(crate) cfg: StorageConfig,
    pub(crate) db: Db,
    pub(crate) gossiper: Gossiper,
    pub(crate) ring: HashRing<NodeId>,
    /// Membership signature the current ring was built from.
    pub(crate) ring_sig: Vec<(NodeId, u32)>,
    /// [`crate::sync::replica_arcs`] of this node on `ring`, re-derived with
    /// it: every anti-entropy round and walk step reads them, and one ring
    /// scan per step is what a 100-node ring cannot afford (DESIGN.md §14).
    pub(crate) replica_arcs: Vec<(mystore_ring::Arc_, Vec<NodeId>)>,
    /// Coordinated operations (PUT, GET, CAS) in flight, by the request id
    /// their replica messages carry (`coordinator/driver.rs`).
    pub(crate) pending: BTreeMap<u64, Pending>,
    /// Hint replays, migration copies and proxied fetches awaiting their
    /// reply, by request id (`maintenance.rs`).
    pub(crate) outbound: BTreeMap<u64, Outbound>,
    pub(crate) next_req: u64,
    /// Bumped every restart; the gossip boot generation.
    pub(crate) generation: u64,
    /// Anti-entropy round counter (rotates the peer choice).
    pub(crate) sync_round: u64,
    /// `Db::last_seq` observed at the previous anti-entropy round; the idle
    /// backoff widens the period while this stays unchanged.
    pub(crate) ae_last_seq: u64,
    /// Consecutive anti-entropy rounds with no local writes.
    pub(crate) ae_quiet_rounds: u32,
    /// Merkle sync state: per-range leaf hashes over the local keyspace,
    /// each dropped by [`StorageNode::write_data`] when a write touches it.
    pub(crate) sync_tree: crate::sync::SyncTree,
    /// Highest tombstone-reap cutoff applied locally. Sync digests below
    /// this floor must not resurrect keys we reaped: a missing key whose
    /// remote version is older than the floor was deleted here, not lost.
    /// Volatile by design — reset on restart, when anti-entropy legitimately
    /// refills the store (see DESIGN.md §14).
    pub(crate) reap_floor: u64,
    /// Anti-entropy observability (shared registry, `sync.*` series).
    pub(crate) sync_metrics: crate::sync::SyncMetrics,
    /// Acks for staged writes, `(to, req, wal_pos)`: an ack must mean
    /// "durable here", so each waits until the WAL's durable watermark
    /// reaches the position its write staged up to.
    pub(crate) parked_acks: Vec<(NodeId, u64, u64)>,
    /// This node's own staged writes for writes it coordinates, `(req,
    /// wal_pos)`: its copy of the record, or a hint it holds itself for an
    /// unreachable replica. Each acks as this node once durable.
    pub(crate) parked_own: Vec<(u64, u64)>,
    /// The WAL position the sync in flight covers; `None` when no sync is
    /// in flight. At most one is (DESIGN.md §9).
    pub(crate) syncing: Option<u64>,
    /// The active migration plan, when a ring change is being drained
    /// through the rate-limited engine (DESIGN.md §16); `None` otherwise.
    pub(crate) migration: Option<MigrationPlan>,
    /// Arcs this node is receiving but has not been cut over yet: reads
    /// that miss proxy to (and writes forward to) the arc's old owner.
    pub(crate) pending_in: Vec<InboundArc>,
    /// A persisted migration cursor recovered at (re)start, parked until
    /// gossip re-converges and `start_migration` can rebuild the plan.
    pub(crate) resume_cursor: Option<migrate::ResumeCursor>,
    /// Whether a `TK_MIGRATE` tick is armed (demand-driven, like the WAL
    /// flush timer: an idle node schedules none).
    pub(crate) migrate_armed: bool,
    pub(crate) metrics: StorageMetrics,
}

impl StorageNode {
    /// Creates a node with identity `me`. With
    /// [`StorageConfig::data_dir`] set, the node opens (and on restart,
    /// recovers) a durable WAL named `node<id>.wal` in that directory.
    #[allow(
        clippy::expect_used,
        reason = "startup-time config validation, data-dir setup and WAL open, fail-fast by design: nothing is serving yet"
    )]
    pub fn new(me: NodeId, cfg: StorageConfig) -> Self {
        cfg.nwr.validate().expect("invalid NWR configuration");
        let db = match &cfg.data_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir).expect("create data dir");
                Db::open(dir.join(format!("node{}.wal", me.0))).expect("open node wal")
            }
            None => Db::memory(),
        };
        Self::boot(me, cfg, db, 1)
    }

    /// A node booting at gossip generation `generation` on `db`, with every
    /// volatile field empty: the first boot and every restart come through
    /// here.
    fn boot(me: NodeId, cfg: StorageConfig, mut db: Db, generation: u64) -> Self {
        // Record ids must replay identically under the seeded simulator;
        // setting the machine keeps a recovered generator's epoch.
        db.set_oid_machine(u64::from(me.0));
        // Ring order: a Merkle leaf or a migration arc is one range scan.
        db.set_key_point(HashRing::<NodeId>::key_point);
        db.set_wal_metrics(WalMetrics::from_registry(&cfg.metrics));
        // From here on writes stage; `commit` makes them durable.
        db.set_staged(true);
        let mut gossiper = Gossiper::new(me, generation, cfg.gossip.clone());
        gossiper.set_metrics(GossipMetrics::from_registry(&cfg.metrics));
        StorageNode {
            db,
            gossiper,
            ring: HashRing::new(),
            ring_sig: Vec::new(),
            replica_arcs: Vec::new(),
            pending: BTreeMap::new(),
            outbound: BTreeMap::new(),
            next_req: 1,
            generation,
            sync_round: 0,
            ae_last_seq: 0,
            ae_quiet_rounds: 0,
            sync_tree: crate::sync::SyncTree::new(crate::sync::LEAF_SPLITS),
            reap_floor: 0,
            sync_metrics: crate::sync::SyncMetrics::from_registry(&cfg.metrics),
            parked_acks: Vec::new(),
            parked_own: Vec::new(),
            syncing: None,
            migration: None,
            pending_in: Vec::new(),
            resume_cursor: None,
            migrate_armed: false,
            metrics: StorageMetrics::from_registry(&cfg.metrics),
            cfg,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.gossiper.id()
    }

    /// Records stored locally in the data collection (replicas included,
    /// tombstones included) — the quantity Fig. 15 plots.
    pub fn record_count(&self) -> usize {
        self.db.collection(DATA).map(|c| c.len()).unwrap_or(0)
    }

    /// Outstanding hints held for other nodes.
    pub fn hint_count(&self) -> usize {
        self.db.collection(HINTS).map(|c| c.len()).unwrap_or(0)
    }

    /// Read access to the local database (tests, diagnostics).
    pub fn db(&self) -> &Db {
        &self.db
    }

    /// Directly installs a replica, bypassing the network path. Experiment
    /// harnesses use this to preload large corpora without simulating hours
    /// of load traffic; placement must be computed by the caller (see
    /// `mystore-workload`'s preload helpers).
    pub fn preload_record(&mut self, record: &mystore_engine::Record) {
        let _ = self.write_data(&record.self_key, |db| db.put_record(DATA, record));
        let _ = self.db.sync_wal();
    }

    /// Runs `write`, a mutation of `key`'s record in the data collection,
    /// and drops the cached Merkle leaf that covers the key. Every write to
    /// `DATA` goes through here (a reap, which touches many keys, drops the
    /// whole cache instead), so a cached leaf hash is always the hash of
    /// what the store holds.
    pub(crate) fn write_data<T>(&mut self, key: &str, write: impl FnOnce(&mut Db) -> T) -> T {
        let out = write(&mut self.db);
        self.sync_tree.dirty(&self.ring, key);
        out
    }

    /// The node's current ring view.
    pub fn ring(&self) -> &HashRing<NodeId> {
        &self.ring
    }

    /// Gossip-derived liveness belief.
    pub fn believes_alive(&self, node: NodeId) -> bool {
        self.gossiper.is_alive(node)
    }

    /// Hint replays currently awaiting an acknowledgement (tests: the
    /// hint-ack map must stay bounded when targets die mid-replay).
    pub fn inflight_hint_replays(&self) -> usize {
        self.outbound.values().filter(|out| matches!(out.kind, Sent::Hint(_))).count()
    }

    /// Whether a WAL sync is in flight (tests: crashes inside a commit).
    pub fn sync_in_flight(&self) -> bool {
        self.syncing.is_some()
    }

    /// Acks (remote, and this node's own copies) waiting for their writes
    /// to become durable.
    pub fn parked_acks(&self) -> usize {
        self.parked_acks.len() + self.parked_own.len()
    }

    /// Highest tombstone-reap cutoff applied since the last restart
    /// (tests: resurrection protection must engage after a reap).
    pub fn reap_floor(&self) -> u64 {
        self.reap_floor
    }

    pub(crate) fn fresh_req(&mut self) -> u64 {
        let r = self.next_req;
        self.next_req += 1;
        r
    }
}

impl Process<Msg> for StorageNode {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        // A recovered store may hold an interrupted migration's cursor
        // (durable WAL restart): park it before the first ring refresh.
        self.resume_migration();
        // Make sure the local ring at least contains this node, so a
        // single-node deployment serves requests before any gossip.
        self.refresh_ring(ctx);
        // Stagger the first gossip round a little to avoid lockstep.
        let jitter = ctx.rng().range_u64(0, self.cfg.gossip.interval_us / 4 + 1);
        ctx.set_timer(self.cfg.gossip.interval_us / 4 + jitter, tk(TK_GOSSIP, 0));
        ctx.set_timer(self.cfg.hint_replay_interval_us, tk(TK_HINT_REPLAY, 0));
        if self.cfg.compaction_interval_us > 0 {
            ctx.set_timer(self.cfg.compaction_interval_us, tk(TK_REAP, 0));
        }
        if self.cfg.anti_entropy_interval_us > 0 {
            // Stagger the first round so nodes don't sync in lockstep.
            let jitter = ctx.rng().range_u64(0, self.cfg.anti_entropy_interval_us / 2 + 1);
            ctx.set_timer(self.cfg.anti_entropy_interval_us / 2 + jitter, tk(TK_ANTI_ENTROPY, 0));
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Msg>) {
        // Crash recovery (DESIGN.md §8): a new boot on the store rebuilt
        // from its WAL. Anything that never reached the log is lost, as on
        // a real process crash, the ring view and migration plan included.
        let db = std::mem::replace(&mut self.db, Db::memory());
        let db = match db.recover_from_wal() {
            Ok(db) => db,
            // A corrupt log must not take the node (and in the sim, the
            // whole cluster process) down: come back empty — read repair
            // and anti-entropy re-fill us.
            Err(_) => {
                self.metrics.recover_failures.inc();
                Db::memory()
            }
        };
        // A new boot generation (paper's bootGeneration field): peers see
        // the bump and reset our state, clearing any long-failure
        // declaration. Build on the gossiper's generation too — it may have
        // reasserted a higher one after a lost-clock recovery.
        let generation = self.generation.max(self.gossiper.generation()) + 1;
        // The copies in flight die with the process.
        self.drop_copies();
        // Request ids stay unique across boots, so a late pre-crash ack
        // cannot settle a new request; the anti-entropy peer rotation
        // carries on where it was.
        let (next_req, sync_round) = (self.next_req, self.sync_round);
        let fresh = Self::boot(self.id(), self.cfg.clone(), db, generation);
        *self = StorageNode { next_req, sync_round, ..fresh };
        self.metrics.restarts.inc();
        self.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        // The runtime samples at most one per-operation fault (Table 2);
        // replica-level storage ops interpret it below.
        let fault = ctx.take_op_fault();
        match msg {
            Msg::Put { req, key, value, delete } => {
                if fault == Some(OpFault::NetworkException) {
                    return; // request lost on the wire; caller times out
                }
                self.start_put(ctx, from, req, key, value, delete);
            }
            Msg::Get { req, key } => {
                if fault == Some(OpFault::NetworkException) {
                    return;
                }
                self.start_get(ctx, from, req, key);
            }
            Msg::Cas { req, key, value, expected } => {
                if fault == Some(OpFault::NetworkException) {
                    return;
                }
                self.start_cas(ctx, from, req, key, value, expected);
            }
            Msg::StoreReplica { req, record } => {
                self.on_store_replica(ctx, from, req, record, fault)
            }
            Msg::StoreReplicaBatch { ops } => self.on_store_replica_batch(ctx, from, ops, fault),
            Msg::StoreAck { req, ok } => self.on_store_ack(ctx, from, req, ok),
            Msg::StoreAckBatch { acks } => {
                for (req, ok) in acks {
                    self.on_store_ack(ctx, from, req, ok);
                }
            }
            Msg::FetchReplica { req, key } => self.on_fetch_replica(ctx, from, req, key, fault),
            Msg::FetchAck { req, found, ok } => match self.outbound.remove(&req) {
                // A deferred dual-ownership fetch: the old owner answered;
                // complete the original request with its copy.
                Some(Outbound { kind: Sent::Proxy { requester, req }, .. }) => {
                    ctx.send(requester, Msg::FetchAck { req, found, ok })
                }
                // A write's entry: a fetch answer cannot settle it.
                Some(out) => {
                    self.outbound.insert(req, out);
                }
                None => self.drv_on_reply(ctx, req, from, Reply::Fetch { found, ok }),
            },
            Msg::StoreHint { req, intended, record } => {
                self.on_store_hint(ctx, from, req, intended, record, fault)
            }
            Msg::SyncDigest { entries } => {
                ctx.consume(COST.gossip_us + entries.len() as u64 / 4);
                self.reconcile(ctx, from, entries, Vec::new());
            }
            Msg::SyncRecords { records } => {
                for record in records {
                    // Resurrection guard (push path): a record the sender
                    // believes we are missing, but whose version predates a
                    // tombstone reap we performed, is the ghost of a key we
                    // deleted — not data we lost.
                    if self.reap_floor > 0
                        && record.version <= self.reap_floor
                        && self.db.get_record(DATA, &record.self_key).ok().flatten().is_none()
                    {
                        self.sync_metrics.resurrections_blocked.inc();
                        continue;
                    }
                    ctx.consume(COST.put_us(record.val.len()));
                    let key = &record.self_key;
                    if self.write_data(key, |db| db.put_record(DATA, &record)).unwrap_or(false) {
                        ctx.record("anti_entropy_repair", 1.0);
                    }
                }
            }
            Msg::SyncTreeRequest { ring_hash, root } => {
                self.on_sync_tree_request(ctx, from, ring_hash, root)
            }
            Msg::SyncTreeLevel { ring_hash, nodes } => {
                self.on_sync_tree_level(ctx, from, ring_hash, nodes)
            }
            Msg::SyncLeafDigest { ring_hash, leaves, entries } => {
                self.on_sync_leaf_digest(ctx, from, ring_hash, leaves, entries)
            }
            Msg::MigrateCutover { start, end } => self.on_migrate_cutover(from, start, end),
            Msg::MigrateBegin { start, end } => {
                self.on_migrate_begin(ctx.now().as_micros(), from, start, end)
            }
            // Receive-only: the pre-engine rebalance sweep sent these, and a
            // peer still running it may; nothing in this tree does.
            Msg::TransferRecords { records } => {
                for record in records {
                    ctx.consume(COST.put_us(record.val.len()));
                    let _ = self.write_data(&record.self_key, |db| db.put_record(DATA, &record));
                }
            }
            Msg::Gossip(g) => {
                ctx.consume(COST.gossip_us);
                let now = ctx.now();
                if let Some((to, reply)) = self.gossiper.handle(now, from, g) {
                    ctx.send(to, Msg::Gossip(reply));
                }
                self.process_membership(ctx);
            }
            Msg::RingReq { req } => {
                let mut members: Vec<NodeId> = self.ring.nodes().copied().collect();
                members.sort_unstable();
                ctx.send(from, Msg::RingResp { req, members });
            }
            // REST/cache traffic does not terminate here.
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, token: TimerToken) {
        let (kind, req) = tk_split(token);
        match kind {
            TK_GOSSIP => self.gossip_tick(ctx),
            TK_HINT_REPLAY => {
                self.replay_hints(ctx);
                ctx.set_timer(self.cfg.hint_replay_interval_us, tk(TK_HINT_REPLAY, 0));
            }
            TK_REAP => {
                // Deferred reclamation of logical deletes (§3.3): physically
                // drop tombstones old enough that no repair can resurrect
                // their keys.
                let now_us = ctx.now().as_micros();
                let cutoff = mystore_engine::pack_version(
                    now_us.saturating_sub(self.cfg.tombstone_grace_us),
                    0,
                );
                if let Ok(reaped) = self.db.reap_tombstones(DATA, cutoff) {
                    if reaped > 0 {
                        ctx.record("tombstones_reaped", reaped as f64);
                        // Only advance the floor when something was actually
                        // reaped: a fresh (or refilled-from-empty) node keeps
                        // floor 0 so anti-entropy can seed it.
                        self.reap_floor = self.reap_floor.max(cutoff);
                        self.sync_tree.clear();
                    }
                }
                ctx.set_timer(self.cfg.compaction_interval_us, tk(TK_REAP, 0));
            }
            TK_ANTI_ENTROPY => {
                self.merkle_round(ctx);
                ctx.set_timer(self.next_anti_entropy_delay_us(), tk(TK_ANTI_ENTROPY, 0));
            }
            TK_RETRY => self.drv_on_retry_timeout(ctx, req),
            TK_DEADLINE => self.drv_on_hard_timeout(ctx, req),
            TK_MIGRATE => self.migrate_tick(ctx),
            _ => {}
        }
    }

    fn on_batch_end(&mut self, ctx: &mut Context<'_, Msg>) {
        self.commit(ctx);
    }

    fn on_sync_done(&mut self, ctx: &mut Context<'_, Msg>, ok: bool) {
        self.sync_done(ctx, ok);
    }

    fn quiescent(&self) -> bool {
        // A drain waits for coordinated ops and the sync in flight (a parked
        // ack waits for at most that sync and the next); maintenance
        // (gossip, anti-entropy, hints) can be cut.
        self.pending.is_empty() && self.syncing.is_none()
    }

    fn on_shutdown(&mut self, ctx: &mut Context<'_, Msg>) {
        // A stop can cut a batch or a sync short: one blocking sync covers
        // everything staged, and everything parked goes out.
        let ok = self.db.sync_wal().is_ok();
        self.syncing = None;
        self.release_parked(ctx, self.db.wal_end_pos(), ok);
    }
}
