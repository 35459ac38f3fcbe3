//! The REST front end (paper §4, Fig. 1).
//!
//! Plays the role of nginx + spawn-fcgi + the Python logical processes: it
//! terminates REST requests (GET/POST/DELETE), authenticates URI signatures
//! when configured, consults the cache tier (hash-routed cache servers),
//! and forwards misses/writes to the storage module: to a member of the
//! key's preference list, one on the front end's own host first, so the
//! coordinator holds a replica (Dynamo's rule) and on a mesh is the
//! receiving host's own node. The number of concurrent requests it can carry
//! is bounded like a process pool: beyond `max_inflight`, requests are shed
//! with `503` (which is what flattens the latency curve in Fig. 13).

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

use mystore_net::{Context, NodeId, Process, TimerToken};
use mystore_obs::{Counter, Gauge, Registry};
use mystore_ring::HashRing;

use crate::auth::TokenStore;
use crate::config::{FrontendConfig, COST};
use crate::message::{status, Body, Method, Msg, RestRequest, RestResponse, StoreError};

const TK_DEADLINE: u64 = 1;

/// How many times a request is re-dispatched to the next member of its
/// key's preference list before it fails. A coordinator that goes silent
/// past the deadline (crashed or partitioned while the static upstream list
/// still names it) costs a re-dispatch, and so does one that answers a GET,
/// PUT or DELETE with a quorum or ring failure (up, but cut off from its
/// peers). Duplicate completions are harmless: writes are last-write-wins
/// and the first response to arrive wins.
const REDISPATCH_MAX: u32 = 1;

/// Longest key (bytes) accepted on the REST surface; longer keys are
/// rejected with `400` before anything is forwarded to storage.
const MAX_KEY_BYTES: usize = 1024;

fn tk_deadline(req: u64) -> TimerToken {
    (req << 3) | TK_DEADLINE
}

/// Replies to a request that was never admitted (no `Pending` entry to
/// route through [`Frontend::respond`]).
fn reply_now(ctx: &mut Context<'_, Msg>, client: NodeId, req: u64, status_code: u16, body: Body) {
    ctx.send(
        client,
        Msg::RestResp(RestResponse {
            req,
            status: status_code,
            body,
            assigned_key: None,
            from_cache: false,
        }),
    );
}

/// What a pending request is waiting on.
enum Phase {
    /// Waiting for the cache tier (GET only).
    CacheLookup,
    /// Waiting for the storage module.
    Store,
}

struct Pending {
    client: NodeId,
    client_req: u64,
    method: Method,
    key: String,
    /// The request payload, shared with every forward of this request (the
    /// front end never copies the bytes — see [`Body`]).
    body: Body,
    /// Parsed `If-Match` version predicate: `Some` routes the write as a
    /// CAS instead of a plain PUT.
    if_match: Option<u64>,
    assigned_key: Option<String>,
    phase: Phase,
    /// The coordinators to try, in order: the key's preference list, its
    /// members on this host first. Forward `k` goes to `route[k % len]`.
    route: Vec<NodeId>,
    redispatches: u32,
    /// When the current attempt's deadline expires (µs); a deadline timer
    /// armed for an earlier attempt fires before it and is ignored.
    deadline_us: u64,
    done: bool,
}

impl Pending {
    /// The coordinator the current attempt was forwarded to.
    fn coordinator(&self) -> Option<NodeId> {
        let slot = (self.redispatches as usize).checked_rem(self.route.len())?;
        self.route.get(slot).copied()
    }
}

/// Observability handles for front-end admission and cache routing.
/// Resolved from [`FrontendConfig::metrics`].
#[derive(Debug, Clone, Default)]
pub struct FrontendMetrics {
    /// Requests admitted past the process-pool bound.
    pub admitted: Counter,
    /// Requests shed with `503 Busy`.
    pub shed: Counter,
    /// Responses served from the cache tier.
    pub cache_hits: Counter,
    /// Requests rejected by signature verification.
    pub auth_failures: Counter,
    /// Requests that timed out inside the cluster.
    pub timeouts: Counter,
    /// Requests re-dispatched to the next preference-list member after
    /// their coordinator went silent or failed.
    pub redispatches: Counter,
    /// Requests currently in flight at this front end.
    pub inflight: Gauge,
}

impl FrontendMetrics {
    /// Resolves the standard `frontend.*` metric names in `registry`.
    pub fn from_registry(registry: &Registry) -> Self {
        FrontendMetrics {
            admitted: registry.counter("frontend.admitted"),
            shed: registry.counter("frontend.shed"),
            cache_hits: registry.counter("frontend.cache_hits"),
            auth_failures: registry.counter("frontend.auth_failures"),
            timeouts: registry.counter("frontend.timeouts"),
            redispatches: registry.counter("frontend.redispatches"),
            inflight: registry.gauge("frontend.inflight"),
        }
    }
}

/// The front-end process.
pub struct Frontend {
    cfg: FrontendConfig,
    /// Where keys live: built once from [`FrontendConfig::storage_nodes`].
    /// Only a hint — any storage node can coordinate any key, so a stale
    /// view costs the extra hop a non-replica coordinator takes.
    placement: HashRing<NodeId>,
    tokens: TokenStore,
    pending: BTreeMap<u64, Pending>,
    next_req: u64,
    metrics: FrontendMetrics,
}

impl Frontend {
    /// Creates a front end.
    pub fn new(cfg: FrontendConfig) -> Self {
        let metrics = FrontendMetrics::from_registry(&cfg.metrics);
        let mut placement = HashRing::new();
        for &node in &cfg.storage_nodes {
            // A duplicate entry is already on the ring.
            let _ = placement.add_node(node, format!("node{}", node.0), cfg.vnodes);
        }
        Frontend {
            cfg,
            placement,
            tokens: TokenStore::new(),
            pending: BTreeMap::new(),
            next_req: 1,
            metrics,
        }
    }

    /// Issues an auth token for `user` (test/deployment hook standing in
    /// for the paper's TOKEN DB web flow).
    pub fn issue_token(&mut self, user: &str) -> String {
        self.tokens.issue(user)
    }

    /// Requests currently in flight.
    pub fn inflight(&self) -> usize {
        self.pending.len()
    }

    fn fresh_req(&mut self) -> u64 {
        let r = self.next_req;
        self.next_req += 1;
        r
    }

    /// The coordinators for `key`, in the order a request tries them: its
    /// preference list, with the members on this host moved to the front.
    fn route(&self, key: &str) -> Vec<NodeId> {
        let mut route = self.placement.preference_list(key.as_bytes(), self.cfg.replicas);
        // A stable sort: each group keeps its preference-list order.
        route.sort_by_key(|node| !self.cfg.local_nodes.contains(node));
        route
    }

    /// Hash-routed cache server for `key` (§4: "load balances are based on
    /// the hash of resources' keys").
    fn cache_for(&self, key: &str) -> Option<NodeId> {
        if self.cfg.cache_nodes.is_empty() {
            return None;
        }
        let h = HashRing::<NodeId>::key_point(key.as_bytes());
        self.cfg.cache_nodes.get((h % self.cfg.cache_nodes.len() as u64) as usize).copied()
    }

    fn respond(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        req: u64,
        status_code: u16,
        body: Body,
        from_cache: bool,
    ) {
        let Some(p) = self.pending.get_mut(&req) else { return };
        if p.done {
            return;
        }
        p.done = true;
        ctx.record("fe_response", status_code as f64);
        ctx.send(
            p.client,
            Msg::RestResp(RestResponse {
                req: p.client_req,
                status: status_code,
                body,
                assigned_key: p.assigned_key.clone(),
                from_cache,
            }),
        );
        self.pending.remove(&req);
        self.metrics.inflight.set(self.pending.len() as i64);
    }

    fn on_rest(&mut self, ctx: &mut Context<'_, Msg>, client: NodeId, r: RestRequest) {
        // `GET /data/_stats` (`_` keys are reserved for diagnostics): the
        // cluster-wide metrics snapshot, served before admission control (it
        // must answer while the cluster sheds) and without auth.
        if r.method == Method::Get && r.key.as_deref() == Some("_stats") {
            ctx.consume(self.cfg.cpu_us);
            let body: Body = self.cfg.metrics.snapshot().to_pretty_string().into_bytes().into();
            reply_now(ctx, client, r.req, status::OK, body);
            return;
        }
        // Admission control (the spawn-fcgi process-pool bound). Shedding
        // happens before the request costs real CPU — like nginx returning
        // 503 from the listener without dispatching to a worker.
        if self.pending.len() >= self.cfg.max_inflight {
            ctx.consume(10);
            self.metrics.shed.inc();
            ctx.record("fe_shed", 1.0);
            reply_now(ctx, client, r.req, status::BUSY, Body::default());
            return;
        }
        ctx.consume(self.cfg.cpu_us + (r.body.len() as f64 / COST.frontend_bytes_per_us) as u64);
        // Authentication (Fig. 2) when configured.
        if let Some(auth_cfg) = &self.cfg.auth {
            let ok = match &r.auth {
                Some((user, sig)) => self.tokens.verify(auth_cfg, user, &r.uri(), sig),
                None => false,
            };
            if !ok {
                self.metrics.auth_failures.inc();
                reply_now(ctx, client, r.req, status::UNAUTHORIZED, Body::default());
                return;
            }
        }
        // A malformed request is answered `400` here and never reaches a
        // coordinator (the REST-conformance tests check this). DELETE must
        // address a key (§4).
        if r.method == Method::Delete && r.key.is_none() {
            reply_now(ctx, client, r.req, status::BAD_REQUEST, Body::default());
            return;
        }
        // Keys are bounded (they travel in every replica message).
        if r.key.as_ref().is_some_and(|k| k.len() > MAX_KEY_BYTES) {
            reply_now(ctx, client, r.req, status::BAD_REQUEST, Body::default());
            return;
        }
        // `If-Match` must be a decimal version, and only means something on
        // a keyed POST (a CAS needs an existing key to condition on; `0`
        // with a key states "create only if absent").
        let if_match = match &r.if_match {
            None => None,
            Some(raw) => match raw.trim().parse::<u64>() {
                Ok(v) if r.method == Method::Post && r.key.is_some() => Some(v),
                _ => {
                    reply_now(ctx, client, r.req, status::BAD_REQUEST, Body::default());
                    return;
                }
            },
        };
        self.metrics.admitted.inc();
        let req = self.fresh_req();
        // POST without key creates a new entry: assign a key (the paper
        // returns the generated key to the user).
        let (key, assigned_key) = match (&r.key, r.method) {
            (Some(k), _) => (k.clone(), None),
            (None, Method::Post) => {
                let k = format!("obj-{}-{}", ctx.id().0, req);
                (k.clone(), Some(k))
            }
            (None, _) => {
                reply_now(ctx, client, r.req, status::BAD_REQUEST, Body::default());
                return;
            }
        };
        let route = self.route(&key);
        let deadline_us = ctx.now().as_micros() + self.cfg.request_deadline_us;
        let mut pending = Pending {
            client,
            client_req: r.req,
            method: r.method,
            key: key.clone(),
            body: r.body,
            if_match,
            assigned_key,
            phase: Phase::Store,
            route,
            redispatches: 0,
            deadline_us,
            done: false,
        };
        ctx.set_timer(self.cfg.request_deadline_us, tk_deadline(req));
        match r.method {
            Method::Get => {
                // Cache first (§4): "GET operation locates unstructured data
                // with the key in cache or database".
                if let Some(cache) = self.cache_for(&key) {
                    pending.phase = Phase::CacheLookup;
                    self.pending.insert(req, pending);
                    ctx.send(cache, Msg::CacheGet { req, key });
                } else {
                    self.pending.insert(req, pending);
                    self.forward(ctx, req);
                }
            }
            Method::Post => {
                self.pending.insert(req, pending);
                self.forward(ctx, req);
            }
            Method::Delete => {
                // Invalidate the cache eagerly; the DB copy is tombstoned.
                if let Some(cache) = self.cache_for(&key) {
                    ctx.send(cache, Msg::CacheDel { key });
                }
                self.pending.insert(req, pending);
                self.forward(ctx, req);
            }
        }
        self.metrics.inflight.set(self.pending.len() as i64);
    }

    /// Sends `req` to its current coordinator ([`Pending::coordinator`]).
    /// With no storage node to send to, it fails with `500`.
    fn forward(&mut self, ctx: &mut Context<'_, Msg>, req: u64) {
        let Some(p) = self.pending.get(&req) else { return };
        let Some(node) = p.coordinator() else {
            self.respond(ctx, req, status::STORAGE_ERROR, Body::default(), false);
            return;
        };
        let key = p.key.clone();
        let msg = match (p.method, p.if_match) {
            (Method::Get, _) => Msg::Get { req, key },
            (Method::Post, Some(expected)) => {
                Msg::Cas { req, key, value: p.body.clone(), expected }
            }
            (Method::Post, None) => Msg::Put { req, key, value: p.body.clone(), delete: false },
            (Method::Delete, _) => Msg::Put { req, key, value: Body::default(), delete: true },
        };
        ctx.send(node, msg);
    }

    /// Re-dispatches `req` to the next member of its route, under a fresh
    /// deadline. Returns `false`, and sends nothing, once the request has
    /// used its [`REDISPATCH_MAX`] budget.
    fn redispatch(&mut self, ctx: &mut Context<'_, Msg>, req: u64) -> bool {
        let deadline_us = ctx.now().as_micros() + self.cfg.request_deadline_us;
        match self.pending.get_mut(&req) {
            Some(p) if p.redispatches < REDISPATCH_MAX => {
                p.redispatches += 1;
                p.phase = Phase::Store;
                p.deadline_us = deadline_us;
            }
            _ => return false,
        }
        self.metrics.redispatches.inc();
        ctx.record("fe_redispatch", 1.0);
        // A re-dispatched CAS keeps its predicate: if the silent
        // coordinator's write actually landed, the retry surfaces a 409
        // instead of double-applying.
        self.forward(ctx, req);
        ctx.set_timer(self.cfg.request_deadline_us, tk_deadline(req));
        true
    }

    /// A GET, PUT or DELETE whose coordinator answered `err`. A quorum or
    /// ring failure from the current coordinator goes on to the next
    /// preference-list member while the budget lasts; a late failure from
    /// an earlier coordinator is dropped, since the current attempt is
    /// still running.
    fn on_store_error(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: NodeId,
        req: u64,
        err: StoreError,
    ) {
        let Some(p) = self.pending.get(&req) else { return };
        if p.coordinator() != Some(from) {
            return;
        }
        let retryable = matches!(
            err,
            StoreError::QuorumReadFailed | StoreError::QuorumWriteFailed | StoreError::NoRing
        );
        if !(retryable && self.redispatch(ctx, req)) {
            self.respond(ctx, req, status::STORAGE_ERROR, Body::default(), false);
        }
    }
}

impl Process<Msg> for Frontend {
    fn on_start(&mut self, _ctx: &mut Context<'_, Msg>) {}

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::RestReq(r) => self.on_rest(ctx, from, r),
            Msg::TokenReq { req, user } => {
                // Fig. 2: the TOKEN DB issues a per-request token — but only
                // for users the deployment knows (i.e. with a secret).
                ctx.consume(self.cfg.cpu_us / 4);
                let token = match &self.cfg.auth {
                    Some(auth) if auth.secrets.contains_key(&user) => {
                        Some(self.tokens.issue(&user))
                    }
                    _ => None,
                };
                ctx.send(from, Msg::TokenResp { req, token });
            }
            Msg::CacheGetResp { req, value } => {
                // Response handling costs a fraction of the request cost
                // (unmarshal + forward).
                ctx.consume(self.cfg.cpu_us / 4);
                let Some(p) = self.pending.get_mut(&req) else { return };
                if !matches!(p.phase, Phase::CacheLookup) {
                    return;
                }
                match value {
                    Some(body) => {
                        self.metrics.cache_hits.inc();
                        self.respond(ctx, req, status::OK, body, true);
                    }
                    None => {
                        // Miss: "it will switch to database and the returned
                        // value will be inserted to cache" (§4).
                        p.phase = Phase::Store;
                        self.forward(ctx, req);
                    }
                }
            }
            Msg::GetResp { req, result } => {
                ctx.consume(self.cfg.cpu_us / 4);
                match result {
                    Ok(Some(body)) => {
                        if let Some(p) = self.pending.get(&req) {
                            let key = p.key.clone();
                            if let Some(cache) = self.cache_for(&key) {
                                ctx.send(cache, Msg::CachePut { key, value: body.clone() });
                            }
                        }
                        self.respond(ctx, req, status::OK, body, false);
                    }
                    Ok(None) => self.respond(ctx, req, status::NOT_FOUND, Body::default(), false),
                    Err(err) => self.on_store_error(ctx, from, req, err),
                }
            }
            Msg::PutResp { req, result } => {
                ctx.consume(self.cfg.cpu_us / 4);
                match result {
                    Ok(()) => {
                        let (st, key_body) = match self.pending.get(&req) {
                            Some(p) if p.method == Method::Post => {
                                // Successful write refreshes the cache (§4:
                                // items inserted/updated recently are cached).
                                let key = p.key.clone();
                                let body = p.body.clone();
                                if let Some(cache) = self.cache_for(&key) {
                                    ctx.send(
                                        cache,
                                        Msg::CachePut { key: key.clone(), value: body },
                                    );
                                }
                                (
                                    if p.assigned_key.is_some() {
                                        status::CREATED
                                    } else {
                                        status::OK
                                    },
                                    Body::default(),
                                )
                            }
                            _ => (status::OK, Body::default()),
                        };
                        self.respond(ctx, req, st, key_body, false);
                    }
                    Err(err) => self.on_store_error(ctx, from, req, err),
                }
            }
            Msg::CasResp { req, result } => {
                ctx.consume(self.cfg.cpu_us / 4);
                match result {
                    Ok(new_version) => {
                        // Same cache refresh as a plain write, and the new
                        // version goes back as the body — it is the caller's
                        // `If-Match` for the next conditional write.
                        if let Some(p) = self.pending.get(&req) {
                            let key = p.key.clone();
                            let body = p.body.clone();
                            if let Some(cache) = self.cache_for(&key) {
                                ctx.send(cache, Msg::CachePut { key, value: body });
                            }
                        }
                        let body: Body = new_version.to_string().into_bytes().into();
                        self.respond(ctx, req, status::OK, body, false);
                    }
                    Err(StoreError::CasConflict(actual)) => {
                        // `409`: the predicate lost; the body carries the
                        // version actually present so the caller can re-read
                        // or retry against it.
                        let body: Body = actual.to_string().into_bytes().into();
                        self.respond(ctx, req, status::CONFLICT, body, false);
                    }
                    Err(_) => self.respond(ctx, req, status::STORAGE_ERROR, Body::default(), false),
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, token: TimerToken) {
        if token & 0b111 == TK_DEADLINE {
            let req = token >> 3;
            // A timer armed for an earlier attempt: the current one has a
            // later deadline and its own timer.
            match self.pending.get(&req) {
                Some(p) if ctx.now().as_micros() >= p.deadline_us => {}
                _ => return,
            }
            // The coordinator (or cache server) went silent: try the next
            // member of the route before surfacing a timeout.
            if !self.redispatch(ctx, req) {
                self.metrics.timeouts.inc();
                ctx.record("fe_timeout", 1.0);
                self.respond(ctx, req, status::TIMEOUT, Body::default(), false);
            }
        }
    }

    fn quiescent(&self) -> bool {
        // Every admitted request is in `pending` until its response is sent
        // (or its deadline fires); a graceful drain waits them out.
        self.pending.is_empty()
    }
}
