//! Conditional put — CAS on the record's LWW version — as a quorum read
//! chained into a quorum write, each an ordinary driver entry:
//!
//! 1. **predicate check** — a quorum read at `R' = max(R, N-W+1)`. `R'`
//!    overlaps every write quorum (`R' + W > N`), so the reply set is
//!    guaranteed to contain the latest *acknowledged* write and the
//!    predicate is evaluated against it (a plain `R`-read could miss it
//!    when `R + W == N`... the paper's default `(3,2,1)` reads one replica).
//!    The version check itself ([`mystore_engine::cas_version_check`])
//!    lives in the engine next to `wins_over`, keyed on the same packed
//!    LWW stamp.
//! 2. **write** — on a match, a normal quorum write of the freshly
//!    versioned record ([`super::put::WriteReply::Cas`] routes the reply
//!    and metrics back to CAS).
//!
//! A mismatch answers [`StoreError::CasConflict`] carrying the actual
//! version, which the REST tier maps to `409 Conflict`. Note the predicate
//! is checked against the read round, not under a lock: two CAS racing on
//! the same key can both pass the check and then resolve by LWW — the
//! returned versions tell the callers who won. Failure of either phase's
//! quorum reports `cas.failed`, never a silent partial write.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use mystore_engine::cas_version_check;
use mystore_net::{Context, NodeId};

use crate::message::{Body, Msg, StoreError};
use crate::storage_node::StorageNode;

use super::driver::Pending;
use super::get::{ReadOp, ReadPurpose};
use super::put::WriteReply;

impl StorageNode {
    /// Coordinator entry point for a conditional put.
    pub(crate) fn start_cas(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        caller: NodeId,
        caller_req: u64,
        key: String,
        value: Body,
        expected: u64,
    ) {
        self.metrics.cas_started.inc();
        let n = self.cfg.nwr.n;
        let prefs = self.ring.preference_list(key.as_bytes(), n);
        if prefs.is_empty() {
            ctx.send(caller, Msg::CasResp { req: caller_req, result: Err(StoreError::NoRing) });
            return;
        }
        // The write-overlapping read quorum (see module docs).
        let read_quorum = self.cfg.nwr.r.max(n - self.cfg.nwr.w + 1);
        let purpose = ReadPurpose::Cas { value, expected, cas_started_us: ctx.now().as_micros() };
        self.start_read(ctx, caller, caller_req, key, prefs, read_quorum, purpose);
    }

    /// The predicate-check read met its quorum: evaluate the version check
    /// against the LWW winner and either reject with the actual version or
    /// chain into the write phase.
    pub(crate) fn cas_read_decided(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        p: &Pending,
        op: &ReadOp,
    ) {
        let ReadPurpose::Cas { ref value, expected, cas_started_us } = op.purpose else { return };
        match cas_version_check(op.newest(), expected) {
            Err(actual) => {
                self.metrics.cas_conflicts.inc();
                self.metrics
                    .cas_latency_us
                    .record(ctx.now().as_micros().saturating_sub(cas_started_us));
                ctx.record("cas_conflict", 1.0);
                ctx.send(
                    p.caller,
                    Msg::CasResp {
                        req: p.caller_req,
                        result: Err(StoreError::CasConflict(actual)),
                    },
                );
            }
            Ok(()) => {
                let n = self.cfg.nwr.n;
                let prefs = self.ring.preference_list(op.key.as_bytes(), n);
                if prefs.is_empty() {
                    ctx.send(
                        p.caller,
                        Msg::CasResp { req: p.caller_req, result: Err(StoreError::NoRing) },
                    );
                    return;
                }
                let record = self.build_record(ctx, op.key.clone(), value.clone(), false);
                self.start_write(
                    ctx,
                    p.caller,
                    p.caller_req,
                    prefs,
                    record,
                    WriteReply::Cas { cas_started_us },
                );
            }
        }
    }

    /// The CAS write phase reached `W`: answer with the new version (the
    /// caller's predicate for its next CAS).
    pub(crate) fn cas_write_succeeded(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        p: &Pending,
        new_version: u64,
        cas_started_us: u64,
    ) {
        self.metrics.cas_ok.inc();
        self.metrics.cas_latency_us.record(ctx.now().as_micros().saturating_sub(cas_started_us));
        ctx.record("cas_ok", 1.0);
        ctx.send(p.caller, Msg::CasResp { req: p.caller_req, result: Ok(new_version) });
    }

    /// Either CAS phase missed its quorum deadline.
    pub(crate) fn cas_deadline_failed(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        p: &Pending,
        err: StoreError,
    ) {
        self.metrics.cas_failed.inc();
        ctx.record("cas_fail", 1.0);
        ctx.send(p.caller, Msg::CasResp { req: p.caller_req, result: Err(err) });
    }
}
