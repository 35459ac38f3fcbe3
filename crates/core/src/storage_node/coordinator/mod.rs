//! The coordinator side of the storage node: the generic quorum engine and
//! the thin operation definitions that ride on it.
//!
//! * [`quorum`] (the [`driver`] module) — the op-agnostic machinery: the
//!   pending table, replica reply dedup, bounded retry with exponential
//!   backoff/jitter, divert-to-handoff on exhaustion, quorum accounting
//!   against `W`/`R`, and the hard request deadline.
//! * [`put`] — the quorum-write op (PUT/DELETE fan-out, hinted-handoff
//!   diversion policy, fallback selection).
//! * [`get`] — the quorum-read op (reply collection, LWW winner, read
//!   repair / replica supplementation).
//! * [`cas`] — conditional put: a read phase at `max(R, N-W+1)` evaluating
//!   the version predicate, chained into a normal quorum write. The whole
//!   op is ~100 lines because both phases reuse the generic driver.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub(crate) mod cas;
pub(crate) mod driver;
pub(crate) mod get;
pub(crate) mod put;

/// The public name of the engine: `coordinator::quorum::Driver`.
pub(crate) use driver as quorum;
