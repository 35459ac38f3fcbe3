//! The coordinator side of the storage node: the quorum engine and the
//! operations it drives.
//!
//! * [`driver`] — the pending table's lifecycle: replica reply dedup,
//!   bounded retry with exponential backoff/jitter, divert-to-handoff on
//!   exhaustion, quorum accounting against `W`/`R`, and the hard request
//!   deadline.
//! * [`put`] — the quorum write (PUT/DELETE fan-out, ack accounting,
//!   hinted-handoff diversion, fallback selection).
//! * [`get`] — the quorum read (reply collection, LWW winner, read
//!   repair / replica supplementation).
//! * [`cas`] — conditional put: a read at `max(R, N-W+1)` evaluating the
//!   version predicate, chained into a normal quorum write.

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
