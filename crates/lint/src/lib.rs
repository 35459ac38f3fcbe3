//! `mystore-lint`: an in-tree static-analysis pass for the mystore
//! workspace.
//!
//! The build container has no crates.io access, so instead of syn/loom/
//! cargo-deny this crate carries a small hand-rolled Rust lexer
//! ([`lexer`]) and a token-sequence rule engine ([`rules`]) scoped by a
//! per-crate policy table ([`policy`]). It enforces the determinism and
//! availability contracts the chaos suite depends on:
//!
//! * `no-wall-clock` — sim-deterministic crates must not read OS time
//! * `no-unordered-iter` — no `HashMap`/`HashSet` where iteration order
//!   could feed the message schedule
//! * `no-panic-hot-path` — coordinator/WAL hot paths must not panic
//! * `atomics-ordering` — every `Ordering::*` in `mystore-obs` carries a
//!   `// ordering:` justification
//! * `metrics-hygiene` — metric names registered once, correct prefix
//! * `forbid-unsafe` — crate roots carry `#![forbid(unsafe_code)]`
//! * `max-file-lines` — a per-file budget on non-test lines
//!
//! The wire format is checked by tests, not here: `mystore-serverd`'s
//! codec tests hold an append-only byte golden of every message and sweep
//! forged counts. The threaded runtime's lock discipline is a single mutex
//! (DESIGN.md §12).
//!
//! Escapes: a `lint:allow` comment naming the rule, followed by a `:`
//! and a justification, on the finding's line or the line above; the
//! `-file` variant covers the whole file. A missing justification is
//! itself a diagnostic. (Spelled out in `--list-rules` — the literal
//! syntax is avoided here so the linter does not parse its own docs.)

#![forbid(unsafe_code)]

pub mod lexer;
pub mod policy;
pub mod rules;

pub use rules::{lint_file, run_workspace, Diagnostic, MetricsIndex, RULES};
