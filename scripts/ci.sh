#!/usr/bin/env bash
# Repo CI gate: formatting, lints, and the full workspace test suite.
# Run from the repo root. Fails fast on the first broken stage. Every
# cargo clippy, test and run command passes `--locked`, so a dependency
# edit that would rewrite a `Cargo.lock` fails here instead of changing
# the lock silently.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> source rules (tests/source_rules.rs)"
# The determinism contract's text rules that no compiler lint covers
# (DESIGN.md §10): justified atomics orderings in obs, metric-name
# prefixes and uniqueness, the 600-line file budget, forbid(unsafe_code)
# in every crate root, plus drift guards that keep each crate's
# clippy.toml and the hot-path deny attributes in step with the scope
# tables. Clippy enforces the rest in the next stage.
cargo test --locked --test source_rules -q

echo "==> cargo clippy --locked --workspace --all-targets -- -D warnings"
# Clippy holds the rest of the determinism contract (DESIGN.md §10): each
# crate's clippy.toml bans the wall clock and hash-ordered collections,
# hot-path files deny the panic lints, and every allow must give a reason.
cargo clippy --locked --workspace --all-targets -- -D warnings

echo "==> rustdoc (warnings denied)"
# Every intra-doc link must resolve, so deleting or renaming an item
# cannot leave the docs pointing at it.
RUSTDOCFLAGS="-D warnings" cargo doc --locked --workspace --no-deps

echo "==> cargo test --locked --workspace -q"
cargo test --locked --workspace -q

echo "==> quorum engine (driver goldens, CAS, schedule lock)"
# The PR-5 refactor contract: the generic quorum driver must replay the
# pre-refactor retry/backoff schedule bit-identically (quorum_golden) and
# serve CAS through the same engine (rest_frontend/chaos cas tests).
cargo test --locked -p mystore-core quorum -q

echo "==> durable format (WAL golden, CRC kernel, in-place reader)"
# The engine stores each record as the bytes its WAL frame logged. The
# golden freezes those bytes (one hex frame per sample op, written by the
# engine before it logged in place; never regenerate it to pass), the CRC
# property test holds the slice-by-16 kernel to a bitwise reference at
# every alignment, and the raw-reader property test feeds RawDocument
# random, truncated and flipped bytes.
cargo test --locked -p mystore-engine --test wal_golden -q
cargo test --locked -p mystore-engine --test prop_crc -q
cargo test --locked -p mystore-bson --test prop_raw -q

echo "==> chaos suite (fixed seed)"
cargo test --locked -p mystore-core --test chaos -q
cargo run --locked --release -p mystore-bench --bin chaos -- 42

echo "==> real-transport runtime (threaded integration)"
# The PR-6 production runtime: the threaded-cluster flow as tests (bounded
# convergence polling, mid-run node kill, graceful drain + WAL durability).
# The binary wire path over real TCP sockets is the benchmark's
# `wire_pipelined` quick pass at the end of this script; `mesh_latency`
# checks that fixed-size replication frames on a 3-node TCP mesh do not
# wait on delayed ACKs (`TCP_NODELAY`, one write per drained batch);
# `mesh_threads` checks the mesh's thread inventory: no routing pump, one
# peer writer per remote host, none left after `Host::shutdown`.
cargo test --locked --test threaded_cluster -q
cargo test --locked -p mystore-serverd --test mesh_latency -q
cargo test --locked -p mystore-serverd --test mesh_threads -q
# Each mesh host's own node coordinates every request its frontend receives.
cargo test --locked -p mystore-serverd --test mesh_local_first -q

echo "==> examples (each asserts its flow and prints \"... OK\")"
# Nothing else runs the examples, and quickstart and failure_drill print
# counters read from the sim trace, so a change that breaks an example's
# flow or its accounting fails here.
for example in quickstart failure_drill embedded_db veepalms threaded_cluster; do
    cargo run --locked --release -q --example "$example"
done

echo "==> scenario-matrix smoke (idle-clock fast-forward + chaos invariants)"
# The PR-7 matrix runner: a 25-node, 1-virtual-hour kill cell must finish
# with 0 client errors and no acked-write loss (full sweep: --bin matrix).
rm -f results/BENCH_PR7_SMOKE.json
cargo run --locked --release -p mystore-bench --bin matrix -- --smoke
test -s results/BENCH_PR7_SMOKE.json || { echo "matrix smoke wrote no JSON"; exit 1; }
rm -f results/BENCH_PR7_SMOKE.json

echo "==> anti-entropy sync suite (Merkle exchange + regression tests)"
# The PR-8 sync work: Merkle convergence/determinism tests (digest
# traffic bounded by the divergence, not the corpus), the
# resurrection-after-reap regression and the rebalance fan-out bound.
# The tree's leaves are range scans of the ring-ordered store and only
# their hashes are cached; the leaf-cache test drives every write path
# and holds each cached hash to a fresh hash of the store.
cargo test --locked -p mystore-core --test anti_entropy --test merkle_sync --test rebalance -q
cargo test --locked -p mystore-core --lib cached_leaf_hashes_always_hash_the_store -q

echo "==> online elasticity (migration engine + weighted placement)"
# The PR-10 elasticity work: the incremental, rate-limited migration
# engine's test suite (per-tick budget bound, crash-resume from the
# persisted cursor, dual-ownership reads, weighted placement, a join
# under write load with anti-entropy running beside it), then the
# cluster-doubling smoke bench at the default budgets — 0 client errors,
# 0 acked-write loss, corpus fully replicated on the new weighted ring
# (full figure: --bin bench_elastic without --smoke).
cargo test --locked -p mystore-core --test elastic -q
rm -f results/BENCH_PR10_SMOKE.json
cargo run --locked --release -p mystore-bench --bin bench_elastic -- --smoke
test -s results/BENCH_PR10_SMOKE.json || { echo "elastic smoke wrote no JSON"; exit 1; }
rm -f results/BENCH_PR10_SMOKE.json

echo "==> real-runtime benchmark harness (own tests + quick pass of every workload)"
# The PR-11 benchmark is a standalone package (own workspace and lock, so
# `cargo test --workspace` above does not reach it). Its unit tests cover
# the generator, recorder and manifest; the quick pass boots the default
# node on the real TCP runtime under all four workloads and exits non-zero
# on a failed operation or an open loop that fell behind its schedule — so
# a default flip that breaks or badly slows the harness fails here.
# `run.sh` builds without `--locked`; the locked test build before it is
# what keeps a dependency edit in a crate the benchmark builds from
# rewriting `benchmark/Cargo.lock`.
cargo test --locked --manifest-path benchmark/Cargo.toml -q
bash benchmark/run.sh run all --quick

echo "CI OK"
