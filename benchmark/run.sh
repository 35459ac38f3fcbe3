#!/usr/bin/env bash
# Builds the benchmark and runs it pinned to one CPU.
#
#   benchmark/run.sh                  both passes of all four workloads
#   benchmark/run.sh run all --quick  the same in a few seconds each (smoke)
#   benchmark/run.sh compare A B      deltas of two result files vs bounds
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Why one CPU: the cluster is ~30 threads passing every request through
# six or more hand-offs. On a small shared VM a hand-off that crosses
# virtual CPUs costs an inter-processor interrupt whose price swings with
# the host's load; measured here, closed-loop throughput then moves by 2x
# from one second to the next. On one CPU the same run repeats within a
# few percent (and is faster). The build is not pinned.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR is relative to the caller's directory, for
# cargo and for us alike.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/mystore-benchmark"

[ $# -gt 0 ] || set -- run all

# The first CPU this process may run on.
cpu="$(awk '/^Cpus_allowed_list:/ { split($2, a, /[,-]/); print a[1] }' /proc/self/status)"
if command -v taskset >/dev/null && [ -n "$cpu" ]; then
    exec taskset -c "$cpu" "$bin" "$@"
fi
echo "run.sh: no taskset; running unpinned, expect noisy numbers" >&2
exec "$bin" "$@"
