#!/usr/bin/env bash
# Runs every experiment bin; each writes its JSON into results/.
#
#   scripts/run_experiments.sh                run each bin with `cargo run`
#   scripts/run_experiments.sh --check [REF]  build the release bins once,
#       run each from a fresh scratch directory (outside cargo the bins
#       write ./results there) and diff every JSON file it wrote against
#       REF, by default the committed results/
#
# Every bin runs even when an earlier one fails. The script exits non-zero
# at the end if a bin failed or, with --check, a file differs, and names
# them.
set -uo pipefail
cd "$(dirname "$0")/.."
BINS="table2 fig11 fig12 fig13 fig14 fig15 fig16 fig17 soak ablate_vnodes ablate_remap ablate_nwr ablate_handoff ablate_cache ablate_gossip ablate_antientropy"

check=0
ref="$PWD/results"
case "${1:-}" in
    "") ;;
    --check)
        check=1
        if [ -n "${2:-}" ]; then ref="$(cd "$2" && pwd)" || exit 2; fi
        ;;
    *)
        echo "usage: $0 [--check [REF]]" >&2
        exit 2
        ;;
esac

if [ "$check" = 1 ]; then
    cargo build --release -q -p mystore-bench --bins || exit 1
    bins="${CARGO_TARGET_DIR:-target}/release"
    case "$bins" in /*) ;; *) bins="$PWD/$bins" ;; esac
    scratch="$(mktemp -d)"
    trap 'rm -rf "$scratch"' EXIT
fi

failed=()
differ=()
for bin in $BINS; do
    echo "=== running $bin ==="
    if [ "$check" = 0 ]; then
        cargo run --release -q -p mystore-bench --bin "$bin" || failed+=("$bin")
        continue
    fi
    dir="$scratch/$bin"
    mkdir -p "$dir"
    (cd "$dir" && env -u CARGO_MANIFEST_DIR "$bins/$bin") || failed+=("$bin")
    for out in "$dir"/results/*.json; do
        [ -e "$out" ] || continue
        name="$(basename "$out")"
        if cmp -s "$ref/$name" "$out"; then
            echo "  identical: $name"
        else
            echo "  DIFFERS:   $name"
            differ+=("$name")
        fi
    done
done

status=0
if [ "${#failed[@]}" -gt 0 ]; then
    echo "failed bins: ${failed[*]}"
    status=1
fi
if [ "${#differ[@]}" -gt 0 ]; then
    echo "differ from $ref: ${differ[*]}"
    status=1
fi
if [ "$status" = 0 ]; then
    echo "all experiments done"
fi
exit "$status"
