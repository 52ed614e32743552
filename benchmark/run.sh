#!/usr/bin/env bash
# Build the product and the benchmark, then run the benchmark.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload in a fresh process (the form BENCHMARK.json's command
#       takes); the last line of stdout is the result object
#   benchmark/run.sh [--seed N] [--seconds S] [--traced]
#       every workload in turn, each in a fresh process
#   benchmark/run.sh --check
#       every workload at 1/10 scale, both trace modes, validating names,
#       units and counts against BENCHMARK.json, and that simulated
#       results repeat exactly for a seed
#   benchmark/run.sh --sweep DIR [--seeds "1 2 ..."] [--workloads "a b"]
#       ten seeds per workload into DIR (one result line per run)
#   benchmark/run.sh --compare A B
#       two sweeps side by side: medians, delta, bound, spread
#
# Everything it writes stays inside the checkout: build output under
# $CARGO_TARGET_DIR (default benchmark/target), results and the node
# fleet's temp files under benchmark/out.
set -euo pipefail

cd "$(dirname "$0")/.."
root=$PWD

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/benchmark/target}"
case $CARGO_TARGET_DIR in /*) ;; *) CARGO_TARGET_DIR=$root/$CARGO_TARGET_DIR ;; esac
# The node fleet writes its config files to the temp dir; keep them here.
export TMPDIR="$root/benchmark/out/tmp"
mkdir -p "$TMPDIR"

if [ "${1:-}" = "--compare" ]; then
    exec python3 benchmark/tools.py compare "${@:2}"
fi

# The node binary comes from the product's own workspace, the benchmark
# from its own package; both with the root's release profile (the binary
# refuses to run if the two manifests' profiles differ). Build chatter
# goes to stderr so stdout ends with the result line.
cargo build --release --offline -p c3-live-node --bin c3-live-node >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
export C3_NODE_BIN="$CARGO_TARGET_DIR/release/c3-live-node"
bench="$CARGO_TARGET_DIR/release/c3-benchmark"

case "${1:-}" in
    --check) exec python3 benchmark/tools.py check "$bench" ;;
    --sweep) exec python3 benchmark/tools.py sweep "$bench" "${@:2}" ;;
esac
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bench" "$@"
    fi
done
exec python3 benchmark/tools.py all "$bench" "$@"
