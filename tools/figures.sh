#!/usr/bin/env bash
# Figure digests: run every figure, table, ablation and extra that
# `c3-figures --list` names (c3-bench's one binary) at C3_SCALE=quick
# C3_RUNS=1 and print one `sha256  <name>` line per figure, sorted by name
# (the SHA-256 of `c3-figures <name>`'s stdout, which carries no
# wall-clock).
#
#   tools/figures.sh            print the table (≈ 40 s on 2 vCPU after the
#                               release build)
#   tools/figures.sh --check    compare against the committed
#                               crates/c3-bench/FIGURES.sha256, name the
#                               figures whose output differs, exit 1 if any
#
# To regenerate the committed table after a declared behaviour change:
#   tools/figures.sh > crates/c3-bench/FIGURES.sha256
#
# Nothing is written inside the checkout except cargo's build output
# under $CARGO_TARGET_DIR (default target/).
set -euo pipefail

cd "$(dirname "$0")/.."
root=$PWD
table=crates/c3-bench/FIGURES.sha256

check=0
case "${1:-}" in
  "") ;;
  --check) check=1 ;;
  *) echo "usage: tools/figures.sh [--check]" >&2; exit 2 ;;
esac

target=${CARGO_TARGET_DIR:-$root/target}
case $target in /*) ;; *) target=$root/$target ;; esac

cargo build --release --quiet -p c3-bench >&2
figures=$target/release/c3-figures
mapfile -t names < <("$figures" --list | LC_ALL=C sort)

digests() {
  for name in "${names[@]}"; do
    sum=$(C3_SCALE=quick C3_RUNS=1 "$figures" "$name" | sha256sum)
    echo "${sum%% *}  $name"
  done
}

if [ "$check" = 0 ]; then
  digests
  exit 0
fi

[ -f "$table" ] || { echo "figures: $table is missing" >&2; exit 1; }
differ=()
while read -r sum name; do
  want=$(awk -v n="$name" '$2 == n { print $1 }' "$table")
  if [ "$sum" != "$want" ]; then differ+=("$name"); fi
done < <(digests)
if [ "${#differ[@]}" -gt 0 ]; then
  echo "figures: output differs from $table in: ${differ[*]}" >&2
  exit 1
fi
echo "figures: all ${#names[@]} figures match $table"
