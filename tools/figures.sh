#!/usr/bin/env bash
# Figure digests: run every figure, table, ablation and extra bin of
# c3-bench at C3_SCALE=quick C3_RUNS=1 and print one `sha256  <bin>` line
# per bin (the SHA-256 of the bin's stdout, which carries no wall-clock).
#
#   tools/figures.sh            print the table (≈ 40 s on 2 vCPU after the
#                               release build)
#   tools/figures.sh --check    compare against the committed
#                               crates/c3-bench/FIGURES.sha256, name the
#                               bins whose output differs, exit 1 if any
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

bins=(
  ablation_components ablation_params
  extra_skewed_records extra_speculative_retry
  fig01_lor_vs_ideal fig02_ds_oscillation fig04_scoring_functions
  fig05_cubic_rate_curve fig06_latency_profiles fig08_load_conditioning
  fig10_higher_utilization fig11_dynamic_workload fig12_ssd
  fig13_rate_adaptation fig14_fluctuation_sweep fig15_demand_skew
  table1_selection_landscape
)

target=${CARGO_TARGET_DIR:-$root/target}
case $target in /*) ;; *) target=$root/$target ;; esac

build=(cargo build --release --quiet -p c3-bench)
for bin in "${bins[@]}"; do build+=(--bin "$bin"); done
"${build[@]}" >&2

digests() {
  for bin in "${bins[@]}"; do
    sum=$(C3_SCALE=quick C3_RUNS=1 "$target/release/$bin" | sha256sum)
    echo "${sum%% *}  $bin"
  done
}

if [ "$check" = 0 ]; then
  digests
  exit 0
fi

[ -f "$table" ] || { echo "figures: $table is missing" >&2; exit 1; }
differ=()
while read -r sum bin; do
  want=$(awk -v b="$bin" '$2 == b { print $1 }' "$table")
  if [ "$sum" != "$want" ]; then differ+=("$bin"); fi
done < <(digests)
if [ "${#differ[@]}" -gt 0 ]; then
  echo "figures: output differs from $table in: ${differ[*]}" >&2
  exit 1
fi
echo "figures: all ${#bins[@]} bins match $table"
