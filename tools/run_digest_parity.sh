#!/usr/bin/env bash
# Digest parity across revisions (docs/CORRECTNESS.md#digest-parity-across-revisions):
# builds <base-rev> and the working tree, both in Release, runs the same
# deterministic outputs on each, and exits 1 on any difference. The outputs:
#   - fleet_study checkpoint mode in the soak's plain, --chaos and
#     --chaos --rollout modes at three seeds: its stdout (event_digest=,
#     streamed_digest=, replayed_digest=) and every checkpoint file;
#   - fleet_study --policy-rollout=demo --colocate (the colocated fast path);
#   - fleet_study with no flags (its catalog-scan mode);
#   - examples/offload_whatif 10 (every tax profile over the catalog);
#   - examples/chaos_study at CI's seeds 1 and 7, the only program that
#     builds a Channel (picks, outlier ejection, the channel's call defaults);
#   - the stdout of all 23 figure rows, Table 1 included: the scan-fed ones
#     (FleetSampler draws, the scan and the analyzers), the RunServiceStudy
#     ones (fig14 to fig19: the single-domain DES, its arrival processes and
#     pricing), the growth model, call-tree shapes and load balancing;
#   - the stdout of calibration_report and of ext_minifleet (the
#     single-domain RunMiniFleet; every fleet_study run above uses 8 shards).
# A change that keeps "every digest unchanged" runs it against its parent.
# The DES figures make it slow: about 12 minutes on a 4-core host, builds
# included.
#
# A tree with bench/figures.cc prints figure NAME with
# `rpcscope_figures --fig=NAME`; an older tree has one binary per figure,
# named NAME. Either way the output lands in NAME.txt, so the two revisions
# compare across the rename. The per-figure branch can go once no base
# revision predates the driver.
#
# On a difference it prints one line per differing output (a file, or a
# checkpoint directory with its count of differing files), then the first 60
# lines of `diff -r`.
#
# Usage: tools/run_digest_parity.sh <base-rev>
# Both builds and all outputs go in a temporary directory under TMPDIR
# (default /tmp), removed on exit.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <base-rev>" >&2
  exit 2
fi

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
SEEDS="5 11 23"
FIGURES=(fig01_growth fig02_latency fig03_popularity fig04_descendants fig05_ancestors fig06_sizes
         fig07_ratio fig08_services table1_services fig10_tax fig11_taxratio fig12_network
         fig13_queuing fig14_breakdown fig15_whatif fig16_clusters fig17_exogenous fig18_diurnal
         fig19_crosscluster fig20_cycletax fig21_cycles fig22_loadbalance fig23_errors)
BENCH_BINS=(calibration_report ext_minifleet)

if ! BASE_SHA="$(git -C "$ROOT" rev-parse --verify --quiet "$1^{commit}")"; then
  echo "ERROR: '$1' is not a commit in $ROOT" >&2
  exit 2
fi

WORK="$(cd "$(mktemp -d "${TMPDIR:-/tmp}/digest-parity.XXXXXX")" && pwd)"
trap 'rm -rf "$WORK"' EXIT

# The base tree is exported with git archive rather than checked out as a
# worktree, so an interrupted run leaves nothing registered in the repo.
mkdir "$WORK/base-src"
git -C "$ROOT" archive "$BASE_SHA" | tar -x -C "$WORK/base-src"

# has_driver <source-dir>: whether the tree builds rpcscope_figures.
has_driver() {
  [[ -f "$1/bench/figures.cc" ]]
}

# build <source-dir> <build-dir>
build() {
  echo "building $1 (Release) ..."
  local targets=(fleet_study offload_whatif chaos_study "${BENCH_BINS[@]}")
  if has_driver "$1"; then
    targets+=(rpcscope_figures)
  else
    targets+=("${FIGURES[@]}")
  fi
  if ! { cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$2" -j"$(nproc)" --target "${targets[@]}"; } >"$2.log" 2>&1; then
    tail -n 30 "$2.log" >&2
    echo "ERROR: build of $1 failed" >&2
    exit 1
  fi
}

# run_outputs <source-dir> <build-dir> <out-dir>: every output lands under
# <out-dir> with the same relative names, so one diff -r compares the two
# revisions. A non-zero exit is recorded in the output rather than aborting
# the run.
run_outputs() {
  local src="$1" bin="$2" out="$3"
  mkdir -p "$out"
  cd "$out"
  for mode in plain chaos rollout; do
    local flags=()
    [[ "$mode" == "chaos" ]] && flags=(--chaos)
    [[ "$mode" == "rollout" ]] && flags=(--chaos --rollout)
    for seed in $SEEDS; do
      local name="fleet-$mode-seed$seed"
      "$bin/examples/fleet_study" --checkpoint-dir="$name.ckpt" --checkpoint-every=250 \
        --duration-ms=2000 --workers=2 --seed="$seed" ${flags[@]+"${flags[@]}"} \
        >"$name.txt" 2>&1 || echo "exit=$?" >>"$name.txt"
    done
  done
  "$bin/examples/fleet_study" --policy-rollout=demo --colocate >policy_rollout_colocate.txt 2>&1 ||
    echo "exit=$?" >>policy_rollout_colocate.txt
  "$bin/examples/fleet_study" >fleet_scan.txt 2>&1 || echo "exit=$?" >>fleet_scan.txt
  "$bin/examples/offload_whatif" 10 >offload_whatif.txt 2>&1 || echo "exit=$?" >>offload_whatif.txt
  for seed in 1 7; do
    "$bin/examples/chaos_study" "$seed" >"chaos_study-seed$seed.txt" 2>&1 ||
      echo "exit=$?" >>"chaos_study-seed$seed.txt"
  done
  for fig in "${FIGURES[@]}"; do
    if has_driver "$src"; then
      "$bin/bench/rpcscope_figures" --fig="$fig" >"$fig.txt" 2>&1 || echo "exit=$?" >>"$fig.txt"
    else
      "$bin/bench/$fig" >"$fig.txt" 2>&1 || echo "exit=$?" >>"$fig.txt"
    fi
  done
  for b in "${BENCH_BINS[@]}"; do
    "$bin/bench/$b" >"$b.txt" 2>&1 || echo "exit=$?" >>"$b.txt"
  done
  cd - >/dev/null
}

# Prints one line per top-level output that differs between the two runs:
# a file, or a directory with the number of files under it that differ.
list_differing_outputs() {
  { diff -rq "$WORK/out-base" "$WORK/out-head" || true; } |
    sed -E -e "s#^Files $WORK/out-base/(.*) and $WORK/out-head/.* differ\$#\1#" \
      -e "s#^Only in $WORK/out-[a-z]+/?(.*): (.*)\$#\1/\2#" -e 's#^/##' |
    awk -F/ '{ n[$1]++ } END { for (top in n) print top, n[top] }' | sort |
    while read -r top count; do
      if [[ -d "$WORK/out-base/$top" || -d "$WORK/out-head/$top" ]]; then
        echo "  $top/ (differing files: $count)"
      else
        echo "  $top"
      fi
    done
}

# Prints "event_digest streamed_digest" from a fleet_study run's output.
digests() {
  awk -F= '/^event_digest=/ {e=$2} /^streamed_digest=/ {s=$2} END {print e, s}' "$1"
}

build "$WORK/base-src" "$WORK/base-build"
build "$ROOT" "$WORK/head-build"
echo "running outputs ..."
run_outputs "$WORK/base-src" "$WORK/base-build" "$WORK/out-base"
run_outputs "$ROOT" "$WORK/head-build" "$WORK/out-head"

echo "fleet_study digests, event streamed (base ${BASE_SHA:0:12} | working tree):"
for f in "$WORK"/out-base/fleet-*.txt; do
  name="$(basename "$f" .txt)"
  printf '  %-24s %s | %s\n' "$name" "$(digests "$f")" "$(digests "$WORK/out-head/$name.txt")"
done

if diff -r "$WORK/out-base" "$WORK/out-head" >"$WORK/diff.txt"; then
  echo "PASS: every output identical to ${BASE_SHA:0:12}"
  exit 0
fi
echo "outputs that differ:"
list_differing_outputs
head -n 60 "$WORK/diff.txt"
echo "FAIL: outputs differ from ${BASE_SHA:0:12} (list and first 60 diff lines above)" >&2
exit 1
