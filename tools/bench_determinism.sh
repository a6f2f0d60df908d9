#!/usr/bin/env bash
# Determinism check for the four gated benches. Each runs with the flags
# that produce its checked-in BENCH_*.json baseline: twice on all cores
# (runs a and b) and once pinned to one core (run c). Every gated metric
# must come out identical: `benchdiff --tolerance 0` must pass for a vs b
# and a vs c, in both directions (a gate only fails one direction, so a
# difference either way shows up in one of the two).
#
#   tools/bench_determinism.sh [build-dir] [out-dir]
#
# build-dir defaults to ./build (a Release build with the bench_* targets
# and benchdiff); out-dir defaults to a fresh temporary directory and keeps
# every report and diff table. Exits 0 when all four benches repeat exactly,
# 1 otherwise.
set -euo pipefail

build=$(cd "${1:-build}" && pwd)
out=${2:-$(mktemp -d)}
mkdir -p "$out"
cd "$out"

benches=(
  "workload:bench_workload --smoke"
  "group_commit:bench_group_commit --scaling"
  "recovery:bench_recovery --ckpt --smoke"
  "scaleout:bench_scaleout"
)

status=0
for entry in "${benches[@]}"; do
  name=${entry%%:*}
  read -r -a cmd <<< "${entry#*:}"
  cmd[0]="$build/bench/${cmd[0]}"
  "${cmd[@]}" --json "$name.a.json" > /dev/null
  "${cmd[@]}" --json "$name.b.json" > /dev/null
  taskset -c 0 "${cmd[@]}" --json "$name.c.json" > /dev/null
  for pair in "a b" "b a" "a c" "c a"; do
    read -r base cand <<< "$pair"
    if "$build/tools/benchdiff" "$name.$base.json" "$name.$cand.json" \
        --tolerance 0 > "$name.$base$cand.txt"; then
      echo "$name: run $cand repeats run $base"
    else
      echo "$name: run $cand differs from run $base"
      cat "$name.$base$cand.txt"
      status=1
    fi
  done
done
echo "reports in $out"
exit "$status"
