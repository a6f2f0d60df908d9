#!/usr/bin/env bash
# Determinism check for the four gated benches. Each runs with the flags
# that produce its checked-in BENCH_*.json baseline, `runs` times on all
# cores and `pinned` more times pinned to one core. Every gated metric must
# come out identical: `benchdiff --tolerance 0` must pass between run 1 and
# every other run, in both directions (a gate only fails one direction, so
# a difference either way shows up in one of the two). Several runs per
# bench catch an intermittent difference that two runs would miss.
#
#   tools/bench_determinism.sh [build-dir] [out-dir] [runs] [pinned]
#
# build-dir defaults to ./build (a Release build with the bench_* targets
# and benchdiff); out-dir defaults to a fresh temporary directory and keeps
# every report and diff table; runs defaults to 2 and pinned to 1. Exits 0
# when all four benches repeat exactly, 1 otherwise.
set -euo pipefail

build=$(cd "${1:-build}" && pwd)
out=${2:-$(mktemp -d)}
runs=${3:-2}
pinned=${4:-1}
if (( runs < 1 || pinned < 0 || runs + pinned < 2 )); then
  echo "need runs >= 1 and at least two runs in all" >&2
  exit 2
fi
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
  labels=()
  for ((i = 1; i <= runs; ++i)); do
    "${cmd[@]}" --json "$name.$i.json" > /dev/null
    labels+=("$i")
  done
  for ((i = 1; i <= pinned; ++i)); do
    taskset -c 0 "${cmd[@]}" --json "$name.p$i.json" > /dev/null
    labels+=("p$i")
  done
  differing=0
  for cand in "${labels[@]:1}"; do
    for pair in "1 $cand" "$cand 1"; do
      read -r base other <<< "$pair"
      if ! "$build/tools/benchdiff" "$name.$base.json" "$name.$other.json" \
          --tolerance 0 > "$name.$base-$other.txt"; then
        echo "$name: run $other differs from run $base"
        cat "$name.$base-$other.txt"
        differing=1
      fi
    done
  done
  if (( differing )); then
    status=1
  else
    echo "$name: ${#labels[@]} runs ($runs all cores, $pinned pinned) repeat exactly"
  fi
done
echo "reports in $out"
exit "$status"
