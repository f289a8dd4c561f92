#!/usr/bin/env bash
# Fails unless the working tree gives the outputs git revision <rev> gives.
# Unpacks <rev> with git archive into a temporary directory (the .git state
# is not touched), runs both benchmark workloads on seeds 1-3 there and in
# the working tree with `bench/run.py --seconds 0 --trace 0`, and compares
# every ghi_sha256 and omega_sha256 line, and on cli-pipeline-45d the
# synthesized inputs (p1.csv-p5.csv and ghi_truth.csv, night rows
# included, which the pipeline never reads), the files the pipeline
# writes (omega.json, split_table.csv, ghi_estimate.csv, metrics.json and
# metrics_daily.csv), and diagnostics.json on every key but the timing
# seconds_per_sample:
#
#   bash tests/smoke/same_outputs.sh <rev>
#
# A developer check for a change meant to keep the outputs bit for bit; a
# change that moves them on purpose fails it, so it is not a CI gate.
set -euo pipefail
rev="$1"
tree="$(git rev-parse --show-toplevel)"
base="$(mktemp -d)"
trap 'rm -rf "$base"' EXIT
git -C "$tree" archive "$rev" | tar -x -C "$base"

hashes() {  # <checkout> <workload> <seed>
  (cd "$1" && python3 bench/run.py --workload "$2" --seed "$3" --seconds 0 --trace 0) \
    | grep -E '^ +(ghi|omega)_sha256 '
}

status=0
for workload in estimate-season-15min cli-pipeline-45d; do
  for seed in 1 2 3; do
    was="$(hashes "$base" "$workload" "$seed")"
    now="$(hashes "$tree" "$workload" "$seed")"
    files=""
    if [ "$workload" = cli-pipeline-45d ]; then
      inputs="bench/out/$workload-seed$seed"
      out="$inputs/out"
      for f in p1.csv p2.csv p3.csv p4.csv p5.csv ghi_truth.csv; do
        cmp -s "$base/$inputs/$f" "$tree/$inputs/$f" || files="$files $f"
      done
      for f in omega.json split_table.csv ghi_estimate.csv metrics.json metrics_daily.csv; do
        cmp -s "$base/$out/$f" "$tree/$out/$f" || files="$files $f"
      done
      untimed() { grep -v '^  "seconds_per_sample": ' "$1/$out/diagnostics.json"; }
      cmp -s <(untimed "$base") <(untimed "$tree") || files="$files diagnostics.json"
    fi
    if [ "$was" = "$now" ] && [ -z "$files" ]; then
      echo "same      $workload seed $seed"
    else
      echo "DIFFERENT $workload seed $seed${files:+ (files:$files)}"
      printf '  %s:\n%s\n  working tree:\n%s\n' "$rev" "$was" "$now"
      status=1
    fi
  done
done
exit "$status"
