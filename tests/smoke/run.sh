#!/usr/bin/env bash
# Runs synth, identify, estimate and evaluate on the 10-day scene in this
# directory (spec.json, run.ini), inside <workdir>, through a pvghi command,
# then reruns identify and estimate under another PYTHONHASHSEED and fails
# unless omega.json, split_table.csv and ghi_estimate.csv are byte-equal:
#
#   bash tests/smoke/run.sh <workdir> <pvghi command...>
#
# for example, from a source checkout:
#
#   PYTHONPATH=$PWD/src bash tests/smoke/run.sh "$(mktemp -d)" python -m pvghi.cli
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
workdir="$1"
shift
mkdir -p "$workdir"
cp "$here/spec.json" "$here/run.ini" "$workdir/"
cd "$workdir"
"$@" synth --config run.ini --spec spec.json
PYTHONHASHSEED=1 "$@" identify --config run.ini
PYTHONHASHSEED=1 "$@" estimate --config run.ini
"$@" evaluate --est out/ghi_estimate.csv --truth out/ghi_truth.csv --output out/metrics.json

# Identical inputs give identical outputs, also in a process with another
# string-hash seed: rerun identify and estimate and compare the files.
outputs=(omega.json split_table.csv ghi_estimate.csv)
mkdir -p first
for f in "${outputs[@]}"; do cp "out/$f" "first/$f"; done
PYTHONHASHSEED=2 "$@" identify --config run.ini
PYTHONHASHSEED=2 "$@" estimate --config run.ini
for f in "${outputs[@]}"; do cmp "first/$f" "out/$f"; done
