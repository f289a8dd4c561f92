#!/usr/bin/env bash
# Runs synth, identify, estimate and evaluate on the 10-day scene in this
# directory (spec.json, run.ini), inside <workdir>, through a pvghi command:
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
"$@" identify --config run.ini
"$@" estimate --config run.ini
"$@" evaluate --est out/ghi_estimate.csv --truth out/ghi_truth.csv --output out/metrics.json
