#!/usr/bin/env bash
# Runs the benchmark once per seed and keeps each run's output for
# compare.py. Run from the repository root:
#   bash perfbench/sweep.sh OUTDIR WORKLOAD TRACE SEED...
# writes OUTDIR/WORKLOAD.SEED.json (the full standard output of each run).
set -euo pipefail
if [ $# -lt 4 ]; then
  echo "usage: sweep.sh OUTDIR WORKLOAD TRACE SEED..." >&2
  exit 2
fi
outdir=$1 workload=$2 trace=$3
shift 3
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
mkdir -p "$outdir"
for seed in "$@"; do
  bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
    > "$outdir/$workload.$seed.json"
done
