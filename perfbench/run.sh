#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload rebalance --seed 1 --seconds 20 --trace 0
# Run from the repository root. Build outputs, the Go build cache and traces
# stay under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
  echo "perfbench: run from the root of a WattDB checkout (go.mod and internal/ not found)" >&2
  exit 2
fi
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOENV=off
export CARGO_TARGET_DIR="$out"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
