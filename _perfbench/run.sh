#!/usr/bin/env bash
# Builds the placement-service benchmark from this checkout's sources and
# runs it. Run from the repository root:
#
#   bash _perfbench/run.sh --workload cold-solve --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact (Go build cache, binary, journals, span dumps)
# stays under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

(cd "$root/_perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
