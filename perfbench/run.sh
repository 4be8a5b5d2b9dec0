#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments (see perfbench/README.md). Run from the checkout root:
#   bash perfbench/run.sh --workload derive --seed 1 --seconds 20 --trace 0
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
PERFBENCH_COMMIT=none
if [ -e "$root/.git" ]; then
  PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
fi
export PERFBENCH_COMMIT
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -root "$root" "$@"
