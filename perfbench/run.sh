#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
#
#   bash perfbench/run.sh --workload table1-synthetic --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root.  The build cache, the binary and every
# file a run writes stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --work-dir "$out/perfbench-work" "$@"
