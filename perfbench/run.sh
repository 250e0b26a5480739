#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument passes through to the benchmark binary:
#
#   bash perfbench/run.sh --workload paper-inmem --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the binary and the workloads' data
# directories all live under .bench_build/ in the current directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
