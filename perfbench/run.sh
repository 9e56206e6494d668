#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments,
# from the repository root:
#
#   sh perfbench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and run scratch space all stay under
# .bench_build in the current directory.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
