#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags,
# from the root of a checkout:
#
#   bash bench/run.sh --workload link-trace-64qam --seed 7 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) stays under .bench_build/ in the checkout. Without the parent
# module next to bench/ the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
