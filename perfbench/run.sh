#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the checkout. Everything the build writes (the
# Go build cache and the binary) stays under .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$root/.bench_build/gocache"
export GOMODCACHE="$root/.bench_build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOENV=off
go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
