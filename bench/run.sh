#!/usr/bin/env bash
# Builds bench/loadgen from source and runs it from the repository root:
#
#   bash bench/run.sh --workload fanout16_wiki --seed 202 --seconds 20 --trace 0
#
# This is the command BENCHMARK.json names. A run may write only inside
# its checkout, so everything the build leaves behind (binary, Go build
# and module caches) is pointed at .bench_build/; nothing is downloaded.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$root/bench" && go build -o "$build/loadgen" ./loadgen)
cd "$root"
exec "$build/loadgen" "$@"
