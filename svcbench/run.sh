#!/usr/bin/env bash
# Builds the service-level benchmark from the checkout it is run in and
# runs it with the given arguments, e.g.
#
#   bash svcbench/run.sh --workload sampler --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file the build and the run
# write stays under .bench_build/ in that directory (the Go build cache
# included), so the checkout is the only place touched.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/svcbench" && go build -o "$build/svcbench" .)
exec "$build/svcbench" --out "$build" "$@"
