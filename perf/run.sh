#!/usr/bin/env bash
# The benchmark's one command. Builds perf and erserve from the checkout's
# own sources into <checkout>/.bench_build (nothing is read or written
# outside the checkout), then execs the benchmark so that no shell stands
# between the caller and the process that owns the daemon children.
#
#   bash perf/run.sh --workload knnj_point --seed 1 --seconds 20 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gotmp" "$build/tmp"

export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOSUMDB=off
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"

go build -C "$root" -o "$build/bin/erserve" ./cmd/erserve
go build -C "$here" -o "$build/bin/perf" .

exec "$build/bin/perf" -root "$root" -erserve "$build/bin/erserve" "$@"
