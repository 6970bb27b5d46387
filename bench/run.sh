#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout and
# runs it from bench/, so results land in bench/out/. Every cache the go
# tool writes is pointed inside the checkout.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
# -buildvcs=false: the driver's checkout is not a git repository, and a
# repository git refuses to read would otherwise fail the build.
go build -buildvcs=false -o "$build/dwr-bench" .
BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)" exec "$build/dwr-bench" "$@"
