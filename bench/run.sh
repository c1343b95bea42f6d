#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build and runs
# it from the repository root. Nothing outside the checkout is read or
# written: the Go build and module caches live under .bench_build too.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$build/prognobench" .)
exec "$build/prognobench" "$@"
