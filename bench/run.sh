#!/bin/bash
# Entry point named by BENCHMARK.json: builds the bench package from the
# root of a checkout and hands every argument on to it. The Go build
# cache, temporary files and the binary all stay under .bench_build in
# the checkout, so a run reads and writes nothing outside it.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
