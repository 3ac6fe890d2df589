#!/usr/bin/env bash
# The command of BENCHMARK.json: builds the benchmark from source and runs
# it, from the repository root, passing its arguments through.
#
# Everything the build writes (the binary and Go's build cache) goes under
# .bench_build/ in the checkout, because a benchmark run may write only
# inside its checkout; the first build in a checkout therefore compiles the
# standard library too. `go run -C bench eccheck/bench` is the same program
# built through the user's own cache.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
