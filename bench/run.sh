#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source and
# runs it, keeping the Go build cache, the binary and every scratch file
# under .bench_build in the checkout. Run from the root of the checkout:
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" -dir "$build/work" "$@"
