#!/usr/bin/env bash
# Builds the benchmark from the checkout's own source and runs it.
# BENCHMARK.json's command is `bash benchmark/run.sh`; the driver appends
# --workload/--seed/--seconds/--trace. Everything the build and the run
# write stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/scidp-benchmark" .
exec "$build/scidp-benchmark" -out "$build/out" "$@"
