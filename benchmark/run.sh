#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the build writes — Go's build cache and temp
# files, the binary — stays under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp" GOTOOLCHAIN=local
go build -o .bench_build/sentinel-benchmark ./benchmark
exec .bench_build/sentinel-benchmark "$@"
