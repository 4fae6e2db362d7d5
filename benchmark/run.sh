#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given. Everything the build writes (compiler cache, temporary files, the
# binary) goes under .bench_build/, so nothing outside the checkout is
# touched and no $HOME is needed.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/nvbenchmark" ./benchmark
exec "$build/nvbenchmark" "$@"
