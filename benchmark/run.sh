#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. Everything the build and the run write — the Go
# build cache, the binary, WAL directories, result and span files —
# stays under .bench_build/ in the checkout. Run from the repository
# root: bash benchmark/run.sh --workload ldap_serial --seed 1 --seconds 10 --trace 0
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d benchmark ]; then
	echo "benchmark/run.sh: run from the root of a full checkout (go.mod and benchmark/ not found here)" >&2
	exit 3
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local
go build -o "$build/bin/benchmark" ./benchmark
exec "$build/bin/benchmark" "$@"
