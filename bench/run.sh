#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# arguments given. Everything the build writes — Go's build cache, its
# scratch directory, the binary — stays under .bench_build in the
# checkout, and the benchmark's own run directories under bench/out.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench: no go.mod next to bench/: the engine's sources are not here" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -o "$build/shark-bench" ./bench
exec "$build/shark-bench" "$@"
