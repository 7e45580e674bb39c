#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Run from the root of a checkout: bash bench/run.sh --workload warm_plan
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the compiler's temporary files, the binary
# and the cluster's data directories.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run from the root of a pphcr checkout (go.mod and bench/go.mod must be there)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
# Data directories of a run that was killed before it could remove them.
rm -rf "$build"/tmp/pphcr-bench-*
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off

(cd bench && go build -o "$build/pphcr-bench" .)
exec "$build/pphcr-bench" --tmp "$build/tmp" "$@"
