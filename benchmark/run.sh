#!/usr/bin/env bash
# Entry point for the benchmark driver. From the root of a checkout:
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# builds the harness and the repository's binaries from source and prints
# one JSON result line. The Go build and module caches are kept under
# .bench_build/ so that nothing is read or written outside the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/dohserver ] || [ ! -d benchmark ]; then
	echo "benchmark/run.sh: run from the root of an encdns checkout" >&2
	exit 2
fi

export GOCACHE="$PWD/.bench_build/gocache"
export GOMODCACHE="$PWD/.bench_build/gomodcache"
export GOTOOLCHAIN=local

cd benchmark
exec go run . "$@"
