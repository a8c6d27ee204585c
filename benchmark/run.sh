#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it with the
# given flags. Run it from the repository root, for example
#
#   bash benchmark/run.sh --workload sql-ycsb --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and traced-run output stay under
# .bench_build/ in the checkout; nothing is fetched from the network.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f benchmark/go.mod ]; then
	echo "run.sh: run from the root of a nestedenclave checkout" >&2
	exit 2
fi
root="$PWD"
export GOCACHE="$root/.bench_build/go-cache"
export GOMODCACHE="$root/.bench_build/go-mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd benchmark && go build -o "$root/.bench_build/benchmark" .)
exec "$root/.bench_build/benchmark" "$@"
