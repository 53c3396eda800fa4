#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
#
#   bash benchmark/run.sh --workload nas-lu [--seed 1] [--seconds 20] [--trace 0|1]
#   bash benchmark/run.sh [--seed N] [--seconds S]   # every workload, timed then traced
#
# Build outputs (Go build cache, binary, CPU profiles) stay in .bench_build/
# at the root of the tree; nothing is written anywhere else.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/sim" ]]; then
	echo "benchmark: $root holds no openmxsim source tree to build" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/profiles" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/modcache" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home" \
	GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOENV=off
bin="$build/omxsim-benchmark"
(cd "$root/benchmark" && go build -o "$bin" .)

if [[ " $* " == *" --workload "* || " $* " == *" -workload "* ]]; then
	exec "$bin" --profile-dir "$build/profiles" "$@"
fi
for w in nas-lu nas-is incast-64 sweep-grid; do
	for t in 0 1; do
		"$bin" --profile-dir "$build/profiles" --workload "$w" --trace "$t" "$@"
	done
done
