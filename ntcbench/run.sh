#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from
# the root of a checkout:
#
#   bash ntcbench/run.sh --workload paper-week --seed 2018 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
if [ -d .git ] && commit=$(git rev-parse HEAD 2>/dev/null); then
	export NTCBENCH_COMMIT="$commit"
fi
(cd ntcbench && go build -buildvcs=false -o "$build/ntcbench" .)
exec "$build/ntcbench" "$@"
