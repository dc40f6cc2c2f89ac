#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it,
# passing every argument through. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload search-memfb --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go -C e2ebench build -o "$build/bin/e2ebench" .
exec "$build/bin/e2ebench" --workdir "$build/e2ebench-work" "$@"
