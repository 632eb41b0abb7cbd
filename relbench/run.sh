#!/usr/bin/env bash
# Builds relbench from the checkout's sources and runs it with the given
# arguments. Run from the root of the repository:
#
#   bash relbench/run.sh --workload cold-batch --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain and the benchmark write (build cache,
# temporary files, spans, the durable store) stays under .bench_build.
set -euo pipefail

root=$(pwd)
work="$root/.bench_build"
mkdir -p "$work/tmp" "$work/home"
export HOME="$work/home"
export GOCACHE="$work/gocache"
export GOPATH="$work/gopath"
export GOTMPDIR="$work/tmp"
export TMPDIR="$work/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off
export GOTELEMETRY=off

(cd "$root/relbench" && go build -o "$work/relbench" .)
exec "$work/relbench" "$@"
