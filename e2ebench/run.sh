#!/bin/bash
# Builds the end-to-end checkpointing benchmark from this checkout's sources
# and runs it. Run from the repository root:
#
#   bash e2ebench/run.sh --workload dp-file --seed 1 --seconds 30 --trace 0
#
# Everything the toolchain and the run write stays under .bench_build/ in
# the working directory: build cache, module cache, Go's config directory
# (telemetry counters), the binary and the run's stores. The build needs
# the repository's go.mod one level up; without it the script fails before
# printing a result.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$(dirname "$0")" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" "$@"
