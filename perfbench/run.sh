#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments.  Run it from the repository root:
#
#   bash perfbench/run.sh --workload secure-n10 --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the WAL scratch directories all
# live under .bench_build in the working directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
