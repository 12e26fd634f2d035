#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 30 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# current directory, and the toolchain is never fetched: the build uses the
# installed Go and the module's sources only.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
# Never download a toolchain or module, and ignore workspace files and
# flags inherited from the caller's environment.
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -buildvcs=false -trimpath -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
