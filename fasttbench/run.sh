#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, from
# the root of a checkout:
#
#   bash fasttbench/run.sh --workload search --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays in .bench_build/ inside the checkout. The build needs the
# repository's go.mod and internal/ packages; without them it fails and the
# script exits non-zero without printing a result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOENV=off GOFLAGS=
go build -o "$out/fasttbench" ./fasttbench >&2
exec "$out/fasttbench" "$@"
