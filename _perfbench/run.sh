#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash _perfbench/run.sh --workload gw-single --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (the Go build cache, its scratch files and
# the binary) goes to .bench_build/ under the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOENV=off GOWORK=off GOPROXY=off
go -C "$here" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
