#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, e.g.
#   bash perfbench/bench.sh --workload theorem1-n4 --seed 1 --seconds 20 --trace 0
# The binary, the Go build cache and Go's temporary files stay under
# .bench_build/ at the root of the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
cd "$root/perfbench"
go build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
