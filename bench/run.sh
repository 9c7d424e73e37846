#!/usr/bin/env bash
# Builds the benchmark harness and the lppm-serve binary it drives from the
# sources of this checkout, then runs the harness with the given arguments.
# Build caches, binaries, journals and traces all stay under .bench_build/
# at the checkout root; nothing is fetched from the network.
#
#   bash bench/run.sh --workload stream-saturate --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh -workload all -seed 1
#   bash bench/run.sh -compare parent.jsonl change.jsonl
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gopath"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOPROXY=off GOSUMDB=off

(cd bench && go build -o "$out/bin/lppm-bench" .)
go build -o "$out/bin/lppm-serve" ./cmd/lppm-serve
exec "$out/bin/lppm-bench" -server "$out/bin/lppm-serve" "$@"
