#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it:
#   bash e2ebench/run.sh --workload replay-empty --seed 1 --seconds 10 --trace 0
# Run from the repository root. Build output, the Go build cache, spans and
# temporary journals all stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
