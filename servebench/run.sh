#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and runs it.
# Run from the root of the checkout; arguments go to the benchmark, e.g.
#   bash servebench/run.sh --workload sparse-motor --seed 1 --seconds 30 --trace 0
# The build cache, the binary and everything the run writes stay under
# .bench_build/ in the checkout; the build never fetches anything.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/go-tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	GOTMPDIR="$out/go-tmp" XDG_CONFIG_HOME="$out/config"
go -C servebench build -o "$out/servebench" .
exec "$out/servebench" "$@"
