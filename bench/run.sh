#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every flag on:
#
#   bash bench/run.sh --workload recurring --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the Go config
# directory and the binary all live in .bench_build/ at the root, so a
# run writes nothing outside the checkout and needs no network.
set -euo pipefail
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
mkdir -p "$out"
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
