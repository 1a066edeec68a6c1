#!/bin/sh
# Builds mixbench from source and runs it with the given arguments, from
# the root of a checkout of the repository:
#
#   sh cmd/mixbench/run.sh --workload walk-storm --seed 1 --seconds 10 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary files, binary,
# telemetry) stays under $CARGO_TARGET_DIR (default .bench_build) in the
# checkout, and the toolchain never reaches the network: the only module is
# the repository itself, through the replace directive in go.mod.
set -e
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/tmp"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C "$(dirname "$0")" -o "$out/mixbench" .
exec "$out/mixbench" "$@"
