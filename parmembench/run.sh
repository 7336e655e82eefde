#!/usr/bin/env bash
# Builds the benchmark and the parmemd/parmemgw binaries from this checkout
# into .bench_build, then runs the benchmark with the given arguments:
#
#   bash parmembench/run.sh --workload paper-suite --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes (the Go
# build cache included) stays under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/bin/parmemd" ./cmd/parmemd
go build -o "$out/bin/parmemgw" ./cmd/parmemgw
(cd parmembench && go build -o "$out/bin/parmembench" .)

PARMEMBENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown) \
	exec "$out/bin/parmembench" --bin "$out/bin" --work "$out/work" "$@"
