#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root; every argument goes to caasper-bench:
#
#   bash bench/run.sh --workload fleet-week-mixed --seed 1 --seconds 12 --trace 0
#
# The binary, the Go build cache, snapshot scratch files and traced-run
# spans all stay under .bench_build/ in the current directory. The build
# fails, and nothing is run, outside a full checkout of the repository.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/gotmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOFLAGS=-mod=readonly
export GOTOOLCHAIN=local GOPROXY=off

(cd bench && go build -o "$out/caasper-bench" ./cmd/caasper-bench)
exec "$out/caasper-bench" -tmp "$out/tmp" -trace-dir "$out/traces" "$@"
