#!/bin/sh
# Repository-wide verification gate: gofmt, vet, build, race-enabled
# tests, and a short benchmark smoke over the hot paths and the parallel
# engine. Run it before sending changes (or via `make check`).
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt -l (tracked Go files)"
UNFORMATTED=$(gofmt -l $(git ls-files '*.go'))
if [ -n "$UNFORMATTED" ]; then
    echo "==> FAIL: gofmt -w these files:" >&2
    echo "$UNFORMATTED" | sed 's/^/    /' >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

# The bench module (bench/, its own go.mod) is out of reach of the root
# ./... pattern; its tests pin the benchmark workloads' committed result
# and stream digests (bench/testdata/digests.json).
echo "==> bench module: go test ./... (workload digests)"
(cd bench && go test ./...)

# The chaos determinism contract gets a named gate of its own: the fault
# injector, operator retry/abort lifecycle and scaler degradation paths
# must stay deterministic and race-free at any worker count.
echo "==> chaos determinism (fault injection under -race)"
go test -race -run 'Chaos|Fault|Operator|ScalerCursor|ScalerCarries|ScalerHolds|ScalerRecovers' \
    ./internal/faults/ ./internal/k8s/ ./internal/sim/

# Public-API drift gate: exported symbols of the root package must match
# the checked-in snapshot (regenerate: UPDATE=1 sh scripts/apicheck.sh).
echo "==> apicheck (exported API vs testdata/api.txt)"
sh scripts/apicheck.sh

# Chaos goldens: fixed-seed fault streams — including the multi-resource
# mem-pressure scenario — must stay byte-identical to testdata/chaos/
# (regenerate: UPDATE=1 sh scripts/chaos.sh).
echo "==> chaos goldens (fault event streams vs testdata/chaos/)"
sh scripts/chaos.sh

# Fleet determinism golden: a 16-tenant chaos fleet must produce
# byte-identical event streams at workers 1/4/8 under -race, matching
# testdata/fleet/ (regenerate: UPDATE=1 sh scripts/fleet.sh).
echo "==> fleet determinism golden"
sh scripts/fleet.sh

# Serve smoke: boot caasper-serve, load-generate two tenants, diff the
# decision streams against testdata/serve/, and require a graceful
# SIGTERM drain to leave a valid snapshot (regenerate: UPDATE=1 sh
# scripts/serve.sh).
echo "==> serve smoke (server + loadgen + decision-stream golden)"
sh scripts/serve.sh

echo "==> benchmark smoke (1x, hot paths + parallel engine)"
go test -run xxx -bench 'BenchmarkDecide|BenchmarkBuildCurve|BenchmarkSimulateWorkday' -benchtime 1x -benchmem .
go test -run xxx -bench 'BenchmarkRandomSearchParallel' -benchtime 1x -benchmem ./internal/tuning/
go test -run xxx -bench 'BenchmarkRunMatrixParallel' -benchtime 1x -benchmem ./internal/sim/

# Optional stage: capture full benchmark numbers to BENCH_sim.json and
# diff them against the previous capture (scripts/benchdiff fails on >10%
# ns/op or any allocs/op regression). Off by default (it costs real
# benchtime); enable with CHECK_BENCH=1 make check.
if [ "${CHECK_BENCH:-0}" = "1" ]; then
    echo "==> benchmark capture (scripts/bench.sh -> BENCH_sim.json)"
    PREV=""
    if [ -f BENCH_sim.json ]; then
        PREV="$(mktemp)"
        cp BENCH_sim.json "$PREV"
    fi
    sh scripts/bench.sh
    if [ -n "$PREV" ]; then
        echo "==> benchmark regression diff (scripts/benchdiff)"
        sh scripts/benchdiff "$PREV" BENCH_sim.json
        rm -f "$PREV"
    fi
fi

echo "==> OK"
