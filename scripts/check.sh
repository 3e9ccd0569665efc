#!/bin/sh
# Repository-wide verification gate: gofmt, vet, build, race-enabled
# tests, fuzz stages, and a short benchmark smoke over the hot paths and
# the parallel engine. Run it before sending changes (or via `make check`).
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

# The bench module has its own go.mod, so the root ./... pattern skips it.
echo "==> bench module: go vet ./..."
(cd bench && go vet ./...)

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

# The stepped oracle (internal/fleet/stepped_test.go) is the only
# independent check of the fleet's one catch-up walk, for CPU-only and
# multi-resource tenants alike: its equivalence tests and the
# node-disjoint group tests run twice more under -race as a named gate.
echo "==> fleet oracle equivalence (-race, count=2)"
go test -race -count=2 -run 'Equivalence|Sharded' ./internal/fleet

# The sim ↔ fleet oracle replays each trace through Simulate (instant
# resizes) and an uncontended one-tenant RunFleet, and requires bit-equal
# K, C, throttled minutes, N and bill plus the same resize sequence: the
# cross-surface check behind the shared billing.Ledger.
echo "==> sim ↔ fleet oracle (-race)"
go test -race -run 'TestSimFleetOracle' .

# Examples: every examples/* main must build and run to a zero exit, so
# a public-API change that breaks one fails here rather than in a
# reader's terminal.
echo "==> examples (run every examples/* main)"
EXBIN=$(mktemp -d)
for dir in examples/*/; do
    name=$(basename "$dir")
    echo "    $name"
    go build -o "$EXBIN/$name" "./$dir"
    if ! "$EXBIN/$name" > "$EXBIN/$name.out" 2>&1; then
        echo "==> FAIL: examples/$name exited non-zero:" >&2
        sed 's/^/    /' "$EXBIN/$name.out" >&2
        rm -rf "$EXBIN"
        exit 1
    fi
done
rm -rf "$EXBIN"

# Public-API drift gate: exported symbols of the root package must match
# the checked-in snapshot (regenerate: UPDATE=1 sh scripts/apicheck.sh).
echo "==> apicheck (exported API vs testdata/api.txt)"
sh scripts/apicheck.sh

# Dead-code gate: every exported package-level name under internal/ must
# have a caller outside tests (scripts/deadcode lists any that do not).
echo "==> deadcode (exported internal/ names without a non-test caller)"
go run ./scripts/deadcode

# Chaos goldens: fixed-seed fault streams — including the multi-resource
# mem-pressure scenario — must stay byte-identical to testdata/chaos/
# (regenerate: UPDATE=1 sh scripts/chaos.sh).
echo "==> chaos goldens (fault event streams vs testdata/chaos/)"
sh scripts/chaos.sh

# Fleet determinism goldens: a 16-tenant chaos fleet, a multi-resource
# fleet and a horizontal-overflow fleet must each produce byte-identical
# event streams at workers 1/4/8 under -race, matching testdata/fleet/
# (regenerate: UPDATE=1 sh scripts/fleet.sh).
echo "==> fleet determinism golden"
sh scripts/fleet.sh

# Serve smoke: boot caasper-serve, load-generate two tenants, diff the
# decision streams against testdata/serve/, and require a graceful
# SIGTERM drain to leave a valid snapshot (regenerate: UPDATE=1 sh
# scripts/serve.sh).
echo "==> serve smoke (server + loadgen + decision-stream golden)"
sh scripts/serve.sh

# Fuzz stage: the decision kernel's quantile/peak scan against a full
# sort, 10 s of fresh inputs on top of the seeds `go test` replays. New
# coverage is minimised for at most 100 runs so the budget goes on
# fuzzing, not on shrinking corpus entries.
echo "==> fuzz FuzzQuantileMax (10s)"
go test -run '^$' -fuzz FuzzQuantileMax -fuzztime 10s -fuzzminimizetime 100x ./internal/stats

# Fuzz stage: Algorithm 1's window pass (line 2's filter, the PvP slot
# counts and the top-m scan above their bound) against the sort-based
# oracle, every Decision field bit for bit, plus the memo hit on a
# repeated window. One scratch then decides the window's revisit
# sequence: the window, its values moved within their slots, each
# one-slot-fewer variant, the window reversed, moved up and reversed,
# and the window again, so the skew table answers windows that share a
# count vector and must tell apart those that do not.
echo "==> fuzz FuzzDecideScratch (10s)"
go test -run '^$' -fuzz FuzzDecideScratch -fuzztime 10s -fuzzminimizetime 100x ./internal/core

# Fuzz stage: the reactive adapter's counted window (slot counts slid at
# Observe/ObserveRun, rebuilt at Reset/RestoreState) against
# DecideScratch on the same window: decisions bit for bit, memo hits and
# misses, and audit events.
echo "==> fuzz FuzzCountedWindow (10s)"
go test -run '^$' -fuzz FuzzCountedWindow -fuzztime 10s -fuzzminimizetime 100x ./internal/recommend

# Fuzz stage: arbitrary checkpoint streams into serve's Restore. It must
# never panic, a failed restore must leave the server without a tenant,
# and a successful one must survive snapshot → restore → snapshot byte
# for byte.
echo "==> fuzz FuzzRestore (10s)"
go test -run '^$' -fuzz FuzzRestore -fuzztime 10s -fuzzminimizetime 100x ./internal/serve

# Fuzz stage: the reflection-free checkpoint-line decoder against
# json.Unmarshal. Whatever line it accepts must decode to the same
# tenant struct, floats bit for bit.
echo "==> fuzz FuzzSnapshotLine (10s)"
go test -run '^$' -fuzz FuzzSnapshotLine -fuzztime 10s -fuzzminimizetime 100x ./internal/serve

# Fuzz stage: the reflection-free checkpoint-line encoder against
# json.Encoder. Any tenant with an injected float and string must encode
# to the same bytes (or fail alike on NaN/±Inf), and an unescaped line
# must decode back through the fast path, floats bit for bit.
echo "==> fuzz FuzzSnapshotEncode (10s)"
go test -run '^$' -fuzz FuzzSnapshotEncode -fuzztime 10s -fuzzminimizetime 100x ./internal/serve

# Fuzz stage: the ingest sample fast path against json.Unmarshal, the
# same differential rule.
echo "==> fuzz FuzzParseSampleFast (10s)"
go test -run '^$' -fuzz FuzzParseSampleFast -fuzztime 10s -fuzzminimizetime 100x ./internal/serve

# Fuzz stage: stats.AddN's binade jump against the plain repeated
# addition it replaces in the ledger and the fleet's severity sum,
# compared bit for bit.
echo "==> fuzz FuzzAddN (10s)"
go test -run '^$' -fuzz FuzzAddN -fuzztime 10s -fuzzminimizetime 100x ./internal/stats

# Fuzz stages: the two CLI grammars. Neither parser may panic; an
# accepted -faults spec has finite in-range parameters and renders back
# to itself, an accepted -resources range validates.
echo "==> fuzz FuzzParseSpec (10s)"
go test -run '^$' -fuzz FuzzParseSpec -fuzztime 10s -fuzzminimizetime 100x ./internal/faults

echo "==> fuzz FuzzParseResourceSpec (10s)"
go test -run '^$' -fuzz FuzzParseResourceSpec -fuzztime 10s -fuzzminimizetime 100x ./internal/core

# The parallel checkpoint encode/decode (worker buffers, batch decode,
# all-or-nothing publish) and since= polls of a decision ring that wraps
# under ingest, under the race detector, as a named gate.
echo "==> race: serve snapshot/restore + decision ring polls"
go test -race -run 'Snapshot|Restore|TestDecisionLogPollDuringWrap' ./internal/serve

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
