#!/bin/sh
# Fleet determinism gate: run a 16-tenant chaos fleet on the small
# (contended) cluster at worker counts 1, 4 and 8 — under the race
# detector — and require the fleet/fault event streams to be
# byte-identical to each other and to the checked-in golden. Any
# scheduling nondeterminism in the parallel catch-up/decide phase, drift
# in the arbiter's grant order, a change to the fault injector's draw
# discipline, or a divergence of the tick loop's analytic catch-up from
# the per-minute replay the golden was recorded with shows up here as a
# byte diff. (The in-process equivalence tests in internal/fleet compare
# the loop against a stepped per-minute oracle on the same fleets.)
#
#   sh scripts/fleet.sh            # verify against testdata/fleet golden
#   UPDATE=1 sh scripts/fleet.sh   # regenerate the golden
set -eu

cd "$(dirname "$0")/.."

OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

# run NAME WORKERS ARGS... replays one fleet and keeps its fleet/fault
# events in $OUT/NAME-wWORKERS.events.ndjson.
run() {
    name=$1 w=$2
    shift 2
    go run -race ./cmd/caasper-fleet -cluster small -minutes 240 -fault-seed 7 \
        -workers "$w" -events "$OUT/$name-w$w.ndjson" "$@" >/dev/null
    grep -E '"type":"(fleet|fault)\.' "$OUT/$name-w$w.ndjson" > "$OUT/$name-w$w.events.ndjson"
}

FAULTS="restart-fail:p=0.2,metrics-gap:p=0.05,sched-pressure:p=0.5:dur=60:cores=4"
# Multi-resource determinism: the same contract for the resource-vector
# path (RAM + disk + horizontal overflow, mem-pressure faults).
MFAULTS="mem-pressure:p=0.3:gb=3,metrics-gap:p=0.1"
for W in 1 4 8; do
    echo "==> fleet chaos run (16 tenants, 240 min, small cluster, workers $W, -race)"
    run fleet "$W" -tenants 16 -faults "$FAULTS"
    echo "==> fleet multi-resource run (8 tenants, 240 min, small cluster, workers $W, -race)"
    run fleet-multi "$W" -tenants 8 -resources "ram=4-16,disk=5-40,replicas=1-3" -faults "$MFAULTS"
done

REF="$OUT/fleet-w1.events.ndjson"
MREF="$OUT/fleet-multi-w1.events.ndjson"
for W in 4 8; do
    cmp "$REF" "$OUT/fleet-w$W.events.ndjson"
    cmp "$MREF" "$OUT/fleet-multi-w$W.events.ndjson"
done
echo "==> chaos and multi-resource streams byte-identical at workers 1/4/8"

GOLD=testdata/fleet
if [ "${UPDATE:-0}" = "1" ]; then
    mkdir -p "$GOLD"
    cp "$REF" "$GOLD/fleet-chaos.golden.ndjson"
    cp "$MREF" "$GOLD/fleet-multi.golden.ndjson"
    wc -l "$GOLD"/*.golden.ndjson
    echo "==> goldens regenerated in $GOLD/"
    exit 0
fi

diff -u "$GOLD/fleet-chaos.golden.ndjson" "$REF"
diff -u "$GOLD/fleet-multi.golden.ndjson" "$MREF"
echo "==> OK: fleet event streams byte-identical to goldens at every worker count"
