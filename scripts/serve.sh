#!/bin/sh
# Serve smoke gate: boot caasper-serve on an ephemeral port, replay two
# tenants' traces through the caasper-fleet load generator, and require
# the explained decision streams (concatenated per-tenant GETs) to be
# byte-identical to the checked-in golden. Then SIGTERM the server and
# require a valid, complete snapshot — the graceful-drain contract.
#
# A second pass replays the same load into a server keeping only 16
# decision records per tenant, so each 36-decision log wraps twice. Its
# golden holds both explained streams plus one since= read at a cursor
# inside the retained window; a server restarted from the drained
# snapshot with the same log size must serve the same bytes.
#
#   sh scripts/serve.sh            # verify against testdata/serve goldens
#   UPDATE=1 sh scripts/serve.sh   # regenerate the goldens
set -eu

cd "$(dirname "$0")/.."

OUT=$(mktemp -d)
SERVE_PID=""
cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$OUT"
}
trap cleanup EXIT

echo "==> building caasper-serve and caasper-fleet"
go build -o "$OUT/caasper-serve" ./cmd/caasper-serve
go build -o "$OUT/caasper-fleet" ./cmd/caasper-fleet

# start_server SNAPSHOT [FLAG...]: boot caasper-serve on an ephemeral
# port with the given checkpoint file and set BASE once it listens.
start_server() {
    snap=$1
    shift
    rm -f "$OUT/addr.txt"
    "$OUT/caasper-serve" -addr 127.0.0.1:0 -addr-file "$OUT/addr.txt" \
        -snapshot "$snap" "$@" >>"$OUT/serve.log" 2>&1 &
    SERVE_PID=$!
    # Wait for the listener (the address file is written post-bind).
    i=0
    while [ ! -s "$OUT/addr.txt" ]; do
        i=$((i + 1))
        [ "$i" -gt 50 ] && { echo "server never bound"; cat "$OUT/serve.log"; exit 1; }
        sleep 0.1
    done
    BASE="http://$(cat "$OUT/addr.txt")"
}

# stop_server SNAPSHOT: SIGTERM, wait for the drain, and require a valid
# two-tenant snapshot.
stop_server() {
    kill -TERM "$SERVE_PID"
    i=0
    while kill -0 "$SERVE_PID" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && { echo "server never exited"; exit 1; }
        sleep 0.1
    done
    SERVE_PID=""
    head -1 "$1" | grep -q '"format":"caasper-serve"' \
        || { echo "snapshot missing or malformed"; exit 1; }
    head -1 "$1" | grep -q '"tenants":2' \
        || { echo "snapshot tenant count wrong"; head -1 "$1"; exit 1; }
    echo "==> snapshot valid ($(wc -l < "$1") lines)"
}

# load: replay two tenants' traces and wait until both tenants' sample
# clocks reach the full stream (ingest is asynchronous).
load() {
    echo "==> load-generating 2 tenants x 360 samples against $BASE"
    "$OUT/caasper-fleet" -target "$BASE" -tenants 2 -minutes 360 -batch 60 -conns 2 \
        -recommender caasper >"$OUT/loadgen.log"
    for T in t00 t01; do
        i=0
        until curl -sf "$BASE/v1/tenants/$T" | grep -q '"samples":360'; do
            i=$((i + 1))
            [ "$i" -gt 50 ] && { echo "tenant $T never drained"; exit 1; }
            sleep 0.1
        done
    done
}

# read_streams FILE [QUERY]: both tenants' explained decision streams,
# then, when QUERY is given, t00's stream read with it.
read_streams() {
    : > "$1"
    for T in t00 t01; do
        curl -sf "$BASE/v1/tenants/$T/decisions?explain=1" >> "$1"
    done
    if [ $# -gt 1 ]; then
        curl -sf "$BASE/v1/tenants/t00/decisions?$2" >> "$1"
    fi
    wc -l "$1"
}

echo "==> pass 1: default decision log"
start_server "$OUT/serve.snapshot"
load
read_streams "$OUT/decisions.ndjson"
echo "==> graceful shutdown (SIGTERM -> drain -> snapshot)"
stop_server "$OUT/serve.snapshot"

# The log keeps seq 21..36 of each tenant; since=28 starts mid-ring.
echo "==> pass 2: 16-record decision log (wraps twice)"
start_server "$OUT/wrapped.snapshot" -decision-log 16
load
read_streams "$OUT/wrapped.ndjson" since=28
stop_server "$OUT/wrapped.snapshot"
echo "==> restart from the drained snapshot (same log size)"
start_server "$OUT/wrapped.snapshot" -decision-log 16
read_streams "$OUT/wrapped-restored.ndjson" since=28
stop_server "$OUT/wrapped.snapshot"
diff -u "$OUT/wrapped.ndjson" "$OUT/wrapped-restored.ndjson" \
    || { echo "restored server serves different decisions"; exit 1; }

GOLD=testdata/serve
if [ "${UPDATE:-0}" = "1" ]; then
    mkdir -p "$GOLD"
    cp "$OUT/decisions.ndjson" "$GOLD/decisions.golden.ndjson"
    cp "$OUT/wrapped.ndjson" "$GOLD/decisions-wrapped.golden.ndjson"
    wc -l "$GOLD/decisions.golden.ndjson" "$GOLD/decisions-wrapped.golden.ndjson"
    echo "==> goldens regenerated in $GOLD/"
    exit 0
fi

diff -u "$GOLD/decisions.golden.ndjson" "$OUT/decisions.ndjson"
diff -u "$GOLD/decisions-wrapped.golden.ndjson" "$OUT/wrapped.ndjson"
echo "==> OK: decision streams byte-identical to goldens; drains left valid snapshots; restart served the same wrapped log"
