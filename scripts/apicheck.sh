#!/bin/sh
# Public-API drift gate: dump the exported symbols of the root caasper
# package (scripts/apidump) and diff them against the checked-in
# snapshot. A removed re-export, a renamed constructor or a new symbol
# fails here as a byte diff instead of surprising downstream callers;
# every intentional change needs an UPDATE=1 regeneration.
#
#   sh scripts/apicheck.sh            # verify against testdata/api.txt
#   UPDATE=1 sh scripts/apicheck.sh   # regenerate after an intentional change
set -eu

cd "$(dirname "$0")/.."

OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT

go run ./scripts/apidump | LC_ALL=C sort > "$OUT"

GOLD=testdata/api.txt
if [ "${UPDATE:-0}" = "1" ]; then
    cp "$OUT" "$GOLD"
    wc -l "$GOLD"
    echo "==> API snapshot regenerated in $GOLD"
    exit 0
fi

if cmp -s "$GOLD" "$OUT"; then
    echo "==> OK: exported API matches $GOLD ($(wc -l < "$GOLD") symbols)"
    exit 0
fi

echo "==> FAIL: exported API differs from $GOLD:" >&2
LC_ALL=C comm -23 "$GOLD" "$OUT" | sed 's/^/    - /' >&2
LC_ALL=C comm -13 "$GOLD" "$OUT" | sed 's/^/    + /' >&2
echo "    (run UPDATE=1 sh scripts/apicheck.sh to bless an intentional API change)" >&2
exit 1
