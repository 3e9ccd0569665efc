GO ?= go

.PHONY: build test race bench bench-all benchdiff check chaos fleet serve-smoke apicheck deadcode

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	sh scripts/bench.sh

bench-all:
	$(GO) test -run xxx -bench . -benchmem .

# Compare two benchmark captures; fails on >10% ns/op or any allocs/op
# regression: make benchdiff OLD=BENCH_old.json NEW=BENCH_sim.json
OLD ?= BENCH_old.json
NEW ?= BENCH_sim.json
benchdiff:
	sh scripts/benchdiff $(OLD) $(NEW)

# Full verification gate: gofmt + vet + build + race tests + benchmark smoke.
check:
	sh scripts/check.sh

# Fixed-seed fault-injection matrix diffed against the chaos goldens.
# Regenerate after an intentional behaviour change: UPDATE=1 make chaos
chaos:
	sh scripts/chaos.sh

# Fleet determinism goldens (chaos, multi-resource, overflow): byte-identical
# event streams at workers 1/4/8 under -race. Regenerate: UPDATE=1 make fleet
fleet:
	sh scripts/fleet.sh

# Serve smoke: caasper-serve + loadgen + decision-stream golden + drain.
# Regenerate after an intentional decision change: UPDATE=1 make serve-smoke
serve-smoke:
	sh scripts/serve.sh

# Exported-API snapshot diffed against testdata/api.txt.
# Regenerate after an intentional API change: UPDATE=1 make apicheck
apicheck:
	sh scripts/apicheck.sh

# Exported internal/ names and internal/ methods (exported or not) that no
# non-test file needs: no caller, no interface satisfied, not in the API
# snapshot. Fails on any.
deadcode:
	$(GO) run ./scripts/deadcode
