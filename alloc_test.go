// Allocation-regression pins for the decision hot path. The perf story of
// the bounded-window rework is not just "faster once" — it is a budget:
// the simulator minute loop allocates O(1) per run regardless of trace
// length, and a warmed-up recommender allocates nothing at steady state.
// These tests fail the build if a future change quietly re-introduces
// per-minute garbage, the same way the golden event streams pin behaviour.
package caasper_test

import (
	"runtime/debug"
	"testing"

	"caasper"
)

// TestSimulateWorkdayAllocBudget pins the disabled-telemetry simulator
// loop: one full 720-minute workday, fresh recommender each run, no event
// sink. The seed implementation spent 387 allocs per workday (one sort +
// curve + explanation boxing per decision tick); the ring-buffer window,
// in-place quantile selection and histogram curve build cut that to ~103,
// all of it setup cost. The budget leaves slack for noise but fails long
// before per-tick allocations creep back in.
func TestSimulateWorkdayAllocBudget(t *testing.T) {
	tr := caasper.Workloads["workday12h"](1)
	opts := caasper.DefaultSimOptions(6, 8)
	allocs := testing.AllocsPerRun(10, func() {
		rec, err := caasper.NewReactive(caasper.DefaultConfig(8), 40)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := caasper.Simulate(tr, rec, opts); err != nil {
			t.Fatal(err)
		}
	})
	// 720 minutes / 72 decision ticks: anything near one alloc per tick
	// means a hot-path regression.
	const budget = 140
	if allocs > budget {
		t.Fatalf("workday simulation allocated %.0f times, budget %d (seed was 387)", allocs, budget)
	}
}

// TestMonthReplaySteadyStateAllocs replays a full simulated month (43200
// minutes) through a warmed-up reactive recommender and requires the
// observe/decide loop to allocate nothing at all. Combined with the ring
// buffer's fixed backing array (internal/window), this is the O(window)
// memory guarantee: a fleet-month replay holds one 40-sample window per
// tenant, not a month of history.
func TestMonthReplaySteadyStateAllocs(t *testing.T) {
	rec, err := caasper.NewReactive(caasper.DefaultConfig(16), 40)
	if err != nil {
		t.Fatal(err)
	}
	tr := caasper.Workloads["workday12h"](7)
	vals := tr.Values
	cur := 6
	// Warm-up: fill the window and let the decision scratch buffers reach
	// their high-water marks.
	for m := 0; m < 2*40; m++ {
		rec.Observe(m, vals[m%len(vals)])
		if m%10 == 9 {
			cur = rec.Recommend(cur)
		}
	}
	const monthMinutes = 43200
	// A GC cycle mid-measurement clears sync.Pool caches, and the next
	// Get's refill shows up as an "allocation" of the replay loop —
	// pausing the collector keeps the pin about the code path, not about
	// collector timing (which earlier tests' heap pressure perturbs).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(1, func() {
		for m := 0; m < monthMinutes; m++ {
			rec.Observe(m, vals[m%len(vals)])
			if m%10 == 9 {
				cur = rec.Recommend(cur)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("month replay allocated %.0f times after warm-up, want 0", allocs)
	}
	if cur < 1 || cur > 16 {
		t.Fatalf("recommendation %d escaped [1,16]", cur)
	}
}

// TestMonthReplayMatchesUnboundedDecisions drives the same month-long
// sample stream through the ring-windowed recommender and a brute-force
// replica that slices the window off an unbounded history, requiring
// bit-equal decisions at every tick — the correctness half of the
// bounded-memory contract, at the public-API level.
func TestMonthReplayMatchesUnboundedDecisions(t *testing.T) {
	const window = 40
	rec, err := caasper.NewReactive(caasper.DefaultConfig(16), window)
	if err != nil {
		t.Fatal(err)
	}
	cfg := caasper.DefaultConfig(16)
	tr := caasper.Workloads["workday12h"](3)
	vals := tr.Values
	var history []float64
	cur, refCur := 6, 6
	for m := 0; m < 43200; m++ {
		v := vals[m%len(vals)]
		rec.Observe(m, v)
		history = append(history, v)
		if m%10 != 9 {
			continue
		}
		cur = rec.Recommend(cur)
		win := history
		if len(win) > window {
			win = win[len(win)-window:]
		}
		d, err := caasper.Decide(cfg, refCur, win)
		if err != nil {
			t.Fatalf("minute %d: %v", m, err)
		}
		refCur = d.Target.CPUCores
		if cur != refCur {
			t.Fatalf("minute %d: ring window recommends %d, unbounded history %d", m, cur, refCur)
		}
	}
}
