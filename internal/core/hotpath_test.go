package core

import (
	"fmt"
	"testing"

	"caasper/internal/stats"
)

// randomWindow mixes regimes so the decisions below cover every branch:
// pinned-at-cap, idle, in-band and flat-tail windows all occur.
func randomWindow(rng *stats.RNG, trial int) []float64 {
	return randomWindowN(rng, trial, 5+trial%77)
}

// randomWindowN is randomWindow at a caller-chosen length n.
func randomWindowN(rng *stats.RNG, trial, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch trial % 5 {
		case 0:
			out[i] = rng.Range(5.5, 6) // pinned near a 6-core cap
		case 1:
			out[i] = rng.Range(0, 0.4) // idle
		case 2:
			out[i] = rng.Range(2, 5) // mid-band
		case 3:
			out[i] = 1.25 // constant (flat tail candidate)
		default:
			// Mostly idle with rare excursions past a 10-core allocation:
			// small nonzero slope at 10 → the gradual scale-down arm.
			out[i] = 2 + rng.NormFloat64()*0.2
			if i%31 == 0 {
				out[i] = 10.5
			}
		}
	}
	return out
}

// windowCur pairs randomWindow's regimes with an allocation that makes
// the intended branch reachable.
func windowCur(trial int) int {
	if trial%5 == 4 {
		return 10
	}
	return 1 + trial%12
}

// TestExplanationMatchesFmt pins the hand-rolled explanation builder to
// the fmt.Sprintf formats it replaced: for every branch the bytes must be
// exactly what fmt would have produced.
func TestExplanationMatchesFmt(t *testing.T) {
	r := mustRecommender(t, 16)
	cfg := r.Config()
	rng := stats.NewRNG(11)
	seen := map[Branch]int{}
	for trial := 0; trial < 400; trial++ {
		usage := randomWindow(rng, trial)
		cur := windowCur(trial)
		d, err := r.Decide(cur, usage)
		if err != nil {
			t.Fatal(err)
		}
		seen[d.Branch]++

		clean := referenceClean(usage)
		peak := stats.Max(clean)
		xc := d.Current.CPUCores
		capf := float64(xc)
		var want string
		switch {
		case d.Branch == BranchScaleUp:
			want = fmt.Sprintf(
				"scale-up: slope %.2f (threshold %.2f), P%.0f usage %.2f of %d cores (buffer threshold %.2f); SF %.2f → +%d cores",
				d.Slope, cfg.SlopeHigh, cfg.QuantileP*100, d.Quantile, xc, (1-cfg.SlackHigh)*capf, d.RawSF, d.Target.CPUCores-xc)
		case d.Branch == BranchWalkDown:
			want = fmt.Sprintf(
				"walk-down: flat PvP tail at %d cores (peak usage %.2f); cheapest SKU meeting %.0f%% performance is %d cores",
				xc, peak, cfg.WalkDownPerfTarget*100, d.Target.CPUCores)
		case d.Branch == BranchScaleDown:
			want = fmt.Sprintf(
				"scale-down: slope %.2f ≤ %.2f or P%.0f usage %.2f ≤ %.2f (idle threshold); SF %.2f → -%d cores",
				d.Slope, cfg.SlopeLow, cfg.QuantileP*100, d.Quantile, cfg.SlackLow*capf, d.RawSF, xc-d.Target.CPUCores)
		case d.Slope <= cfg.SlopeLow || d.Quantile <= cfg.SlackLow*capf:
			// A down-trigger that held: flat-tail or quantile-forbids arm.
			if d.Slope == 0 && d.Explanation[:10] == "hold: flat" {
				want = fmt.Sprintf(
					"hold: flat PvP tail at %d cores but no cheaper SKU clears the buffered peak %.2f", xc, peak)
			} else {
				want = fmt.Sprintf(
					"hold: down-trigger fired but buffered quantile %.2f forbids shrinking below %d cores", d.Quantile, xc)
			}
		default:
			want = fmt.Sprintf(
				"hold: slope %.2f within (%.2f, %.2f) and P%.0f usage %.2f within slack bands of %d cores",
				d.Slope, cfg.SlopeLow, cfg.SlopeHigh, cfg.QuantileP*100, d.Quantile, xc)
		}
		if d.Explanation != want {
			t.Fatalf("trial %d branch %s:\n got  %q\n want %q", trial, d.Branch, d.Explanation, want)
		}
	}
	for _, br := range []Branch{BranchScaleUp, BranchScaleDown, BranchWalkDown, BranchHold} {
		if seen[br] == 0 {
			t.Errorf("branch %s never exercised", br)
		}
	}
}

// TestDecideScratchMemoEquivalence: a long-lived Scratch (memo armed)
// must return decisions bit-identical to fresh memoless evaluations,
// including after repeated identical windows.
func TestDecideScratchMemoEquivalence(t *testing.T) {
	r := mustRecommender(t, 16)
	rng := stats.NewRNG(23)
	var sc Scratch
	var last []float64
	lastCur := 0
	for trial := 0; trial < 300; trial++ {
		var usage []float64
		var cur int
		if trial%3 == 0 && last != nil {
			usage, cur = last, lastCur // force memo hits
		} else {
			usage, cur = randomWindow(rng, trial), windowCur(trial)
		}
		last, lastCur = usage, cur
		got, err := r.DecideScratch(&sc, cur, usage)
		if err != nil {
			t.Fatal(err)
		}
		// DecideScratch defers the explanation to the scratch buffer;
		// materialise it the way Explainer surfaces do before comparing.
		got.Explanation = sc.Explanation()
		want, err := r.Decide(cur, usage)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: scratch %+v != fresh %+v", trial, got, want)
		}
	}
	if sc.MemoHits == 0 {
		t.Error("memo never hit — equivalence test lost its teeth")
	}
}

// TestDecideScratchMemoHitZeroAllocs: with telemetry disabled, a
// memo-answered decision must not allocate at all.
func TestDecideScratchMemoHitZeroAllocs(t *testing.T) {
	r := mustRecommender(t, 16)
	usage := cappedUsage(6, 3, 40, 9)
	var sc Scratch
	if _, err := r.DecideScratch(&sc, 3, usage); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := r.DecideScratch(&sc, 3, usage); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("memo-hit allocs = %v, want 0", allocs)
	}
}

// TestDecideScratchMissZeroAllocs pins the full-evaluation path at zero
// allocations once scratch buffers are warm: the explanation is built in
// the reusable byte buffer and only materialised by Scratch.Explanation.
// The window-200 row puts the P95 too deep for the top-m scan, so the
// quickselect fallback and its spare buffer are pinned too.
func TestDecideScratchMissZeroAllocs(t *testing.T) {
	for _, n := range []int{40, 200} {
		t.Run(fmt.Sprintf("window%d", n), func(t *testing.T) {
			r := mustRecommender(t, 16)
			// Noisy below the cap, so a and b differ and every call misses.
			a := cappedUsage(2.5, 3, n, 9)
			b := cappedUsage(2.5, 3, n, 10)
			var sc Scratch
			if _, err := r.DecideScratch(&sc, 3, a); err != nil {
				t.Fatal(err)
			}
			if _, err := r.DecideScratch(&sc, 3, b); err != nil {
				t.Fatal(err)
			}
			flip := false
			allocs := testing.AllocsPerRun(500, func() {
				u := a
				if flip {
					u = b
				}
				flip = !flip
				if _, err := r.DecideScratch(&sc, 3, u); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("memo-miss allocs = %v, want 0", allocs)
			}
			if hits := sc.MemoHits; hits != 0 {
				t.Fatalf("alternating windows hit the memo %d times", hits)
			}
		})
	}
}
