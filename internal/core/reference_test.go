package core

import (
	"math"
	"sort"
	"testing"

	"caasper/internal/pvp"
	"caasper/internal/stats"
)

// referenceDecide is an independent Algorithm 1 oracle: it builds the PvP
// curve with pvp.BuildCurve, takes the quantile from a fully sorted copy
// via stats.QuantileSorted and the peak from a plain loop, then applies
// the decision rule. It shares no scratch, memo or selection code with
// DecideScratch. It returns the decision (without Explanation) and the
// peak the walk-down read.
func referenceDecide(t *testing.T, cfg Config, currentCores int, usage []float64) (Decision, float64) {
	t.Helper()
	var clean []float64
	for _, v := range usage {
		if !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0 {
			clean = append(clean, v)
		}
	}
	xc := currentCores
	if xc < cfg.SKUs.MinCores {
		xc = cfg.SKUs.MinCores
	}
	if xc > cfg.SKUs.MaxCores {
		xc = cfg.SKUs.MaxCores
	}
	curve, err := pvp.BuildCurve(clean, cfg.SKUs)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]float64(nil), clean...)
	sort.Float64s(sorted)
	q, err := stats.QuantileSorted(sorted, cfg.QuantileP)
	if err != nil {
		t.Fatal(err)
	}
	peak := clean[0]
	for _, v := range clean[1:] {
		if v > peak {
			peak = v
		}
	}

	floor := cfg.MinCores
	if cfg.SKUs.MinCores > floor {
		floor = cfg.SKUs.MinCores
	}
	guard := func(c int) int { return min(max(c, floor), cfg.SKUs.MaxCores) }
	round := func(sf float64) int {
		if cfg.RoundUp {
			return int(math.Ceil(sf))
		}
		return int(math.Floor(sf))
	}
	buffered := func(v float64) int { return int(math.Ceil(v / (1 - cfg.SlackHigh))) }

	s := curve.SlopeAt(xc)
	skew := curve.Skew()
	d := Decision{Slope: s, Skew: skew, RawSF: pvp.ScalingFactor(s, skew, cfg.SF), Quantile: q}
	capf := float64(xc)
	tc := xc
	switch {
	case s >= cfg.SlopeHigh || q >= (1-cfg.SlackHigh)*capf:
		step := min(max(round(d.RawSF), 1), cfg.MaxStepUp)
		target := xc + step
		if need := buffered(q); target < need {
			target = min(max(need, xc+1), xc+cfg.MaxStepUp)
		}
		d.Branch, tc = BranchScaleUp, guard(target)
	case s <= cfg.SlopeLow || q <= cfg.SlackLow*capf:
		if curve.FlatTailAt(xc) && s == 0 {
			target := min(max(curve.WalkDown(xc, cfg.WalkDownPerfTarget), buffered(peak)), xc)
			d.Branch, tc = BranchWalkDown, guard(target)
		} else {
			step := min(max(round(d.RawSF), 1), cfg.MaxStepDown)
			target := min(max(xc-step, buffered(q)), xc)
			d.Branch, tc = BranchScaleDown, guard(target)
		}
		if tc >= xc {
			d.Branch, tc = BranchHold, xc
		}
	default:
		d.Branch = BranchHold
	}
	d.Current = Resources{CPUCores: xc}
	d.Target = Resources{CPUCores: tc}
	d.Delta = tc - xc
	return d, peak
}

// sameDecision compares every Decision field, floats by their bits.
func sameDecision(a, b Decision) bool {
	return a.Current == b.Current && a.Target == b.Target && a.Delta == b.Delta &&
		a.Branch == b.Branch && a.Explanation == b.Explanation &&
		math.Float64bits(a.Slope) == math.Float64bits(b.Slope) &&
		math.Float64bits(a.Skew) == math.Float64bits(b.Skew) &&
		math.Float64bits(a.RawSF) == math.Float64bits(b.RawSF) &&
		math.Float64bits(a.Quantile) == math.Float64bits(b.Quantile)
}

// TestDecideMatchesSortedReference pins DecideScratch, through a
// long-lived scratch (memo and buffer swap active) and through a fresh one
// each time, to the sort-based oracle above over every randomWindow regime,
// windows of 1–200 samples and quantiles from the median to the maximum —
// so both the top-m scan and the quickselect fallback of
// stats.QuantileMax are checked against a full sort.
func TestDecideMatchesSortedReference(t *testing.T) {
	kernel := map[bool]int{} // m ≤ topMax → count
	branches := map[Branch]int{}
	for _, p := range []float64{0.5, 0.9, 0.95, 0.99, 1} {
		cfg := DefaultConfig(16)
		cfg.QuantileP = p
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(31)
		var sc Scratch
		for trial := 0; trial < 1000; trial++ {
			n := 1 + trial%200
			usage := randomWindowN(rng, trial, n)
			cur := windowCur(trial)
			want, peak := referenceDecide(t, cfg, cur, usage)
			for _, s := range []*Scratch{&sc, {}} {
				got, err := r.DecideScratch(s, cur, usage)
				if err != nil {
					t.Fatal(err)
				}
				if !sameDecision(got, want) {
					t.Fatalf("p=%v trial %d n=%d cur=%d:\n got  %+v\n want %+v", p, trial, n, cur, got, want)
				}
				if (s.expKind == expWalkDown || s.expKind == expHoldNoCheaper) &&
					math.Float64bits(s.expPeak) != math.Float64bits(peak) {
					t.Fatalf("p=%v trial %d: peak %v, want %v", p, trial, s.expPeak, peak)
				}
			}
			branches[want.Branch]++
			lo := int(math.Floor(p * float64(n-1)))
			kernel[n-lo <= 8]++
		}
	}
	if kernel[true] == 0 || kernel[false] == 0 {
		t.Errorf("kernel coverage: %d top-m scans, %d quickselects", kernel[true], kernel[false])
	}
	for _, br := range []Branch{BranchScaleUp, BranchScaleDown, BranchWalkDown, BranchHold} {
		if branches[br] == 0 {
			t.Errorf("branch %s never exercised", br)
		}
	}
}

// TestDecideScratchMemoBufferSwap: the preprocessed-window buffer and the
// memo key swap roles on every miss, so they must never alias, and the
// quickselect fallback (the window-200 row: P95 is 11 deep) must not
// scribble on the memo key. Windows A, B, A on one scratch miss three
// times, A again hits, and after each call the memo window equals the
// preprocessed input.
func TestDecideScratchMemoBufferSwap(t *testing.T) {
	for _, n := range []int{40, 200} {
		r := mustRecommender(t, 16)
		a := cappedUsage(4, 6, n, 3)
		b := cappedUsage(4, 6, n, 4)
		a[7], b[11] = math.NaN(), -1 // dropped by preprocessing
		var sc Scratch
		for i, step := range []struct {
			usage []float64
			hit   bool
		}{{a, false}, {b, false}, {a, false}, {a, true}} {
			hits := sc.MemoHits
			if _, err := r.DecideScratch(&sc, 4, step.usage); err != nil {
				t.Fatal(err)
			}
			if gotHit := sc.MemoHits > hits; gotHit != step.hit {
				t.Fatalf("n=%d step %d: hit = %v, want %v", n, i, gotHit, step.hit)
			}
			want := appendPreprocessed(nil, step.usage)
			got := sc.MemoSnapshot().Window
			if len(got) != len(want) {
				t.Fatalf("n=%d step %d: memo window has %d samples, want %d", n, i, len(got), len(want))
			}
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("n=%d step %d: memo window[%d] = %v, want %v", n, i, j, got[j], want[j])
				}
			}
		}
		if sc.MemoMisses != 3 || sc.MemoHits != 1 {
			t.Fatalf("n=%d: misses/hits = %d/%d, want 3/1", n, sc.MemoMisses, sc.MemoHits)
		}
	}
}
