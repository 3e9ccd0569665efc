package core

import (
	"math"
	"sort"
	"testing"

	"caasper/internal/pvp"
	"caasper/internal/stats"
)

// referenceDecide is an independent Algorithm 1 oracle: it builds the PvP
// curve by the direct per-SKU scan of Eq. 1 (count the samples above
// cores·0.98 for every SKU), takes the quantile from a fully sorted copy
// via stats.QuantileSorted and the peak from a plain loop, then applies
// the decision rule. It shares no scratch, skew table, histogram or selection
// code with DecideScratch. It returns the decision (without Explanation)
// and the peak the walk-down read.
func referenceDecide(t *testing.T, cfg Config, currentCores int, usage []float64) (Decision, float64) {
	t.Helper()
	clean := referenceClean(usage)
	xc := currentCores
	if xc < cfg.SKUs.MinCores {
		xc = cfg.SKUs.MinCores
	}
	if xc > cfg.SKUs.MaxCores {
		xc = cfg.SKUs.MaxCores
	}
	curve := &pvp.Curve{Range: cfg.SKUs}
	for cores := cfg.SKUs.MinCores; cores <= cfg.SKUs.MaxCores; cores++ {
		exceed := 0
		for _, u := range clean {
			if u > float64(cores)*0.98 {
				exceed++
			}
		}
		curve.Points = append(curve.Points, pvp.Point{
			Cores:       cores,
			Performance: 1 - float64(exceed)/float64(len(clean)),
		})
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

// referenceClean is Algorithm 1 line 2 written out: the window without
// its NaN, ±Inf and negative samples, in order.
func referenceClean(usage []float64) []float64 {
	var clean []float64
	for _, v := range usage {
		if !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0 {
			clean = append(clean, v)
		}
	}
	return clean
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
// long-lived scratch (skew table and grown buffers active) and through a fresh one
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

// TestDecideFilteredQuickselect: when line 2 drops a sample, the window
// is filtered into the scratch's buffer, and a quantile too deep for the
// top-m scan quickselects in that same buffer, reordering the filtered
// window. The peak must still be the first maximum in window order, as
// the oracle's plain loop reads it: a window of zeros whose first is −0
// peaks at −0 (the walk-down explains with it), and one whose first is +0
// at +0. Each is decided at P95 over 200 samples (11 deep) on a fresh
// scratch and on one that just decided the other.
func TestDecideFilteredQuickselect(t *testing.T) {
	r := mustRecommender(t, 16)
	windows := make([][]float64, 2)
	for i, first := range []float64{math.Copysign(0, -1), 0} {
		w := make([]float64, 200)
		for j := range w {
			w[j] = math.Copysign(0, float64(j%2*2-1)) // −0, +0, −0, …
		}
		w[0], w[7], w[100] = first, math.NaN(), -1
		windows[i] = w
	}
	var shared Scratch
	for round := 0; round < 2; round++ {
		for i, w := range windows {
			want, peak := referenceDecide(t, r.cfg, 8, w)
			for _, sc := range []*Scratch{&shared, {}} {
				got, err := r.DecideScratch(sc, 8, w)
				if err != nil {
					t.Fatal(err)
				}
				if !sameDecision(got, want) || sc.expKind != expWalkDown && sc.expKind != expHoldNoCheaper ||
					math.Float64bits(sc.expPeak) != math.Float64bits(peak) {
					t.Fatalf("round %d window %d: %+v peak %v (kind %d), want %+v peak %v",
						round, i, got, sc.expPeak, sc.expKind, want, peak)
				}
			}
			if !math.IsNaN(w[7]) || w[100] != -1 {
				t.Fatal("DecideScratch must not mutate its input")
			}
		}
	}
}

// TestResumeRestoresTheLastDecision: a scratch resumed from another's
// Last reports the same decision and explanation, and its next decision
// is evaluated afresh, equal to the oracle's; a planted wrong decision
// never answers it.
func TestResumeRestoresTheLastDecision(t *testing.T) {
	r := mustRecommender(t, 16)
	var src Scratch
	first := []float64{3.9, 3.95, 4, 3.99}
	if _, err := r.DecideScratch(&src, 4, first); err != nil {
		t.Fatal(err)
	}
	d, kind, peak := src.Last()
	var sc Scratch
	r.Resume(&sc, *d, kind, peak, 0)
	if got, _, _ := sc.Last(); !sameDecision(*got, *d) || sc.Explanation() != src.Explanation() {
		t.Fatalf("resumed %+v %q, want %+v %q", *got, sc.Explanation(), *d, src.Explanation())
	}
	r.Resume(&sc, Decision{Branch: BranchScaleUp, Delta: 7}, kind, peak, 0)
	for _, w := range [][]float64{{-1, 2, 3}, {2, math.Inf(1), 3}, first} {
		want, _ := referenceDecide(t, r.cfg, 4, w)
		got, err := r.DecideScratch(&sc, 4, w)
		if err != nil {
			t.Fatal(err)
		}
		if !sameDecision(got, want) {
			t.Fatalf("window %v: decision %+v, want %+v", w, got, want)
		}
	}
}
