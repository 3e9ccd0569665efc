package tuning

import (
	"strings"
	"testing"
	"time"

	"caasper/internal/sim"
	"caasper/internal/stats"
	"caasper/internal/trace"
	"caasper/internal/workload"
)

func shortCyclicalTrace() *trace.Trace {
	rng := stats.NewRNG(1)
	day := 6 * 60.0 // compressed "day" for fast tests
	p := workload.WithNoise(workload.Add(
		workload.Diurnal(2, 6, day/2),
		workload.Repeat(workload.Spike(workload.Constant(0), day*0.7, 30, 3), day),
	), 0.2, rng)
	return workload.Render("mini-cyclical", p, 18*time.Hour)
}

func TestParamsToConfig(t *testing.T) {
	p := Params{
		SlopeHigh: 3, SlopeLow: 0.1, SlackHigh: 0.1, SlackLow: 0.3,
		MaxStepUp: 6, MaxStepDown: 2, MinCores: 3, QuantileP: 0.95,
		WindowMinutes: 40,
	}
	cfg := p.ToConfig(16)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.MinCores != 3 || cfg.MaxStepUp != 6 || cfg.SF.CMin != 3 {
		t.Errorf("config = %+v", cfg)
	}
	if p.Proactive() {
		t.Error("zero horizon should be reactive")
	}
	p.HorizonMinutes = 30
	if !p.Proactive() {
		t.Error("nonzero horizon should be proactive")
	}
	if !strings.Contains(p.String(), "proactive") {
		t.Errorf("String = %q", p.String())
	}
}

func TestSearchSpaceSampleWithinBounds(t *testing.T) {
	space := DefaultSearchSpace()
	rng := stats.NewRNG(7)
	var sawProactive, sawReactive bool
	for i := 0; i < 500; i++ {
		p := space.Sample(rng)
		if p.SlopeHigh < p.SlopeLow {
			t.Fatalf("invariant broken: %+v", p)
		}
		if p.SlopeHigh < space.SlopeLow[0] || p.SlopeHigh > space.SlopeHigh[1] {
			t.Fatalf("SlopeHigh out of range: %v", p.SlopeHigh)
		}
		if p.MaxStepUp < space.MaxStepUp[0] || p.MaxStepUp > space.MaxStepUp[1] {
			t.Fatalf("MaxStepUp out of range: %v", p.MaxStepUp)
		}
		if p.MinCores < 2 || p.MinCores > 4 {
			t.Fatalf("MinCores out of range: %v", p.MinCores)
		}
		if p.Proactive() {
			sawProactive = true
			if p.HorizonMinutes < space.HorizonMinutes[0] || p.HorizonMinutes > space.HorizonMinutes[1] {
				t.Fatalf("Horizon out of range: %v", p.HorizonMinutes)
			}
		} else {
			sawReactive = true
		}
		// Sampled configs must validate.
		if err := p.ToConfig(20).Validate(); err != nil {
			t.Fatalf("sampled config invalid: %v (%+v)", err, p)
		}
	}
	if !sawProactive || !sawReactive {
		t.Error("sampler should mix reactive and proactive combinations")
	}
}

func TestSearchSpaceDegenerateIntRange(t *testing.T) {
	space := DefaultSearchSpace()
	space.MaxStepUp = [2]int{5, 5}
	rng := stats.NewRNG(1)
	for i := 0; i < 20; i++ {
		if p := space.Sample(rng); p.MaxStepUp != 5 {
			t.Fatalf("degenerate range sampled %d", p.MaxStepUp)
		}
	}
}

func TestEvaluateAndObjective(t *testing.T) {
	tr := shortCyclicalTrace()
	simOpts := sim.DefaultOptions(8, 12)
	p := Params{
		SlopeHigh: 2, SlopeLow: 0.2, SlackHigh: 0.1, SlackLow: 0.3,
		MaxStepUp: 8, MaxStepDown: 2, MinCores: 2, QuantileP: 0.95,
		WindowMinutes: 40,
	}
	ev, err := Evaluate(tr, p, simOpts, 360)
	if err != nil {
		t.Fatal(err)
	}
	if ev.K <= 0 {
		t.Errorf("K = %v, expected some slack", ev.K)
	}
	if ev.Cost <= 0 {
		t.Errorf("cost = %v", ev.Cost)
	}
	// G(0, e) ignores slack entirely.
	if Objective(0, ev) != ev.C {
		t.Error("G(0) should equal C")
	}
	if Objective(2, ev) != 2*ev.K+ev.C {
		t.Error("G(2) mismatch")
	}
}

func TestRandomSearchProducesTradeoff(t *testing.T) {
	tr := shortCyclicalTrace()
	simOpts := sim.DefaultOptions(8, 12)
	evals, err := RandomSearch(tr, SearchOptions{
		Samples:       60,
		Seed:          11,
		Sim:           &simOpts,
		SeasonMinutes: 360,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) < 50 {
		t.Fatalf("only %d evaluations", len(evals))
	}
	// The search must produce spread in both K and C.
	var minK, maxK = evals[0].K, evals[0].K
	for _, e := range evals {
		if e.K < minK {
			minK = e.K
		}
		if e.K > maxK {
			maxK = e.K
		}
	}
	if maxK <= minK {
		t.Error("no K spread in search results")
	}

	// Determinism.
	evals2, err := RandomSearch(tr, SearchOptions{
		Samples:       60,
		Seed:          11,
		Sim:           &simOpts,
		SeasonMinutes: 360,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(evals2) != len(evals) || evals2[0].K != evals[0].K {
		t.Error("search must be deterministic per seed")
	}
}

func TestRandomSearchValidation(t *testing.T) {
	if _, err := RandomSearch(nil, SearchOptions{Samples: 5}); err == nil {
		t.Error("nil trace should fail")
	}
	tr := shortCyclicalTrace()
	if _, err := RandomSearch(tr, SearchOptions{Samples: 0}); err == nil {
		t.Error("zero samples should fail")
	}
}

func TestBestForAlpha(t *testing.T) {
	evals := []Evaluation{
		{Params: Params{MinCores: 2}, K: 100, C: 0, N: 5},  // high slack, no throttle
		{Params: Params{MinCores: 3}, K: 10, C: 50, N: 3},  // balanced
		{Params: Params{MinCores: 4}, K: 0, C: 200, N: 10}, // no slack, heavy throttle
	}
	// α = 0: only C matters → first entry.
	best, err := BestForAlpha(0, evals)
	if err != nil {
		t.Fatal(err)
	}
	if best.K != 100 {
		t.Errorf("α=0 best = %+v", best)
	}
	// Huge α: only K matters → third entry.
	best, _ = BestForAlpha(1000, evals)
	if best.K != 0 {
		t.Errorf("α→∞ best = %+v", best)
	}
	// Moderate α picks the balanced one: G(1) = {100, 60, 200}.
	best, _ = BestForAlpha(1, evals)
	if best.K != 10 {
		t.Errorf("α=1 best = %+v", best)
	}
	if _, err := BestForAlpha(1, nil); err == nil {
		t.Error("empty evaluations should fail")
	}
}

func TestBestForAlphaTieBreaks(t *testing.T) {
	evals := []Evaluation{
		{Params: Params{MinCores: 2}, K: 10, C: 10, N: 5, Cost: 100},
		{Params: Params{MinCores: 3}, K: 10, C: 10, N: 2, Cost: 90},
		{Params: Params{MinCores: 4}, K: 10, C: 10, N: 2, Cost: 80},
	}
	best, _ := BestForAlpha(1, evals)
	if best.N != 2 || best.Cost != 80 {
		t.Errorf("tie-break = %+v, want fewest scalings then cheapest", best)
	}
}

func TestSampleAlphas(t *testing.T) {
	alphas := SampleAlphas(100, -5, 5, 3)
	if len(alphas) != 100 {
		t.Fatalf("len = %d", len(alphas))
	}
	for i, a := range alphas {
		if a < 0.0067 || a > 148.5 {
			t.Fatalf("alpha %v out of e^±5 range", a)
		}
		if i > 0 && a < alphas[i-1] {
			t.Fatal("alphas must be sorted")
		}
	}
	// Determinism.
	again := SampleAlphas(100, -5, 5, 3)
	for i := range again {
		if again[i] != alphas[i] {
			t.Fatal("alpha sampling must be deterministic")
		}
	}
}

func TestParetoFrontier(t *testing.T) {
	evals := []Evaluation{
		{K: 1, C: 100},
		{K: 2, C: 50},
		{K: 3, C: 60}, // dominated by (2, 50)
		{K: 4, C: 10},
		{K: 5, C: 10}, // dominated by (4, 10)
		{K: 6, C: 5},
	}
	front := ParetoFrontier(evals)
	if len(front) != 4 {
		t.Fatalf("frontier = %+v", front)
	}
	// Sorted by K, strictly decreasing C.
	for i := 1; i < len(front); i++ {
		if front[i].K < front[i-1].K || front[i].C >= front[i-1].C {
			t.Fatalf("frontier not staircase: %+v", front)
		}
	}
	if ParetoFrontier(nil) != nil {
		t.Error("empty input should return nil")
	}
	// Identical points: exactly one survives.
	same := []Evaluation{{K: 1, C: 1}, {K: 1, C: 1}}
	if got := ParetoFrontier(same); len(got) != 1 {
		t.Errorf("identical points frontier = %d", len(got))
	}
}

func TestAlphaSweepMonotoneTradeoff(t *testing.T) {
	// Figure 13's property: as α grows, the chosen combination's slack
	// K must not increase (and throttling C must not decrease).
	tr := shortCyclicalTrace()
	simOpts := sim.DefaultOptions(8, 12)
	evals, err := RandomSearch(tr, SearchOptions{
		Samples:       80,
		Seed:          5,
		Sim:           &simOpts,
		SeasonMinutes: 360,
	})
	if err != nil {
		t.Fatal(err)
	}
	alphas := []float64{0, 0.063, 0.447, 2.28, 50}
	var prevK, prevC float64
	for i, a := range alphas {
		best, err := BestForAlpha(a, evals)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if best.K > prevK+1e-9 {
				t.Errorf("α=%v: K=%v rose above %v", a, best.K, prevK)
			}
			if best.C < prevC-1e-9 {
				t.Errorf("α=%v: C=%v fell below %v", a, best.C, prevC)
			}
		}
		prevK, prevC = best.K, best.C
	}
}
