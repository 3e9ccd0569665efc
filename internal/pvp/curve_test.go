package pvp

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"caasper/internal/stats"
)

func defaultRange() SKURange {
	return SKURange{MinCores: 1, MaxCores: 16, PricePerCore: 1}
}

func TestSKURangeValidate(t *testing.T) {
	if err := (SKURange{MinCores: 0, MaxCores: 4}).Validate(); err == nil {
		t.Error("MinCores 0 should fail")
	}
	if err := (SKURange{MinCores: 4, MaxCores: 2}).Validate(); err == nil {
		t.Error("inverted range should fail")
	}
	if err := defaultRange().Validate(); err != nil {
		t.Error(err)
	}
	if got := defaultRange().Count(); got != 16 {
		t.Errorf("Count = %d", got)
	}
}

func TestBuildCurveValidation(t *testing.T) {
	if _, err := BuildCurve(nil, defaultRange()); err == nil {
		t.Error("empty window should error")
	}
	if _, err := BuildCurve([]float64{1}, SKURange{}); err == nil {
		t.Error("bad range should error")
	}
}

func TestCurveMonotoneNonDecreasing(t *testing.T) {
	rng := stats.NewRNG(1)
	usage := make([]float64, 500)
	for i := range usage {
		usage[i] = rng.Float64() * 12
	}
	c, err := BuildCurve(usage, defaultRange())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(c.Points); i++ {
		if c.Points[i].Performance < c.Points[i-1].Performance {
			t.Fatalf("curve decreases at %d cores", c.Points[i].Cores)
		}
	}
	for _, s := range c.Slopes() {
		if s < 0 {
			t.Fatal("negative slope")
		}
	}
}

func TestCurveEndpointValues(t *testing.T) {
	// All usage below 1 core: every SKU has performance 1.
	low := []float64{0.2, 0.3, 0.5}
	c, err := BuildCurve(low, defaultRange())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range c.Points {
		if p.Performance != 1 {
			t.Errorf("SKU %d performance = %v, want 1", p.Cores, p.Performance)
		}
	}
	// All usage way above the max SKU: every SKU throttles.
	high := []float64{100, 120}
	c, err = BuildCurve(high, defaultRange())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range c.Points {
		if p.Performance != 0 {
			t.Errorf("SKU %d performance = %v, want 0", p.Cores, p.Performance)
		}
	}
}

func TestAtCapCountsAsThrottled(t *testing.T) {
	// Samples pinned exactly at 8 cores (an 8-core cap) must count as
	// throttled for the 8-core SKU — the core insight that makes slope
	// detection work on capped telemetry.
	usage := make([]float64, 100)
	for i := range usage {
		usage[i] = 8
	}
	c, err := BuildCurve(usage, defaultRange())
	if err != nil {
		t.Fatal(err)
	}
	if perf := c.Performance(8); perf != 0 {
		t.Errorf("performance at cap = %v, want 0 (pinned samples are throttling)", perf)
	}
	if perf := c.Performance(9); perf != 1 {
		t.Errorf("performance one core up = %v, want 1", perf)
	}
	// The slope at 8 cores is therefore maximal.
	if s := c.SlopeAt(8); math.Abs(s-SlopeScale) > 1e-9 {
		t.Errorf("slope at cap = %v, want %v", s, SlopeScale)
	}
}

func TestThrottledWorkloadSteepSlope(t *testing.T) {
	// Figure 5 shape: capped-at-8 usage gives a steep slope at 8 cores;
	// a healthy workload at 32 cores gives a moderate slope.
	rng := stats.NewRNG(2)
	capped := make([]float64, 400)
	for i := range capped {
		v := 8.5 + rng.NormFloat64()*1.5
		if v > 8 {
			v = 8
		}
		if v < 0 {
			v = 0
		}
		capped[i] = v
	}
	c, err := BuildCurve(capped, SKURange{MinCores: 1, MaxCores: 32})
	if err != nil {
		t.Fatal(err)
	}
	if s := c.SlopeAt(8); s < 2 {
		t.Errorf("throttled slope = %v, want steep (≥2)", s)
	}

	healthy := make([]float64, 400)
	for i := range healthy {
		healthy[i] = 24 + rng.NormFloat64()*5
	}
	h, err := BuildCurve(healthy, SKURange{MinCores: 1, MaxCores: 40})
	if err != nil {
		t.Fatal(err)
	}
	s32 := h.SlopeAt(32)
	if s32 >= 2 || s32 < 0 {
		t.Errorf("healthy slope = %v, want moderate (<2)", s32)
	}
}

func TestSlopeAtBounds(t *testing.T) {
	usage := []float64{3, 3, 3}
	c, _ := BuildCurve(usage, defaultRange())
	if s := c.SlopeAt(16); s != 0 {
		t.Errorf("slope at top of ladder = %v, want 0", s)
	}
	if s := c.SlopeAt(-5); s != c.Slopes()[0] {
		t.Errorf("slope below ladder should clamp to first slope")
	}
	// Single-SKU ladder has no slopes.
	one, _ := BuildCurve(usage, SKURange{MinCores: 4, MaxCores: 4})
	if s := one.SlopeAt(4); s != 0 {
		t.Errorf("single-SKU slope = %v", s)
	}
}

func TestPerformanceClamping(t *testing.T) {
	c, _ := BuildCurve([]float64{2}, defaultRange())
	if c.Performance(-3) != c.Points[0].Performance {
		t.Error("below-range should clamp to first point")
	}
	if c.Performance(99) != c.Points[len(c.Points)-1].Performance {
		t.Error("above-range should clamp to last point")
	}
}

func TestFlatTailDetection(t *testing.T) {
	// Over-provisioned: usage ~2-3, allocation 12 (Figure 7b).
	rng := stats.NewRNG(3)
	usage := make([]float64, 300)
	for i := range usage {
		usage[i] = 2.5 + rng.NormFloat64()*0.4
	}
	c, err := BuildCurve(usage, defaultRange())
	if err != nil {
		t.Fatal(err)
	}
	if !c.FlatTailAt(12) {
		t.Error("12 cores should be on the flat tail")
	}
	if c.FlatTailAt(2) {
		t.Error("2 cores should not be on the flat tail")
	}
}

func TestWalkDown(t *testing.T) {
	rng := stats.NewRNG(4)
	usage := make([]float64, 300)
	for i := range usage {
		usage[i] = 2.8 + rng.NormFloat64()*0.3
	}
	c, err := BuildCurve(usage, defaultRange())
	if err != nil {
		t.Fatal(err)
	}
	// From 12 cores, walking down at perfTarget 1.0 should land near 4
	// cores (the cheapest SKU fully covering ~3.5-core peaks) — roughly
	// the paper's "scale down by almost 8 cores" example.
	got := c.WalkDown(12, 1.0)
	if got < 3 || got > 5 {
		t.Errorf("WalkDown(12) = %d, want 3-5", got)
	}
	// Walking down from the floor stays put.
	if c.WalkDown(1, 1.0) != 1 {
		t.Error("WalkDown at floor should stay")
	}
	// With an unreachable target nothing changes.
	heavy := make([]float64, 100)
	for i := range heavy {
		heavy[i] = 50
	}
	hc, _ := BuildCurve(heavy, defaultRange())
	if hc.WalkDown(10, 1.0) != 10 {
		t.Error("unreachable target should not move")
	}
}

func TestSkewNonNegative(t *testing.T) {
	f := func(seed uint16) bool {
		rng := stats.NewRNG(uint64(seed))
		usage := make([]float64, 50)
		for i := range usage {
			usage[i] = rng.Float64() * 20
		}
		c, err := BuildCurve(usage, defaultRange())
		if err != nil {
			return false
		}
		return c.Skew() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCurvePricing(t *testing.T) {
	c, _ := BuildCurve([]float64{1}, SKURange{MinCores: 2, MaxCores: 4, PricePerCore: 10})
	if c.Points[0].MonthlyPrice != 20 || c.Points[2].MonthlyPrice != 40 {
		t.Errorf("prices = %v, %v", c.Points[0].MonthlyPrice, c.Points[2].MonthlyPrice)
	}
	// Zero price defaults to 1 per core.
	d, _ := BuildCurve([]float64{1}, SKURange{MinCores: 2, MaxCores: 3})
	if d.Points[0].MonthlyPrice != 2 {
		t.Errorf("default price = %v", d.Points[0].MonthlyPrice)
	}
}

func TestCurveString(t *testing.T) {
	c, _ := BuildCurve([]float64{1}, defaultRange())
	if !strings.Contains(c.String(), "Curve{") {
		t.Errorf("String = %q", c.String())
	}
	empty := &Curve{}
	if empty.String() != "Curve{}" {
		t.Errorf("empty String = %q", empty.String())
	}
}

func TestScalingFactorShape(t *testing.T) {
	p := ScalingFactorParams{CMin: 2, SkewWeight: 1}
	// SF is zero-floored and monotone in s.
	if sf := ScalingFactor(0, 0, p); math.Abs(sf-math.Log(2)) > 1e-9 {
		t.Errorf("SF(0) = %v, want ln(cmin)=ln 2", sf)
	}
	prev := -1.0
	for s := 0.0; s <= 10; s += 0.5 {
		sf := ScalingFactor(s, 5, p)
		if sf < prev {
			t.Fatalf("SF not monotone at s=%v", s)
		}
		prev = sf
	}
	// Higher skew scales more aggressively.
	if ScalingFactor(2, 10, p) <= ScalingFactor(2, 1, p) {
		t.Error("higher skew should give larger SF")
	}
	// Logarithmic decay: the increment shrinks as s grows.
	d1 := ScalingFactor(2, 5, p) - ScalingFactor(1, 5, p)
	d2 := ScalingFactor(9, 5, p) - ScalingFactor(8, 5, p)
	if d2 >= d1 {
		t.Errorf("SF should decelerate: d1=%v d2=%v", d1, d2)
	}
	// Invalid inputs are sanitised.
	if sf := ScalingFactor(math.NaN(), -3, p); math.IsNaN(sf) || sf < 0 {
		t.Errorf("SF of garbage = %v", sf)
	}
	// Log argument floored at 1 → SF never negative.
	if sf := ScalingFactor(0, 0, ScalingFactorParams{CMin: 0.1, SkewWeight: 1}); sf < 0 {
		t.Errorf("SF = %v, want ≥ 0", sf)
	}
}

func TestScalingFactorPaperExample(t *testing.T) {
	// Paper Figure 4: slope 1.38 with strong skew recommends scaling up
	// by ~3.7 cores (rounded down to 3 by the whole-core invariant).
	// With skewWeight tuned to the paper's calibration, ln(skew·s+2)
	// ≈ 3.7 requires skew·s ≈ 39; we verify the formula reproduces that.
	p := ScalingFactorParams{CMin: 2, SkewWeight: 28.5}
	sf := ScalingFactor(1.38, 1.0, p)
	if math.Abs(sf-3.73) > 0.05 {
		t.Errorf("SF = %v, want ≈3.73", sf)
	}
}

func TestScalingFactorCurve(t *testing.T) {
	slopes, factors := ScalingFactorCurve(2, ScalingFactorParams{CMin: 2, SkewWeight: 1}, 10, 21)
	if len(slopes) != 21 || len(factors) != 21 {
		t.Fatalf("lengths = %d, %d", len(slopes), len(factors))
	}
	if slopes[0] != 0 || slopes[20] != 10 {
		t.Errorf("slope endpoints = %v, %v", slopes[0], slopes[20])
	}
	for i := 1; i < len(factors); i++ {
		if factors[i] < factors[i-1] {
			t.Fatal("factors not monotone")
		}
	}
	// Degenerate n clamps to 2.
	s2, f2 := ScalingFactorCurve(1, ScalingFactorParams{CMin: 2, SkewWeight: 1}, 5, 1)
	if len(s2) != 2 || len(f2) != 2 {
		t.Errorf("clamped lengths = %d, %d", len(s2), len(f2))
	}
}

// ---------------------------------------------------------------------------
// Histogram curve build equivalence (the O(samples + SKUs) rebuild)

// bruteExceedCurve is the direct O(samples × SKUs) definition the histogram
// build must reproduce bit-for-bit.
func bruteExceedCurve(usage []float64, r SKURange) []float64 {
	const eps = 0.02
	out := make([]float64, 0, r.Count())
	for cores := r.MinCores; cores <= r.MaxCores; cores++ {
		capf := float64(cores)
		var exceed int
		for _, u := range usage {
			if u > capf*(1-eps) {
				exceed++
			}
		}
		out = append(out, 1-float64(exceed)/float64(len(usage)))
	}
	return out
}

func TestBuildCurveMatchesBruteForce(t *testing.T) {
	rng := stats.NewRNG(99)
	ranges := []SKURange{
		{MinCores: 1, MaxCores: 16},
		{MinCores: 2, MaxCores: 32},
		{MinCores: 5, MaxCores: 5},
		{MinCores: 1, MaxCores: 128},
	}
	var c Curve
	for trial := 0; trial < 200; trial++ {
		r := ranges[trial%len(ranges)]
		n := 1 + trial%60
		usage := make([]float64, n)
		for i := range usage {
			switch trial % 5 {
			case 0:
				usage[i] = rng.Range(0, float64(r.MaxCores)+4)
			case 1:
				// Exactly at SKU boundaries: cores·0.98, the tie case.
				usage[i] = float64(1+i%r.MaxCores) * 0.98
			case 2:
				usage[i] = -rng.Range(0, 3) // below the whole ladder
			case 3:
				usage[i] = float64(r.MaxCores) * 10 // above the ladder
			default:
				usage[i] = rng.Range(0, float64(r.MaxCores))
			}
		}
		if trial%7 == 0 {
			usage[0] = math.NaN()
		}
		if trial%11 == 0 {
			usage[n-1] = math.Inf(1)
		}
		if trial%13 == 0 && n > 1 {
			usage[n/2] = math.Inf(-1)
		}
		if err := BuildCurveInto(&c, usage, r); err != nil {
			t.Fatal(err)
		}
		want := bruteExceedCurve(usage, r)
		if len(c.Points) != len(want) {
			t.Fatalf("trial %d: %d points, want %d", trial, len(c.Points), len(want))
		}
		for i, w := range want {
			if c.Points[i].Performance != w {
				t.Fatalf("trial %d range %+v: point %d perf %v, want %v (usage %v)",
					trial, r, i, c.Points[i].Performance, w, usage)
			}
		}
	}
}

// TestBuildCurveIntoSteadyStateZeroAllocs: the per-decision rebuild must
// not allocate once the curve's scratch buffers are warm.
func TestBuildCurveIntoSteadyStateZeroAllocs(t *testing.T) {
	r := defaultRange()
	usage := make([]float64, 40)
	for i := range usage {
		usage[i] = float64((i*37)%17) + 0.5
	}
	var c Curve
	if err := BuildCurveInto(&c, usage, r); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if err := BuildCurveInto(&c, usage, r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("BuildCurveInto steady-state allocs = %v, want 0", allocs)
	}
}
