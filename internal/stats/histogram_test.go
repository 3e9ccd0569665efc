package stats

import (
	"math"
	"strings"
	"testing"
)

func mustHistogram(t *testing.T) *DecayingHistogram {
	t.Helper()
	h, err := NewDecayingHistogram(DecayingHistogramOptions{
		FirstBucket: 0.01,
		Growth:      1.05,
		MaxValue:    100,
		HalfLife:    24 * 60, // 24h in minutes
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewDecayingHistogramValidation(t *testing.T) {
	cases := []DecayingHistogramOptions{
		{FirstBucket: 0, Growth: 1.05, MaxValue: 10, HalfLife: 1},
		{FirstBucket: 0.01, Growth: 1, MaxValue: 10, HalfLife: 1},
		{FirstBucket: 0.01, Growth: 1.05, MaxValue: 0.005, HalfLife: 1},
		{FirstBucket: 0.01, Growth: 1.05, MaxValue: 10, HalfLife: 0},
	}
	for i, c := range cases {
		if _, err := NewDecayingHistogram(c); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := mustHistogram(t)
	if !h.Empty() {
		t.Error("new histogram should be empty")
	}
	if got := h.Percentile(0.9); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
	// Invalid samples are ignored.
	h.Add(-1, 1, 0)
	h.Add(math.NaN(), 1, 0)
	h.Add(1, 0, 0)
	if !h.Empty() {
		t.Error("invalid samples should be ignored")
	}
}

func TestHistogramPercentileApproximation(t *testing.T) {
	h := mustHistogram(t)
	// 100 samples uniform over (0, 10]: P90 should be near 9.
	for i := 1; i <= 100; i++ {
		h.Add(float64(i)/10, 1, 0)
	}
	p90 := h.Percentile(0.9)
	if p90 < 8.5 || p90 > 9.8 {
		t.Errorf("P90 = %v, want ≈9 within bucket resolution", p90)
	}
	p50 := h.Percentile(0.5)
	if p50 < 4.5 || p50 > 5.6 {
		t.Errorf("P50 = %v, want ≈5", p50)
	}
	if p50 > p90 {
		t.Error("P50 should not exceed P90")
	}
}

func TestHistogramDecayForgetsOldPeaks(t *testing.T) {
	h := mustHistogram(t)
	// A burst of high samples at t=0...
	for i := 0; i < 60; i++ {
		h.Add(8, 1, float64(i))
	}
	highP90 := h.Percentile(0.9)
	if highP90 < 7 {
		t.Fatalf("P90 after burst = %v, want ≥7", highP90)
	}
	// ...then a long stretch of low usage. After several half-lives the
	// old peak's weight is negligible.
	for i := 0; i < 10*24*60; i++ {
		h.Add(1, 1, float64(60+i))
	}
	lowP90 := h.Percentile(0.9)
	if lowP90 > 2 {
		t.Errorf("P90 after decay = %v, want ≤2 (old peak forgotten)", lowP90)
	}
}

func TestHistogramNoDecayWithinShortWindow(t *testing.T) {
	// The VPA pathology from the paper: with a long half-life, P90 stays
	// high long after the load drops, blocking scale-down.
	h := mustHistogram(t)
	for i := 0; i < 8*60; i++ { // 8 hours at 7 cores
		h.Add(7, 1, float64(i))
	}
	for i := 0; i < 4*60; i++ { // 4 hours at 2 cores
		h.Add(2, 1, float64(8*60+i))
	}
	p90 := h.Percentile(0.9)
	if p90 < 6 {
		t.Errorf("P90 = %v; with 24h half-life the old peak should dominate", p90)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := mustHistogram(t)
	h.Add(1e6, 1, 0) // above MaxValue
	p := h.Percentile(1)
	if p != 100 {
		t.Errorf("overflow percentile = %v, want MaxValue 100", p)
	}
}

func TestHistogramRebasing(t *testing.T) {
	h := mustHistogram(t)
	// Spread samples across a huge time range to force weight re-basing.
	for i := 0; i < 200; i++ {
		h.Add(3, 1, float64(i)*10000)
	}
	if h.Empty() {
		t.Fatal("histogram should not be empty")
	}
	p := h.Percentile(0.9)
	if p < 2.5 || p > 3.5 {
		t.Errorf("P90 after rebasing = %v, want ≈3", p)
	}
	if math.IsInf(h.total, 0) || math.IsNaN(h.total) {
		t.Errorf("total weight overflowed: %v", h.total)
	}
}

func TestHistogramString(t *testing.T) {
	h := mustHistogram(t)
	h.Add(2, 1, 0)
	if s := h.String(); !strings.Contains(s, "DecayingHistogram") {
		t.Errorf("String = %q", s)
	}
}

func TestHistogramPercentileMonotone(t *testing.T) {
	h := mustHistogram(t)
	rng := NewRNG(3)
	for i := 0; i < 500; i++ {
		h.Add(rng.Float64()*50, 1, float64(i))
	}
	prev := 0.0
	for q := 0.0; q <= 1.0; q += 0.01 {
		p := h.Percentile(q)
		if p < prev {
			t.Fatalf("percentile not monotone at q=%v: %v < %v", q, p, prev)
		}
		prev = p
	}
}
