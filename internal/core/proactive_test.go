package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"caasper/internal/forecast"
	"caasper/internal/stats"
)

type failingForecaster struct{}

func (failingForecaster) Name() string { return "failing" }
func (failingForecaster) Forecast([]float64, int) ([]float64, error) {
	return nil, errors.New("boom")
}

func TestNewProactiveValidation(t *testing.T) {
	r := mustRecommender(t, 16)
	if _, err := NewProactive(nil, nil, 10, 5, 0); err == nil {
		t.Error("nil recommender should error")
	}
	if _, err := NewProactive(r, nil, 0, 5, 0); err == nil {
		t.Error("zero window should error")
	}
	if _, err := NewProactive(r, nil, 10, -1, 0); err == nil {
		t.Error("negative horizon should error")
	}
	if _, err := NewProactive(r, nil, 10, 5, -1); err == nil {
		t.Error("negative MinHistory should error")
	}
	if _, err := NewProactive(r, nil, 10, 5, 0); err != nil {
		t.Error("nil forecaster is allowed (pure reactive)")
	}
}

func TestProactiveFallsBackWithoutForecaster(t *testing.T) {
	r := mustRecommender(t, 16)
	p, err := NewProactive(r, nil, 40, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	hist := cappedUsage(2.5, 16, 100, 1)
	d, usedForecast, err := p.Decide(8, hist)
	if err != nil {
		t.Fatal(err)
	}
	if usedForecast {
		t.Error("nil forecaster must not report forecast use")
	}
	if d.Current.CPUCores != 8 {
		t.Errorf("current = %d", d.Current.CPUCores)
	}
}

func TestProactiveFallsBackOnShortHistory(t *testing.T) {
	r := mustRecommender(t, 16)
	p, err := NewProactive(r, &forecast.SeasonalNaive{Season: 60}, 40, 20, 500)
	if err != nil {
		t.Fatal(err)
	}
	hist := cappedUsage(3, 16, 100, 2) // < MinHistory 500
	_, usedForecast, err := p.Decide(8, hist)
	if err != nil {
		t.Fatal(err)
	}
	if usedForecast {
		t.Error("short history must stay reactive (paper period₁)")
	}
}

func TestProactiveFallsBackOnForecastError(t *testing.T) {
	r := mustRecommender(t, 16)
	p, err := NewProactive(r, failingForecaster{}, 40, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	hist := cappedUsage(3, 16, 100, 3)
	d, usedForecast, err := p.Decide(8, hist)
	if err != nil {
		t.Fatal(err)
	}
	if usedForecast {
		t.Error("failed forecast must fall back to reactive")
	}
	if d.Explanation == "" {
		t.Error("fallback still explains itself")
	}
}

func TestProactiveScalesAheadOfPredictedSpike(t *testing.T) {
	// History: two full daily cycles at one-minute resolution, where a
	// spike to ~10 cores occurs at minute 700 of each day. The decision
	// instant is minute 690 of day 3: observed usage is still low, but
	// the seasonal-naive forecast sees the spike 10 minutes ahead.
	day := 1440
	var hist []float64
	for d := 0; d < 2; d++ {
		for m := 0; m < day; m++ {
			v := 2.0
			if m >= 700 && m < 760 {
				v = 10
			}
			hist = append(hist, v)
		}
	}
	// Day 3 up to minute 690: still low.
	for m := 0; m < 690; m++ {
		hist = append(hist, 2.0)
	}

	r := mustRecommender(t, 16)
	p, err := NewProactive(r, &forecast.SeasonalNaive{Season: day}, 40, 30, day)
	if err != nil {
		t.Fatal(err)
	}
	d, usedForecast, err := p.Decide(3, hist)
	if err != nil {
		t.Fatal(err)
	}
	if !usedForecast {
		t.Fatal("forecast should be active")
	}
	if d.Delta < 1 {
		t.Errorf("proactive should scale up ahead of the spike: %s", d.Explanation)
	}
	if !strings.Contains(d.Explanation, "proactive") {
		t.Errorf("explanation = %q", d.Explanation)
	}

	// The purely reactive decision on the same observed window would
	// hold or scale down — that is exactly the difference Figure 10
	// shows between the two modes.
	rd, err := r.Decide(3, hist[len(hist)-40:])
	if err != nil {
		t.Fatal(err)
	}
	if rd.Delta > 0 {
		t.Errorf("reactive should not foresee the spike, got +%d", rd.Delta)
	}
}

func TestProactiveCombinedWindowComposition(t *testing.T) {
	// With ObservedWindow=5 and Horizon=5, a capturing forecaster can
	// verify the combined window passed to the reactive algorithm.
	r := mustRecommender(t, 16)
	capture := &capturingForecaster{out: []float64{9, 9, 9, 9, 9}}
	p, err := NewProactive(r, capture, 5, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	hist := []float64{1, 1, 1, 1, 1, 2, 2, 2, 2, 2}
	d, used, err := p.Decide(4, hist)
	if err != nil {
		t.Fatal(err)
	}
	if !used {
		t.Fatal("forecast should be used")
	}
	if len(capture.gotHistory) != len(hist) {
		t.Errorf("forecaster got %d samples, want full history %d", len(capture.gotHistory), len(hist))
	}
	// The combined window {2,2,2,2,2, 9,9,9,9,9} has P95 = 9 of 4 cores:
	// decisive scale-up even though observed usage is only 2.
	if d.Delta < 1 {
		t.Errorf("combined window should trigger scale-up: %+v", d)
	}
}

type capturingForecaster struct {
	gotHistory []float64
	out        []float64
}

func (c *capturingForecaster) Name() string { return "capturing" }
func (c *capturingForecaster) Forecast(history []float64, horizon int) ([]float64, error) {
	c.gotHistory = append([]float64(nil), history...)
	if horizon > len(c.out) {
		horizon = len(c.out)
	}
	return c.out[:horizon], nil
}

func TestProactiveZeroHorizonIsReactive(t *testing.T) {
	r := mustRecommender(t, 16)
	p, err := NewProactive(r, &forecast.SeasonalNaive{Season: 10}, 40, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, used, err := p.Decide(8, cappedUsage(3, 16, 50, 4))
	if err != nil {
		t.Fatal(err)
	}
	if used {
		t.Error("zero horizon must not use the forecast")
	}
}

func TestTail(t *testing.T) {
	xs := []float64{1, 2, 3}
	if got := tail(xs, 2); len(got) != 2 || got[0] != 2 {
		t.Errorf("tail = %v", got)
	}
	if got := tail(xs, 10); len(got) != 3 {
		t.Errorf("oversized tail = %v", got)
	}
}

func TestProactiveDeterminism(t *testing.T) {
	day := 1440
	rng := stats.NewRNG(5)
	hist := make([]float64, 2*day)
	for i := range hist {
		hist[i] = 3 + 2*math.Sin(2*math.Pi*float64(i)/float64(day)) + rng.NormFloat64()*0.1
		if hist[i] < 0 {
			hist[i] = 0
		}
	}
	r := mustRecommender(t, 16)
	p, _ := NewProactive(r, &forecast.SeasonalNaive{Season: day}, 40, 30, day)
	d1, _, err := p.Decide(6, hist)
	if err != nil {
		t.Fatal(err)
	}
	d2, _, err := p.Decide(6, hist)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Target.CPUCores != d2.Target.CPUCores || d1.Branch != d2.Branch {
		t.Error("proactive decisions must be deterministic")
	}
}
