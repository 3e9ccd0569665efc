package forecast

import (
	"math"
	"strings"
	"testing"

	"caasper/internal/stats"
)

func sinusoid(n, period int, mean, amp float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = mean + amp*math.Sin(2*math.Pi*float64(i)/float64(period))
	}
	return out
}

func TestNaiveLastValue(t *testing.T) {
	f := &SeasonalNaive{Season: 1}
	got, err := f.Forecast([]float64{1, 2, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range got {
		if v != 3 {
			t.Errorf("naive forecast = %v, want all 3", got)
		}
	}
	if _, err := f.Forecast(nil, 3); err != ErrShortHistory {
		t.Errorf("empty history err = %v", err)
	}
	if got, _ := f.Forecast([]float64{1}, 0); got != nil {
		t.Error("zero horizon should return nil")
	}
}

func TestSeasonalNaiveRepeatsSeason(t *testing.T) {
	f := &SeasonalNaive{Season: 4}
	hist := []float64{1, 2, 3, 4, 10, 20, 30, 40}
	got, err := f.Forecast(hist, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 20, 30, 40, 10, 20}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("forecast[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSeasonalNaiveDegradesWithoutFullSeason(t *testing.T) {
	f := &SeasonalNaive{Season: 100}
	got, err := f.Forecast([]float64{5, 7}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range got {
		if v != 7 {
			t.Errorf("degraded forecast = %v, want last value 7", got)
		}
	}
}

func TestSeasonalNaivePerfectOnPeriodicSeries(t *testing.T) {
	period := 60
	hist := sinusoid(300, period, 5, 2)
	f := &SeasonalNaive{Season: period}
	pred, err := f.Forecast(hist, period)
	if err != nil {
		t.Fatal(err)
	}
	// A perfectly periodic series is forecast exactly.
	for h := 0; h < period; h++ {
		want := 5 + 2*math.Sin(2*math.Pi*float64(300+h)/float64(period))
		if want < 0 {
			want = 0
		}
		if math.Abs(pred[h]-want) > 1e-9 {
			t.Fatalf("h=%d: pred %v, want %v", h, pred[h], want)
		}
	}
}

func TestMovingAverage(t *testing.T) {
	f := &MovingAverage{Window: 3}
	got, err := f.Forecast([]float64{10, 1, 2, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 || got[1] != 2 {
		t.Errorf("MA forecast = %v, want 2", got)
	}
	// Oversized window uses everything.
	wide := &MovingAverage{Window: 100}
	got, _ = wide.Forecast([]float64{2, 4}, 1)
	if got[0] != 3 {
		t.Errorf("wide MA = %v", got[0])
	}
	if _, err := f.Forecast(nil, 1); err != ErrShortHistory {
		t.Error("empty history should error")
	}
}

func TestHoltWintersValidation(t *testing.T) {
	bad := []*HoltWinters{
		{Alpha: 0, Beta: 0.1, Gamma: 0.1, Season: 4},
		{Alpha: 0.1, Beta: 1, Gamma: 0.1, Season: 4},
		{Alpha: 0.1, Beta: 0.1, Gamma: -1, Season: 4},
		{Alpha: 0.1, Beta: 0.1, Gamma: 0.1, Season: 1},
	}
	hist := sinusoid(100, 4, 5, 1)
	for i, f := range bad {
		if _, err := f.Forecast(hist, 4); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
	ok := &HoltWinters{Alpha: 0.3, Beta: 0.1, Gamma: 0.2, Season: 50}
	if _, err := ok.Forecast(hist[:60], 4); err != ErrShortHistory {
		t.Errorf("insufficient seasons err = %v", err)
	}
}

func TestHoltWintersTracksSeasonalSeries(t *testing.T) {
	period := 24
	hist := sinusoid(period*8, period, 6, 2)
	f := &HoltWinters{Alpha: 0.3, Beta: 0.05, Gamma: 0.3, Season: period}
	pred, err := f.Forecast(hist, period)
	if err != nil {
		t.Fatal(err)
	}
	mae := 0.0
	for h := 0; h < period; h++ {
		want := 6 + 2*math.Sin(2*math.Pi*float64(len(hist)+h)/float64(period))
		mae += math.Abs(pred[h] - want)
	}
	mae /= float64(period)
	if mae > 0.5 {
		t.Errorf("Holt-Winters MAE = %v on clean seasonal series", mae)
	}
}

func TestHoltWintersWithTrend(t *testing.T) {
	period := 12
	n := period * 6
	hist := make([]float64, n)
	for i := range hist {
		hist[i] = 2 + 0.05*float64(i) + math.Sin(2*math.Pi*float64(i)/float64(period))
	}
	f := &HoltWinters{Alpha: 0.4, Beta: 0.1, Gamma: 0.3, Season: period}
	pred, err := f.Forecast(hist, period)
	if err != nil {
		t.Fatal(err)
	}
	// The forecast must continue climbing with the trend.
	lastLevel := hist[n-1]
	if pred[period-1] < lastLevel {
		t.Errorf("trend not extrapolated: pred end %v < last %v", pred[period-1], lastLevel)
	}
}

func TestARValidationAndConstantSeries(t *testing.T) {
	f := &AR{P: 0}
	if _, err := f.Forecast([]float64{1, 2, 3, 4}, 1); err == nil {
		t.Error("order 0 should error")
	}
	f = &AR{P: 3}
	if _, err := f.Forecast([]float64{1, 2}, 1); err != ErrShortHistory {
		t.Error("short history should error")
	}
	// Constant series: forecast the mean.
	got, err := f.Forecast([]float64{4, 4, 4, 4, 4, 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range got {
		if v != 4 {
			t.Errorf("constant-series forecast = %v", got)
		}
	}
}

func TestARTracksAR1Process(t *testing.T) {
	// x_t = 0.8 x_{t-1} + noise. The fitted AR(1) coefficient should be
	// near 0.8 and multi-step forecasts should decay toward the mean.
	rng := stats.NewRNG(17)
	n := 2000
	x := make([]float64, n)
	for t := 1; t < n; t++ {
		x[t] = 0.8*x[t-1] + rng.NormFloat64()*0.5
	}
	// Shift positive so the non-negativity floor doesn't distort.
	for i := range x {
		x[i] += 10
	}
	phi, ok := yuleWalker(centered(x), 1)
	if !ok {
		t.Fatal("yuleWalker failed")
	}
	if math.Abs(phi[0]-0.8) > 0.1 {
		t.Errorf("AR(1) coefficient = %v, want ≈0.8", phi[0])
	}
	f := &AR{P: 1}
	pred, err := f.Forecast(x, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Long-horizon forecast converges to the mean (≈10).
	if math.Abs(pred[49]-10) > 1.0 {
		t.Errorf("long-horizon AR forecast = %v, want ≈10", pred[49])
	}
}

func centered(x []float64) []float64 {
	m := stats.Mean(x)
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = v - m
	}
	return out
}

func TestForecastsNonNegative(t *testing.T) {
	hist := []float64{5, 3, 1, 0.2, 0.1}
	forecasters := []Forecaster{
		&SeasonalNaive{Season: 2},
		&MovingAverage{Window: 3},
		&AR{P: 2},
	}
	for _, f := range forecasters {
		pred, err := f.Forecast(hist, 10)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		for _, v := range pred {
			if v < 0 {
				t.Errorf("%s produced negative forecast %v", f.Name(), v)
			}
		}
	}
}

func TestForecasterNames(t *testing.T) {
	cases := []struct {
		f    Forecaster
		want string
	}{
		{&SeasonalNaive{Season: 1440}, "seasonal-naive(1440)"},
		{&MovingAverage{Window: 5}, "moving-average(5)"},
		{&AR{P: 3}, "ar(3)"},
		{&HoltWinters{Alpha: 0.1, Beta: 0.2, Gamma: 0.3, Season: 7}, "holt-winters"},
	}
	for _, c := range cases {
		if got := c.f.Name(); !strings.HasPrefix(got, strings.Split(c.want, "(")[0]) {
			t.Errorf("Name = %q, want prefix of %q", got, c.want)
		}
	}
}

// ---------------------------------------------------------------------------
// HistoryBound contract

// TestHistoryNeedContract: for every bounded forecaster, forecasting from
// the last HistoryNeed samples must be bit-identical to forecasting from
// the full series — that equivalence is what lets ring-backed adapters
// cap their retained history.
func TestHistoryNeedContract(t *testing.T) {
	rng := stats.NewRNG(31)
	series := make([]float64, 700)
	for i := range series {
		series[i] = 2 + math.Sin(float64(i)*2*math.Pi/48) + rng.NormFloat64()*0.1
	}
	bounded := []Forecaster{
		&SeasonalNaive{Season: 48},
		&SeasonalNaive{Season: 0},
		&MovingAverage{Window: 30},
		&Ensemble{Members: []Forecaster{&SeasonalNaive{Season: 48}, &MovingAverage{Window: 30}}},
	}
	for _, f := range bounded {
		need := HistoryNeed(f)
		if need <= 0 {
			t.Fatalf("%s: HistoryNeed = %d, want bounded > 0", f.Name(), need)
		}
		full, err := f.Forecast(series, 60)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		tail, err := f.Forecast(series[len(series)-need:], 60)
		if err != nil {
			t.Fatalf("%s tail: %v", f.Name(), err)
		}
		for i := range full {
			if full[i] != tail[i] {
				t.Fatalf("%s: tail forecast diverges at %d: %v != %v", f.Name(), i, tail[i], full[i])
			}
		}
	}

	unbounded := []Forecaster{
		&MovingAverage{Window: 0},
		&HoltWinters{Alpha: 0.3, Beta: 0.1, Gamma: 0.1, Season: 48},
		&AR{P: 4},
		&Ensemble{Members: []Forecaster{&SeasonalNaive{Season: 1}, &MovingAverage{Window: 0}}},
	}
	for _, f := range unbounded {
		if need := HistoryNeed(f); need >= 0 {
			t.Errorf("%s: HistoryNeed = %d, want unbounded (<0)", f.Name(), need)
		}
	}
	if HistoryNeed(nil) != 0 {
		t.Error("nil forecaster should need no history")
	}
}

// TestIntervalHistoryNeedCoversResiduals: the interval forecaster's bound
// must cover the two seasons residualSD reads, so the prefilter verdict
// is identical under bounded history.
func TestIntervalHistoryNeedCoversResiduals(t *testing.T) {
	rng := stats.NewRNG(33)
	series := make([]float64, 500)
	for i := range series {
		series[i] = 3 + math.Sin(float64(i)*2*math.Pi/40) + rng.NormFloat64()*0.2
	}
	f := NewIntervalSeasonalNaive(40)
	need := f.HistoryNeed()
	if need != 80 {
		t.Fatalf("HistoryNeed = %d, want 80 (2 seasons)", need)
	}
	p1, l1, h1, err := f.ForecastInterval(series, 50)
	if err != nil {
		t.Fatal(err)
	}
	p2, l2, h2, err := f.ForecastInterval(series[len(series)-need:], 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1 {
		if p1[i] != p2[i] || l1[i] != l2[i] || h1[i] != h2[i] {
			t.Fatalf("interval diverges at %d", i)
		}
	}
}
