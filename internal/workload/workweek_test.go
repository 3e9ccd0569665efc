package workload

import (
	"math"
	"testing"
	"time"

	"caasper/internal/forecast"
	"caasper/internal/stats"
)

func TestWorkWeekShape(t *testing.T) {
	tr := WorkWeek(1)
	if tr.Duration() != 21*24*time.Hour {
		t.Fatalf("duration = %v", tr.Duration())
	}
	day := 24 * 60
	// Business days run far hotter than weekends.
	wedMean := stats.Mean(tr.Window(2*day, 3*day))
	satMean := stats.Mean(tr.Window(5*day, 6*day))
	if wedMean < satMean*1.8 {
		t.Errorf("weekday mean %v vs weekend %v: weekly cycle missing", wedMean, satMean)
	}
	// The second-Friday reporting spike is the trace's global peak.
	spikeWin := tr.Window(11*day+15*60, 11*day+19*60)
	if stats.Max(spikeWin) < 10 {
		t.Errorf("reporting spike max = %v, want ≥10", stats.Max(spikeWin))
	}
	// Weekly periodicity: Monday week 1 ≈ Monday week 2 (outside the
	// spike window).
	w1 := stats.Mean(tr.Window(0, day))
	w2 := stats.Mean(tr.Window(7*day, 8*day))
	if diff := w1 - w2; diff > 0.7 || diff < -0.7 {
		t.Errorf("weekly drift: %v vs %v", w1, w2)
	}
}

func TestWorkWeekProactiveWeeklySeason(t *testing.T) {
	// With the weekly season, the seasonal-naive forecaster predicts
	// quiet weekends correctly; with a daily season it over-predicts
	// Saturday from Friday's load.
	tr := WorkWeek(3)
	const week = 7 * 24 * 60
	const dayLen = 24 * 60
	// History: up to Saturday 00:00 of week 2.
	hist := tr.Values[:week+5*dayLen]

	weekly := &forecast.SeasonalNaive{Season: week}
	daily := &forecast.SeasonalNaive{Season: dayLen}
	horizon := 6 * 60 // Saturday morning

	wPred, err := weekly.Forecast(hist, horizon)
	if err != nil {
		t.Fatal(err)
	}
	dPred, err := daily.Forecast(hist, horizon)
	if err != nil {
		t.Fatal(err)
	}
	actual := tr.Values[week+5*dayLen : week+5*dayLen+horizon]
	var wMAE, dMAE float64
	for i, v := range actual {
		wMAE += math.Abs(wPred[i]-v) / float64(len(actual))
		dMAE += math.Abs(dPred[i]-v) / float64(len(actual))
	}
	if wMAE >= dMAE {
		t.Errorf("weekly-season MAE %v should beat daily-season MAE %v on the weekend boundary", wMAE, dMAE)
	}
}
