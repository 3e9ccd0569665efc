// Package forecast provides the pluggable time-series forecasters behind
// CaaSPER's proactive mode (paper §4.3). The paper evaluated OpenShift's
// predictors, sktime's naïve and ARIMA forecasters, and Prophet, and chose
// the seasonal-naïve forecaster for production because it is the most
// lightweight and explainable; this package implements stand-ins for that
// candidate set behind one small interface so callers can swap algorithms
// freely:
//
//   - SeasonalNaive: repeat the last full season (the production choice)
//   - HoltWinters:   additive triple exponential smoothing
//   - AR:            autoregressive model fit by Yule–Walker equations
//   - MovingAverage: the lightweight right-sizing baseline of Zhao & Uta
//     (paper §7)
//   - Ensemble:      the mean, max or median of several members
//
// The paper's accuracy bake-off that chose among them is not re-run here.
//
// Forecasters are deterministic and allocation-light; Fit is cheap enough
// to call at every decision tick (the paper's OpenShift criticism is that
// retraining competing models per decision caused high latency — the
// naïve family avoids that by construction).
package forecast

import (
	"errors"
	"fmt"

	"caasper/internal/stats"
)

// Forecaster predicts future CPU usage from history.
type Forecaster interface {
	// Name identifies the algorithm in reports and explanations.
	Name() string
	// Forecast returns horizon future values given the history window.
	// Implementations must not mutate history. An error is returned when
	// the history is too short for the algorithm.
	Forecast(history []float64, horizon int) ([]float64, error)
}

// ErrShortHistory is returned when the history is insufficient to fit.
var ErrShortHistory = errors.New("forecast: history too short")

// HistoryBound is implemented by forecasters whose output depends only on
// a bounded tail of the history. Bounded-memory callers (the recommender
// adapters' window.Ring) use it to size their retained window: feeding
// such a forecaster the last HistoryNeed samples yields bit-identical
// forecasts to feeding it the full series.
//
// HistoryNeed returns the number of trailing samples the forecast is a
// function of, or a negative value when the forecaster genuinely reads
// the entire series (e.g. exponential smoothing, whose level folds in
// every sample ever seen) — callers must then retain unbounded history.
type HistoryBound interface {
	HistoryNeed() int
}

// HistoryNeed reports the retained-history requirement of f: f's own
// HistoryNeed when it implements HistoryBound, otherwise -1 (unbounded).
// A nil forecaster needs nothing.
func HistoryNeed(f Forecaster) int {
	if f == nil {
		return 0
	}
	if hb, ok := f.(HistoryBound); ok {
		return hb.HistoryNeed()
	}
	return -1
}

// clampNonNegative floors forecasts at zero — CPU usage cannot be negative.
func clampNonNegative(xs []float64) []float64 {
	for i, v := range xs {
		if v < 0 {
			xs[i] = 0
		}
	}
	return xs
}

// SeasonalNaive repeats the most recent full season: the forecast for time
// T+h is the observation at T+h−season. With no full season of history it
// degrades to last-value ("naïve") forecasting. This is the paper's
// production algorithm.
type SeasonalNaive struct {
	// Season is the seasonality period in samples (e.g. 1440 for a daily
	// cycle at one-minute resolution). Season ≤ 1 degrades to last-value.
	Season int
}

// Name implements Forecaster.
func (f *SeasonalNaive) Name() string { return fmt.Sprintf("seasonal-naive(%d)", f.Season) }

// Forecast implements Forecaster.
func (f *SeasonalNaive) Forecast(history []float64, horizon int) ([]float64, error) {
	if len(history) == 0 {
		return nil, ErrShortHistory
	}
	if horizon <= 0 {
		return nil, nil
	}
	out := make([]float64, horizon)
	if f.Season <= 1 || len(history) < f.Season {
		last := history[len(history)-1]
		for i := range out {
			out[i] = last
		}
		return clampNonNegative(out), nil
	}
	for h := 0; h < horizon; h++ {
		// Index of the same phase in the most recent complete season.
		idx := len(history) - f.Season + (h % f.Season)
		out[h] = history[idx]
	}
	return clampNonNegative(out), nil
}

// HistoryNeed implements HistoryBound: one full season (the forecast
// indexes at most Season samples back; shorter histories degrade to
// last-value, which needs just the final sample).
func (f *SeasonalNaive) HistoryNeed() int {
	if f.Season <= 1 {
		return 1
	}
	return f.Season
}

// MovingAverage forecasts the mean of the last Window samples, held flat.
type MovingAverage struct {
	// Window is the averaging window length in samples.
	Window int
}

// Name implements Forecaster.
func (f *MovingAverage) Name() string { return fmt.Sprintf("moving-average(%d)", f.Window) }

// HistoryNeed implements HistoryBound. A non-positive Window averages
// the entire series, so it reports unbounded.
func (f *MovingAverage) HistoryNeed() int {
	if f.Window <= 0 {
		return -1
	}
	return f.Window
}

// Forecast implements Forecaster.
func (f *MovingAverage) Forecast(history []float64, horizon int) ([]float64, error) {
	if len(history) == 0 {
		return nil, ErrShortHistory
	}
	if horizon <= 0 {
		return nil, nil
	}
	w := f.Window
	if w <= 0 || w > len(history) {
		w = len(history)
	}
	m := stats.Mean(history[len(history)-w:])
	out := make([]float64, horizon)
	for i := range out {
		out[i] = m
	}
	return clampNonNegative(out), nil
}
