package core

import (
	"errors"
	"fmt"

	"caasper/internal/errs"
	"caasper/internal/forecast"
)

// Proactive wraps a reactive Recommender with the forecast-extended input
// preprocessing of §4.3 (Eq. 4, Figure 8): the decision window fed to
// Algorithm 1 is the concatenation of the tail of the observed series
// (length o_n − o_f) with a forecast of the next o_f samples. Until one
// full seasonality period of history has accumulated, it operates purely
// reactively (the paper's period₁ behaviour).
type Proactive struct {
	// Reactive is the underlying Algorithm 1 evaluator.
	Reactive *Recommender
	// Forecaster produces the predicted segment. Nil disables
	// forecasting entirely (pure reactive mode).
	Forecaster forecast.Forecaster
	// ObservedWindow is o_n − o_f: how many recent observed samples
	// enter the combined window (the paper uses e.g. the last 40
	// minutes of CPU usage).
	ObservedWindow int
	// Horizon is o_f: how many samples ahead the forecaster projects
	// (the paper's "scale-ahead window").
	Horizon int
	// MinHistory is the number of observed samples required before the
	// proactive mode activates — one full seasonality period in the
	// paper's Figure 8.
	MinHistory int
	// MaxRelativeUncertainty, when positive and the forecaster
	// implements forecast.IntervalForecaster, enables the paper's §4.3
	// planned confidence prefilter: if the forecast's relative
	// uncertainty (mean interval half-width over mean forecast level)
	// exceeds this bound, the prediction is discarded and the decision
	// falls back to reactive. Zero disables the prefilter.
	MaxRelativeUncertainty float64

	// combined is the reusable observed+forecast window buffer. It makes
	// a Proactive single-goroutine state: give each concurrent decision
	// stream its own instance (they are cheap).
	combined []float64
}

// NewProactive builds a proactive wrapper with validation.
func NewProactive(r *Recommender, f forecast.Forecaster, observedWindow, horizon, minHistory int) (*Proactive, error) {
	if r == nil {
		return nil, errors.New("core: nil reactive recommender")
	}
	if observedWindow < 1 {
		return nil, fmt.Errorf("core: ObservedWindow %d must be ≥ 1: %w", observedWindow, errs.ErrBadWindow)
	}
	if horizon < 0 {
		return nil, fmt.Errorf("core: Horizon %d must be ≥ 0: %w", horizon, errs.ErrBadWindow)
	}
	if minHistory < 0 {
		return nil, fmt.Errorf("core: MinHistory %d must be ≥ 0: %w", minHistory, errs.ErrBadWindow)
	}
	return &Proactive{
		Reactive:       r,
		Forecaster:     f,
		ObservedWindow: observedWindow,
		Horizon:        horizon,
		MinHistory:     minHistory,
	}, nil
}

// Decide evaluates Algorithm 1 on the combined observed+forecast window
// (Eq. 4). history is the full observed usage series up to the decision
// instant; the method slices its own windows. When the forecaster is nil,
// errors, or the history is shorter than MinHistory, it degrades to the
// reactive decision on the observed window — forecast failures must never
// block scaling (R5: low-predictability workloads).
//
// The returned bool reports whether the forecast contributed.
func (p *Proactive) Decide(currentCores int, history []float64) (Decision, bool, error) {
	var s Scratch
	d, used, err := p.DecideHistoryScratch(&s, currentCores, history, len(history))
	if err == nil && d.Explanation == "" {
		// The reactive fallback path defers the explanation to the
		// scratch (see Recommender.DecideScratch); one-shot callers get
		// it materialised.
		d.Explanation = s.Explanation()
	}
	return d, used, err
}

// DecideHistoryScratch is Decide evaluated through a caller-owned Scratch
// (see Recommender.DecideScratch): the combined observed+forecast window
// and every downstream evaluation buffer are reused across calls, and a
// nil scratch allocates fresh state per call. It serves callers that
// retain only a bounded tail of the observed series (a window.Ring):
// history is the retained tail and totalObserved the logical series
// length (len(history) for an unbounded caller). The
// MinHistory warm-up gates on totalObserved, so a ring-backed caller
// activates proactive mode at exactly the same tick as an unbounded one.
// The forecaster still sees only the retained tail — bounded callers are
// responsible for sizing their ring to the forecaster's HistoryNeed.
func (p *Proactive) DecideHistoryScratch(s *Scratch, currentCores int, history []float64, totalObserved int) (Decision, bool, error) {
	if s == nil {
		s = &Scratch{}
	}
	observed := tail(history, p.ObservedWindow)

	if p.Forecaster == nil || p.Horizon == 0 || totalObserved < p.MinHistory {
		d, err := p.Reactive.DecideScratch(s, currentCores, observed)
		return d, false, err
	}

	var predicted []float64
	var err error
	if ivf, ok := p.Forecaster.(forecast.IntervalForecaster); ok && p.MaxRelativeUncertainty > 0 {
		point, lo, hi, ferr := ivf.ForecastInterval(history, p.Horizon)
		err = ferr
		if err == nil {
			if forecast.RelativeUncertainty(point, lo, hi) > p.MaxRelativeUncertainty {
				// The prefilter of §4.3: a too-uncertain prediction is
				// worse than none — stay reactive this tick.
				d, rerr := p.Reactive.DecideScratch(s, currentCores, observed)
				return d, false, rerr
			}
			predicted = point
		}
	} else {
		predicted, err = p.Forecaster.Forecast(history, p.Horizon)
	}
	if err != nil {
		d, rerr := p.Reactive.DecideScratch(s, currentCores, observed)
		return d, false, rerr
	}

	combined := append(p.combined[:0], observed...)
	combined = append(combined, predicted...)
	p.combined = combined
	d, err := p.Reactive.DecideScratch(s, currentCores, combined)
	if err != nil {
		return d, false, err
	}
	// The inner decision's explanation is deferred in the scratch buffer
	// (Recommender.DecideScratch); the proactive prefix materialises it.
	// This path forecasts every tick — it allocates regardless — so the
	// zero-alloc budget only ever applied to the reactive fallback.
	d.Explanation = fmt.Sprintf("proactive[%s,+%d]: %s", p.Forecaster.Name(), p.Horizon, s.Explanation())
	return d, true, nil
}

// tail returns the last n elements of xs (all of xs when shorter).
func tail(xs []float64, n int) []float64 {
	if len(xs) <= n {
		return xs
	}
	return xs[len(xs)-n:]
}
