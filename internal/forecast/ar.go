package forecast

import (
	"fmt"

	"caasper/internal/stats"
)

// AR is an autoregressive model of order P fit by the Yule–Walker
// equations (solved with Levinson–Durbin recursion). It stands in for the
// ARIMA forecaster the paper evaluated from sktime: an AR(p) over the
// mean-removed series captures the same short-horizon autocorrelation
// structure without the differencing/MA machinery, which the paper's
// workloads did not need (they chose the naïve model anyway).
type AR struct {
	// P is the autoregressive order; must be ≥ 1.
	P int
}

// Name implements Forecaster.
func (f *AR) Name() string { return fmt.Sprintf("ar(%d)", f.P) }

// Forecast implements Forecaster.
func (f *AR) Forecast(history []float64, horizon int) ([]float64, error) {
	if f.P < 1 {
		return nil, fmt.Errorf("forecast: ar order %d must be ≥ 1", f.P)
	}
	if len(history) < f.P+2 {
		return nil, ErrShortHistory
	}
	if horizon <= 0 {
		return nil, nil
	}

	mean := stats.Mean(history)
	centered := make([]float64, len(history))
	for i, v := range history {
		centered[i] = v - mean
	}

	phi, ok := yuleWalker(centered, f.P)
	if !ok {
		// Degenerate autocovariance (constant series): forecast the mean.
		out := make([]float64, horizon)
		for i := range out {
			out[i] = mean
		}
		return clampNonNegative(out), nil
	}

	// Iterated one-step-ahead prediction.
	buf := append([]float64(nil), centered...)
	out := make([]float64, horizon)
	for h := 0; h < horizon; h++ {
		var pred float64
		for k := 0; k < f.P; k++ {
			pred += phi[k] * buf[len(buf)-1-k]
		}
		buf = append(buf, pred)
		out[h] = pred + mean
	}
	return clampNonNegative(out), nil
}

// yuleWalker solves the Yule–Walker equations for AR coefficients using
// Levinson–Durbin recursion. It returns ok=false when the lag-0
// autocovariance is zero (constant input).
func yuleWalker(x []float64, p int) ([]float64, bool) {
	n := len(x)
	// Biased autocovariance estimates r[0..p].
	r := make([]float64, p+1)
	for lag := 0; lag <= p; lag++ {
		var s float64
		for t := lag; t < n; t++ {
			s += x[t] * x[t-lag]
		}
		r[lag] = s / float64(n)
	}
	if r[0] == 0 {
		return nil, false
	}

	phi := make([]float64, p)
	prev := make([]float64, p)
	e := r[0]
	for k := 1; k <= p; k++ {
		acc := r[k]
		for j := 1; j < k; j++ {
			acc -= prev[j-1] * r[k-j]
		}
		if e == 0 {
			return nil, false
		}
		lambda := acc / e
		for j := 0; j < k-1; j++ {
			phi[j] = prev[j] - lambda*prev[k-2-j]
		}
		phi[k-1] = lambda
		e *= 1 - lambda*lambda
		copy(prev, phi[:k])
	}
	return phi, true
}
