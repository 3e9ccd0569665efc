// Package baselines implements the vertical-scaling policies the paper
// evaluates CaaSPER against (§3.3, §6):
//
//   - Control: fixed limits sized for the expected peak — the paper's
//     oracle-like over-provisioned reference run.
//   - KubernetesVPA: the default VPA recommender — a decaying histogram of
//     CPU samples whose 90th percentile (plus safety margin) sets
//     requests, with the paper's limits := requests+1 adaptation to the
//     limits-equal-requests service invariant.
//   - OpenShiftVPA: an OpenShift-style predictive recommender that sets
//     limits from a forecast of recent (capped) usage — faithfully
//     reproducing the throttling feedback loop of §3.3/Figure 3c.
//   - Autopilot: a moving-window-maximum policy in the spirit of Google's
//     Autopilot (§7), included as an additional reference point.
//
// All types implement recommend.Recommender.
package baselines

import (
	"fmt"
	"math"

	"caasper/internal/errs"
	"caasper/internal/stats"
	"caasper/internal/window"
)

// Control is the fixed-limits reference policy.
type Control struct {
	// Cores is the fixed allocation.
	Cores int
}

// NewControl builds a fixed-allocation policy.
func NewControl(cores int) *Control { return &Control{Cores: cores} }

// Name implements recommend.Recommender.
func (c *Control) Name() string { return fmt.Sprintf("control(%d)", c.Cores) }

// Observe implements recommend.Recommender.
func (c *Control) Observe(int, float64) {}

// Recommend implements recommend.Recommender.
func (c *Control) Recommend(int) int { return c.Cores }

// Reset implements recommend.Recommender.
func (c *Control) Reset() {}

// ObserveRun implements recommend.RunObserver: Observe is a no-op, so the
// bulk form is too.
func (c *Control) ObserveRun(int, float64, int) {}

// SteadyObserving implements recommend.SteadyObserver: fixed limits hold
// no observation state at all, so every future recommendation is the same
// constant regardless of what is observed.
func (c *Control) SteadyObserving(float64) bool { return true }

// KubernetesVPAOptions configures the default-VPA baseline.
type KubernetesVPAOptions struct {
	// Percentile is the histogram percentile used for the requests
	// target; the upstream recommender uses 0.90.
	Percentile float64
	// SafetyMargin is the fraction added on top of the percentile;
	// upstream defaults to 0.15.
	SafetyMargin float64
	// HalfLifeMinutes is the histogram decay half-life; upstream uses
	// 24 hours.
	HalfLifeMinutes float64
	// MinCores / MaxCores clamp the recommendation (the paper adds a
	// 2-core floor to avoid disrupting the deployment).
	MinCores, MaxCores int
}

// DefaultKubernetesVPAOptions mirrors the upstream defaults plus the
// paper's guardrails.
func DefaultKubernetesVPAOptions(maxCores int) KubernetesVPAOptions {
	return KubernetesVPAOptions{
		Percentile:      0.90,
		SafetyMargin:    0.15,
		HalfLifeMinutes: 24 * 60,
		MinCores:        2,
		MaxCores:        maxCores,
	}
}

// KubernetesVPA is the decayed-histogram default VPA recommender.
type KubernetesVPA struct {
	opts KubernetesVPAOptions
	hist *stats.DecayingHistogram
}

// NewKubernetesVPA builds the baseline.
func NewKubernetesVPA(opts KubernetesVPAOptions) (*KubernetesVPA, error) {
	if opts.Percentile <= 0 || opts.Percentile > 1 {
		return nil, fmt.Errorf("baselines: percentile %v out of (0,1]: %w", opts.Percentile, errs.ErrInvalidConfig)
	}
	if opts.MinCores < 1 || opts.MaxCores < opts.MinCores {
		return nil, fmt.Errorf("baselines: bad core bounds: %w", errs.ErrInvalidConfig)
	}
	if opts.HalfLifeMinutes <= 0 {
		return nil, fmt.Errorf("baselines: non-positive half-life: %w", errs.ErrInvalidConfig)
	}
	v := &KubernetesVPA{opts: opts}
	v.Reset()
	return v, nil
}

// Name implements recommend.Recommender.
func (v *KubernetesVPA) Name() string { return "k8s-vpa" }

// Observe implements recommend.Recommender.
//
// The histogram decays by sample timestamp, so Observe genuinely depends
// on the minute — this baseline deliberately implements neither
// recommend.RunObserver nor recommend.SteadyObserver: equal usage at
// different minutes lands with different decayed weights, and further
// equal observations keep shifting the percentile.
func (v *KubernetesVPA) Observe(minute int, usageCores float64) {
	v.hist.Add(usageCores, 1, float64(minute))
}

// Recommend implements recommend.Recommender. The histogram percentile
// plus safety margin yields the requests target; the paper's adaptation
// keeps limits := requests+1 so that the (requests-driven) VPA remains
// willing to scale, which is the allocation this method returns.
func (v *KubernetesVPA) Recommend(currentCores int) int {
	if v.hist.Empty() {
		return currentCores
	}
	p := v.hist.Percentile(v.opts.Percentile)
	requests := int(math.Ceil(p * (1 + v.opts.SafetyMargin)))
	limits := requests + 1 // the §3.3 limits:=requests+1 invariant
	return stats.ClampInt(limits, v.opts.MinCores, v.opts.MaxCores)
}

// Reset implements recommend.Recommender.
func (v *KubernetesVPA) Reset() {
	h, err := stats.NewDecayingHistogram(stats.DecayingHistogramOptions{
		FirstBucket: 0.01,
		Growth:      1.05,
		MaxValue:    float64(v.opts.MaxCores) * 2,
		HalfLife:    v.opts.HalfLifeMinutes,
	})
	if err != nil {
		// Options were validated in the constructor; a failure here is
		// programmer error.
		panic(err)
	}
	v.hist = h
}

// OpenShiftVPAOptions configures the predictive baseline.
type OpenShiftVPAOptions struct {
	// LookbackMinutes is the history window the predictor is fit on.
	LookbackMinutes int
	// HorizonMinutes is how far ahead the usage forecast extends.
	HorizonMinutes int
	// Margin is the fractional head-room added to the predicted peak.
	// The §3.3 evaluation shows the effective margin was far too small
	// to escape the capped-usage feedback loop.
	Margin float64
	// MinCores / MaxCores clamp the recommendation.
	MinCores, MaxCores int
}

// DefaultOpenShiftVPAOptions mirrors the behaviour evaluated in §3.3.
func DefaultOpenShiftVPAOptions(maxCores int) OpenShiftVPAOptions {
	return OpenShiftVPAOptions{
		LookbackMinutes: 60,
		HorizonMinutes:  30,
		Margin:          0.10,
		MinCores:        2,
		MaxCores:        maxCores,
	}
}

// OpenShiftVPA is the predictive baseline: it linearly extrapolates the
// recent observed usage and sets limits to the predicted peak plus
// margin. Because observed usage is capped at the current limits, a low
// initial prediction caps the workload, which keeps future predictions
// low — the throttling spiral of §3.3 emerges from the policy itself, not
// from any hard-coding here.
type OpenShiftVPA struct {
	opts OpenShiftVPAOptions
	// history retains only the lookback window the fit reads — O(window)
	// memory over arbitrarily long replays.
	history *window.Ring
	// xs is the constant 0..Lookback-1 regressor vector, computed once:
	// LinearFit always sees the same x-axis, only the y-window slides.
	xs []float64
}

// NewOpenShiftVPA builds the baseline.
func NewOpenShiftVPA(opts OpenShiftVPAOptions) (*OpenShiftVPA, error) {
	if opts.LookbackMinutes < 2 {
		return nil, fmt.Errorf("baselines: lookback must be ≥ 2: %w", errs.ErrInvalidConfig)
	}
	if opts.HorizonMinutes < 1 {
		return nil, fmt.Errorf("baselines: horizon must be ≥ 1: %w", errs.ErrInvalidConfig)
	}
	if opts.MinCores < 1 || opts.MaxCores < opts.MinCores {
		return nil, fmt.Errorf("baselines: bad core bounds: %w", errs.ErrInvalidConfig)
	}
	xs := make([]float64, opts.LookbackMinutes)
	for i := range xs {
		xs[i] = float64(i)
	}
	return &OpenShiftVPA{opts: opts, history: window.New(opts.LookbackMinutes), xs: xs}, nil
}

// Name implements recommend.Recommender.
func (o *OpenShiftVPA) Name() string { return "openshift-vpa" }

// Observe implements recommend.Recommender.
func (o *OpenShiftVPA) Observe(_ int, usageCores float64) {
	o.history.Push(usageCores)
}

// ObserveRun implements recommend.RunObserver: Observe ignores the minute
// and only pushes into the ring, so the bulk form is a bulk ring append.
func (o *OpenShiftVPA) ObserveRun(_ int, usageCores float64, n int) {
	if n <= 0 {
		return
	}
	o.history.PushRun(usageCores, n)
}

// SteadyObserving implements recommend.SteadyObserver: Recommend is a pure
// function of the ring view (LinearFit over a constant x-axis), so once
// the bounded lookback window is saturated with nothing but u, further
// equal observations cannot change any future recommendation.
func (o *OpenShiftVPA) SteadyObserving(usageCores float64) bool {
	return o.history.Bounded() &&
		o.history.Total() >= o.history.Cap() &&
		o.history.AllEqual(usageCores)
}

// Recommend implements recommend.Recommender.
func (o *OpenShiftVPA) Recommend(currentCores int) int {
	// The ring retains min(total, Lookback) samples — exactly the
	// recent slice the unbounded history produced (Lookback ≥ 2, so the
	// cold-start gate sees the same branch either way).
	recent := o.history.View()
	if len(recent) < 2 {
		// Cold start: predict low (the §3.3 "initially the recommender
		// component predicts low CPU utilization").
		return o.opts.MinCores
	}
	a, b, err := stats.LinearFit(o.xs[:len(recent)], recent)
	if err != nil {
		return currentCores
	}
	// Predicted peak over the horizon: the max of the fitted line's
	// endpoints (a line's extremum is at an endpoint).
	start := a + b*float64(len(recent))
	end := a + b*float64(len(recent)+o.opts.HorizonMinutes-1)
	peak := math.Max(start, end)
	// Round to nearest (not up): the predictive pipeline sizes to its
	// point forecast. On capped history this is what keeps the limits
	// oscillating between 2 and 3 cores in §3.3 instead of ratcheting
	// out of the throttling spiral.
	target := int(math.Round(peak * (1 + o.opts.Margin)))
	return stats.ClampInt(target, o.opts.MinCores, o.opts.MaxCores)
}

// Reset implements recommend.Recommender.
func (o *OpenShiftVPA) Reset() { o.history.Reset() }

// AutopilotOptions configures the moving-window-maximum baseline.
type AutopilotOptions struct {
	// WindowMinutes is the sliding window the maximum is taken over.
	WindowMinutes int
	// Margin is the fractional head-room over the window maximum.
	Margin float64
	// MinCores / MaxCores clamp the recommendation.
	MinCores, MaxCores int
}

// DefaultAutopilotOptions returns a 3-hour window with 10% head-room.
func DefaultAutopilotOptions(maxCores int) AutopilotOptions {
	return AutopilotOptions{
		WindowMinutes: 180,
		Margin:        0.10,
		MinCores:      2,
		MaxCores:      maxCores,
	}
}

// Autopilot recommends the sliding-window maximum plus margin — the
// moving-max flavour of Google's Autopilot (paper §7) adapted to whole
// cores.
type Autopilot struct {
	opts AutopilotOptions
	// history retains only the moving-max window — O(window) memory.
	history *window.Ring
}

// NewAutopilot builds the baseline.
func NewAutopilot(opts AutopilotOptions) (*Autopilot, error) {
	if opts.WindowMinutes < 1 {
		return nil, fmt.Errorf("baselines: window must be ≥ 1: %w", errs.ErrInvalidConfig)
	}
	if opts.MinCores < 1 || opts.MaxCores < opts.MinCores {
		return nil, fmt.Errorf("baselines: bad core bounds: %w", errs.ErrInvalidConfig)
	}
	return &Autopilot{opts: opts, history: window.New(opts.WindowMinutes)}, nil
}

// Name implements recommend.Recommender.
func (a *Autopilot) Name() string { return "autopilot-max" }

// Observe implements recommend.Recommender.
func (a *Autopilot) Observe(_ int, usageCores float64) {
	a.history.Push(usageCores)
}

// ObserveRun implements recommend.RunObserver: Observe ignores the minute
// and only pushes into the ring, so the bulk form is a bulk ring append.
func (a *Autopilot) ObserveRun(_ int, usageCores float64, n int) {
	if n <= 0 {
		return
	}
	a.history.PushRun(usageCores, n)
}

// SteadyObserving implements recommend.SteadyObserver: Recommend is a pure
// function of the ring view (max plus margin), so a saturated window
// holding nothing but u pins every future recommendation.
func (a *Autopilot) SteadyObserving(usageCores float64) bool {
	return a.history.Bounded() &&
		a.history.Total() >= a.history.Cap() &&
		a.history.AllEqual(usageCores)
}

// Recommend implements recommend.Recommender.
func (a *Autopilot) Recommend(currentCores int) int {
	recent := a.history.View() // min(total, WindowMinutes) samples
	if len(recent) == 0 {
		return currentCores
	}
	m := stats.Max(recent)
	target := int(math.Ceil(m * (1 + a.opts.Margin)))
	return stats.ClampInt(target, a.opts.MinCores, a.opts.MaxCores)
}

// Reset implements recommend.Recommender.
func (a *Autopilot) Reset() { a.history.Reset() }
