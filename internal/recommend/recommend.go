// Package recommend defines the pluggable recommender interface of the
// vertical autoscaling loop (paper Figure 1, step 3) and the adapters that
// expose CaaSPER's reactive and proactive algorithms through it. The
// trace-driven simulator (internal/sim), the Kubernetes-substrate control
// loop (internal/k8s) and every baseline (internal/baselines) speak this
// interface, which is what makes the paper's recommender comparisons
// possible.
package recommend

import (
	"fmt"

	"caasper/internal/core"
	"caasper/internal/errs"
	"caasper/internal/forecast"
	"caasper/internal/obs"
	win "caasper/internal/window"
)

// Recommender is a pluggable vertical-scaling policy. Implementations are
// fed one usage sample per metric interval via Observe and asked for a
// target allocation at each decision tick via Recommend.
//
// Implementations must be deterministic given the same observation
// sequence; they are exercised both by the simulator and by the live
// control loop, and the paper's §5 correctness methodology (paired t-test
// between simulated and live decision series) depends on it.
type Recommender interface {
	// Name identifies the policy in reports.
	Name() string
	// Observe records the usage (cores) measured during one metric
	// interval. minute is the sample's time index.
	Observe(minute int, usageCores float64)
	// Recommend returns the desired core allocation given the current
	// one. Returning currentCores means "hold".
	Recommend(currentCores int) int
	// Reset clears accumulated state so one instance can be reused
	// across experiment runs.
	Reset()
}

// RunObserver is the optional bulk form of Observe for recommenders whose
// Observe is a pure "append one sample" with no per-minute side effects.
// ObserveRun(minute, u, n) must leave the recommender in exactly the state
// n sequential Observe(minute+k, u) calls (k = 0..n−1) would — the
// discrete-event fleet engine relies on that bit-equality to advance
// observation windows across constant-demand trace runs in one call.
// Recommenders whose Observe depends on the minute itself (e.g. a
// time-decayed histogram) must NOT implement it.
type RunObserver interface {
	// ObserveRun records n consecutive samples of the same usage value,
	// the first at time index minute.
	ObserveRun(minute int, usageCores float64, n int)
}

// SteadyObserver is the optional steady-state marker that lets an
// event-driven engine put a tenant to sleep across decision ticks.
// SteadyObserving(u) may return true only when BOTH hold:
//
//  1. Recommend is a pure function of the retained observation state and
//     its currentCores argument (same inputs, same output, no
//     output-affecting side effects); and
//  2. further Observe(u) calls cannot change that retained state's
//     Recommend output (typically: a saturated bounded window already
//     holding nothing but u).
//
// Under those two guarantees, a tenant whose last decision was "hold" and
// whose demand stays at u provably re-decides "hold" at every subsequent
// tick, so the engine can skip the ticks entirely. Implementations unsure
// of either property must return false — sleeping is an optimisation,
// never an obligation.
type SteadyObserver interface {
	// SteadyObserving reports whether observing usageCores indefinitely
	// provably leaves every future Recommend output unchanged.
	SteadyObserving(usageCores float64) bool
}

// Explainer is implemented by recommenders that can explain their most
// recent recommendation in prose — the interpretability surface (R6) the
// simulator and CLIs expose. Baselines deliberately do not implement it:
// the paper's §3.3 complaint about them includes their opacity.
type Explainer interface {
	// Explain returns the last recommendation's explanation ("" when no
	// recommendation has been made yet).
	Explain() string
}

// Instrumentable is implemented by recommenders that can stream a
// machine-readable decision audit trail (the "core.decision" events of
// internal/obs). The simulator and live harness attach their run's sink
// through it; policies that do not implement it simply run un-audited,
// mirroring Explainer's opt-in contract.
type Instrumentable interface {
	// SetEventSink attaches the structured event sink the recommender
	// should emit decision audits into. A nil or disabled sink turns
	// auditing off.
	SetEventSink(s obs.Sink)
}

// CaaSPERReactive adapts core.Recommender to the Recommender interface:
// it keeps a sliding usage window (the paper's "last 40 minutes of CPU
// usage") and evaluates Algorithm 1 on it at each decision tick.
type CaaSPERReactive struct {
	algo *core.Recommender
	// window retains exactly the samples Algorithm 1 reads, each with its
	// PvP slot, and keeps their exceed counts as it slides, so a decision
	// slots nothing: memory stays O(window) over a month-long replay,
	// and the steady-state Observe path is allocation-free.
	window core.CountedWindow
	// scratch reuses the Algorithm 1 evaluation buffers across decision
	// ticks (an adapter is single-stream state already), and holds the
	// most recent decision (LastFullDecision, Explain).
	scratch core.Scratch
}

// NewCaaSPERReactive builds the reactive adapter. window is the number of
// samples Algorithm 1 sees (40 in the paper's running configuration).
func NewCaaSPERReactive(cfg core.Config, window int) (*CaaSPERReactive, error) {
	if window < 1 {
		return nil, fmt.Errorf("recommend: window %d must be ≥ 1: %w", window, errs.ErrBadWindow)
	}
	algo, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	w, err := algo.NewCountedWindow(window)
	if err != nil {
		return nil, err
	}
	return &CaaSPERReactive{algo: algo, window: w}, nil
}

// Name implements Recommender.
func (c *CaaSPERReactive) Name() string { return "caasper-reactive" }

// Observe implements Recommender.
func (c *CaaSPERReactive) Observe(minute int, usageCores float64) {
	c.scratch.Now = int64(minute) // timestamp for the next decision audit
	c.window.Push(usageCores)
}

// ObserveRun implements RunObserver: the per-minute Observe only stamps
// the audit clock and pushes into the window, so the bulk form is a
// single clock stamp and a bulk window append — bit-identical end state.
func (c *CaaSPERReactive) ObserveRun(minute int, usageCores float64, n int) {
	if n <= 0 {
		return
	}
	c.scratch.Now = int64(minute + n - 1)
	c.window.PushRun(usageCores, n)
}

// SteadyObserving implements SteadyObserver. Algorithm 1 is a pure
// function of (window, current cores, config), so once the bounded window
// is saturated and holds nothing but the current usage level, further
// equal observations cannot move any future recommendation.
func (c *CaaSPERReactive) SteadyObserving(usageCores float64) bool {
	return c.window.Saturated(usageCores)
}

// Recommend implements Recommender.
func (c *CaaSPERReactive) Recommend(currentCores int) int {
	// The window is read in place, already contiguous — no copy, no
	// allocation — with its exceed counts.
	d, err := c.algo.DecideCounted(&c.scratch, currentCores, &c.window)
	if err != nil {
		return currentCores // no usable signal: hold
	}
	return d.Target.CPUCores
}

// Reset implements Recommender. The attached event sink survives: a reset
// starts a new decision stream, not a new telemetry configuration.
func (c *CaaSPERReactive) Reset() {
	c.window.Reset()
	c.scratch = core.Scratch{Sink: c.scratch.Sink}
}

// Explain implements Explainer. The hot path defers explanation
// materialisation to the scratch buffer (core.Scratch.Explanation), so
// the string is only built when something actually asks for it.
func (c *CaaSPERReactive) Explain() string { return c.scratch.Explanation() }

// SetEventSink implements Instrumentable.
func (c *CaaSPERReactive) SetEventSink(s obs.Sink) { c.scratch.Sink = s }

// CaaSPERProactive adapts core.Proactive: enough history is retained for
// the forecaster to learn the seasonal pattern, and each decision
// evaluates Algorithm 1 on the combined observed+forecast window (Eq. 4).
//
// When the forecaster declares a bounded history requirement
// (forecast.HistoryBound), the adapter retains only
// max(observedWindow, HistoryNeed) samples in a ring — O(window) memory
// with bit-identical decisions. Forecasters that read the entire series
// (EMA, Holt-Winters, AR) keep the unbounded history they genuinely need.
type CaaSPERProactive struct {
	pro     *core.Proactive
	history *win.Ring
	// scratch reuses the Algorithm 1 evaluation buffers across ticks.
	scratch core.Scratch
	// LastUsedForecast reports whether the most recent decision
	// incorporated the forecast (false during the warm-up period).
	LastUsedForecast bool
	// LastDecision exposes the most recent full decision, with the eager
	// prefixed explanation of a forecast decision, which the scratch's lacks.
	LastDecision core.Decision
}

// NewCaaSPERProactive builds the proactive adapter. observedWindow and
// horizon are o_n−o_f and o_f of Figure 8; minHistory is the warm-up
// length (one full season) before forecasting activates.
func NewCaaSPERProactive(cfg core.Config, f forecast.Forecaster, observedWindow, horizon, minHistory int) (*CaaSPERProactive, error) {
	algo, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	pro, err := core.NewProactive(algo, f, observedWindow, horizon, minHistory)
	if err != nil {
		return nil, err
	}
	return &CaaSPERProactive{pro: pro, history: win.New(proactiveRetention(f, observedWindow, horizon))}, nil
}

// proactiveRetention sizes the proactive adapter's history ring: the
// observed window always enters the combined window, and a bounded
// forecaster additionally reads its HistoryNeed tail. 0 (unbounded) when
// the forecaster's output depends on the full series.
func proactiveRetention(f forecast.Forecaster, observedWindow, horizon int) int {
	if f == nil || horizon == 0 {
		return observedWindow
	}
	need := forecast.HistoryNeed(f)
	if need < 0 {
		return 0 // unbounded: correctness beats the memory bound
	}
	if need > observedWindow {
		return need
	}
	return observedWindow
}

// Name implements Recommender.
func (c *CaaSPERProactive) Name() string { return "caasper-proactive" }

// Observe implements Recommender.
func (c *CaaSPERProactive) Observe(minute int, usageCores float64) {
	c.scratch.Now = int64(minute) // timestamp for the next decision audit
	c.history.Push(usageCores)
}

// ObserveRun implements RunObserver (see CaaSPERReactive.ObserveRun).
// The proactive adapter deliberately does NOT implement SteadyObserver:
// its MinHistory warm-up can flip the decision mode mid-sleep and
// forecaster purity is a property of the injected Forecaster, not of the
// adapter — so the engine keeps waking it at every tick.
func (c *CaaSPERProactive) ObserveRun(minute int, usageCores float64, n int) {
	if n <= 0 {
		return
	}
	c.scratch.Now = int64(minute + n - 1)
	c.history.PushRun(usageCores, n)
}

// Recommend implements Recommender.
func (c *CaaSPERProactive) Recommend(currentCores int) int {
	// Total() (samples ever observed), not the retained length, gates the
	// MinHistory warm-up — a bounded ring must activate proactive mode at
	// the same tick an unbounded history would.
	d, used, err := c.pro.DecideHistoryScratch(&c.scratch, currentCores, c.history.View(), c.history.Total())
	if err != nil {
		return currentCores
	}
	c.LastUsedForecast = used
	c.LastDecision = d
	return d.Target.CPUCores
}

// Reset implements Recommender. The attached event sink survives (see
// CaaSPERReactive.Reset).
func (c *CaaSPERProactive) Reset() {
	c.history.Reset()
	c.scratch = core.Scratch{Sink: c.scratch.Sink}
	c.LastUsedForecast = false
	c.LastDecision = core.Decision{}
}

// Explain implements Explainer. Proactive decisions carry their prefixed
// explanation eagerly; the reactive warm-up path defers to the scratch
// buffer (see CaaSPERReactive.Explain).
func (c *CaaSPERProactive) Explain() string {
	if e := c.LastDecision.Explanation; e != "" {
		return e
	}
	return c.scratch.Explanation()
}

// SetEventSink implements Instrumentable.
func (c *CaaSPERProactive) SetEventSink(s obs.Sink) { c.scratch.Sink = s }
