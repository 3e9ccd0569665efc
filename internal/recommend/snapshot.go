package recommend

import (
	"fmt"

	"caasper/internal/core"
)

// State is the serialisable form of a recommender adapter's mutable
// state: the retained observation window, the logical history length and
// the last decision with its explanation template. Algorithm 1 is
// history-independent, so that is everything a checkpoint must carry for
// a restored adapter's subsequent decisions, explanations and audit
// events to be bit-identical to one that never stopped — the pinned
// guarantee of the serve layer's snapshot/restore test.
type State struct {
	// Window holds the retained usage samples, oldest first.
	Window []float64 `json:"window,omitempty"`
	// Total is the number of samples ever observed (≥ len(Window); the
	// proactive warm-up gates on this, not on the retained length).
	Total int `json:"total"`
	// LastDecision is the most recent full decision, so interpretability
	// surfaces keep answering across a restart.
	LastDecision core.Decision `json:"last_decision"`
	// ExpKind and ExpPeak are the decision's explanation template
	// (core.Scratch.Last): which prose Explain formats it with, and the
	// one operand the decision does not carry.
	ExpKind uint8   `json:"exp_kind,omitempty"`
	ExpPeak float64 `json:"exp_peak,omitempty"`
	// Now is the audit clock stamped on the next decision event.
	Now int64 `json:"now,omitempty"`
	// LastUsedForecast mirrors CaaSPERProactive.LastUsedForecast
	// (always false for the reactive adapter).
	LastUsedForecast bool `json:"last_used_forecast,omitempty"`
}

// StateSnapshotter is the optional checkpoint surface of a recommender:
// SnapshotState serialises the mutable state, RestoreState rebuilds it on
// a freshly constructed adapter of the same configuration. Policies that
// do not implement it are restored cold (empty window) — correct but not
// bit-identical mid-window, which is why the serve layer reports the
// capability per tenant.
type StateSnapshotter interface {
	// SnapshotState returns the adapter's mutable state in place:
	// Window aliases the adapter's window, so it is valid only until its
	// next Observe, Recommend, Reset or RestoreState, and must not be
	// mutated. A caller encodes them, or
	// copies them, under the lock that orders those calls.
	SnapshotState() State
	// RestoreState rebuilds the adapter's mutable state from a snapshot
	// taken on an identically configured adapter. It copies what it
	// keeps.
	RestoreState(State) error
}

// DecisionReporter is implemented by recommenders that expose their most
// recent full decision (branch, slope, target) rather than only the bare
// Recommend integer — the serve layer's decision records are built
// from it.
type DecisionReporter interface {
	// LastFullDecision returns the most recent decision with its
	// intermediate state (zero value before the first decision).
	LastFullDecision() core.Decision
}

// viewState returns sc's half of a State, the decision and its audit
// clock, with the window half set from a window's View (read in place)
// and Total: a nil window when empty, so the encoded line omits it.
func viewState(sc *core.Scratch, view []float64, total int) State {
	d, kind, peak := sc.Last()
	s := State{Total: total, LastDecision: *d, ExpKind: kind, ExpPeak: peak, Now: sc.Now}
	if len(view) > 0 {
		s.Window = view
	}
	return s
}

// SnapshotState implements StateSnapshotter.
func (c *CaaSPERReactive) SnapshotState() State {
	return viewState(&c.scratch, c.window.View(), c.window.Total())
}

// RestoreState implements StateSnapshotter.
func (c *CaaSPERReactive) RestoreState(s State) error {
	if err := c.window.Restore(s.Window, s.Total); err != nil {
		return fmt.Errorf("recommend: reactive restore: %w", err)
	}
	c.algo.Resume(&c.scratch, s.LastDecision, s.ExpKind, s.ExpPeak, s.Now)
	return nil
}

// LastFullDecision implements DecisionReporter.
func (c *CaaSPERReactive) LastFullDecision() core.Decision {
	d, _, _ := c.scratch.Last()
	return *d
}

// SnapshotState implements StateSnapshotter. LastDecision is the
// scratch's decision plus its eager explanation, so it stands for both.
func (c *CaaSPERProactive) SnapshotState() State {
	s := viewState(&c.scratch, c.history.View(), c.history.Total())
	s.LastDecision, s.LastUsedForecast = c.LastDecision, c.LastUsedForecast
	return s
}

// RestoreState implements StateSnapshotter. The forecaster itself is
// stateless between decisions (it re-reads the history each tick), so the
// window plus the last decision is the complete mutable state.
func (c *CaaSPERProactive) RestoreState(s State) error {
	if err := c.history.Restore(s.Window, s.Total); err != nil {
		return fmt.Errorf("recommend: proactive restore: %w", err)
	}
	c.pro.Reactive.Resume(&c.scratch, s.LastDecision, s.ExpKind, s.ExpPeak, s.Now)
	c.LastDecision = s.LastDecision
	c.LastUsedForecast = s.LastUsedForecast
	return nil
}

// LastFullDecision implements DecisionReporter.
func (c *CaaSPERProactive) LastFullDecision() core.Decision { return c.LastDecision }
