package recommend

import (
	"fmt"

	"caasper/internal/core"
	win "caasper/internal/window"
)

// State is the serialisable form of a recommender adapter's mutable
// state: the retained observation window, the logical history length and
// the decision-scratch memo. It is everything a checkpoint must carry so
// a restored adapter's subsequent decisions are bit-identical to one
// that never stopped — the pinned guarantee of the serve layer's
// snapshot/restore test.
type State struct {
	// Window holds the retained usage samples, oldest first.
	Window []float64 `json:"window,omitempty"`
	// Total is the number of samples ever observed (≥ len(Window); the
	// proactive warm-up gates on this, not on the retained length).
	Total int `json:"total"`
	// Memo is the Algorithm 1 raw-window memo and lazy-explanation
	// template of the adapter's scratch.
	Memo core.MemoState `json:"memo"`
	// LastDecision is the most recent full decision, so interpretability
	// surfaces keep answering across a restart.
	LastDecision core.Decision `json:"last_decision"`
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
	// Window and Memo.Window alias the adapter's window and memo key, so
	// they are valid only until its next Observe, Recommend, Reset or
	// RestoreState, and must not be mutated. A caller encodes them, or
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

// viewWindow sets the window half of a State in place: nil when empty,
// so the encoded line omits it.
func viewWindow(s *State, h *win.Ring) {
	if v := h.View(); len(v) > 0 {
		s.Window = v
	}
	s.Total = h.Total()
}

// SnapshotState implements StateSnapshotter.
func (c *CaaSPERReactive) SnapshotState() State {
	s := State{Memo: c.scratch.MemoView(), LastDecision: c.LastDecision}
	viewWindow(&s, c.history)
	return s
}

// RestoreState implements StateSnapshotter.
func (c *CaaSPERReactive) RestoreState(s State) error {
	if err := c.history.Restore(s.Window, s.Total); err != nil {
		return fmt.Errorf("recommend: reactive restore: %w", err)
	}
	c.counts.Recount(c.history.View())
	c.algo.RestoreMemo(&c.scratch, s.Memo)
	c.LastDecision = s.LastDecision
	return nil
}

// LastFullDecision implements DecisionReporter.
func (c *CaaSPERReactive) LastFullDecision() core.Decision { return c.LastDecision }

// SnapshotState implements StateSnapshotter.
func (c *CaaSPERProactive) SnapshotState() State {
	s := State{
		Memo:             c.scratch.MemoView(),
		LastDecision:     c.LastDecision,
		LastUsedForecast: c.LastUsedForecast,
	}
	viewWindow(&s, c.history)
	return s
}

// RestoreState implements StateSnapshotter. The forecaster itself is
// stateless between decisions (it re-reads the history each tick), so the
// window plus memo is the complete mutable state.
func (c *CaaSPERProactive) RestoreState(s State) error {
	if err := c.history.Restore(s.Window, s.Total); err != nil {
		return fmt.Errorf("recommend: proactive restore: %w", err)
	}
	c.pro.Reactive.RestoreMemo(&c.scratch, s.Memo)
	c.LastDecision = s.LastDecision
	c.LastUsedForecast = s.LastUsedForecast
	return nil
}

// LastFullDecision implements DecisionReporter.
func (c *CaaSPERProactive) LastFullDecision() core.Decision { return c.LastDecision }
