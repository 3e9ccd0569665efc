package bench

import (
	"fmt"
	"sync/atomic"

	"caasper"
)

// The optional recommender capabilities, spelled with public types. The
// fleet's event engine type-asserts the first two to choose its bulk
// catch-up and steady-sleep paths, so a timing wrapper that hid them would
// run — and measure — a different program. The wrapper therefore carries
// exactly the capabilities of the value it wraps.
//
// StateSnapshotter is the one optional interface not listed: its State
// type is not part of the public API, so no code outside the module can
// implement it, and only the serve layer (which builds its own
// recommenders) asserts it. wrap_test.go fails if a policy gains any
// other method the wrapper does not mirror.
type (
	runObserver interface {
		ObserveRun(minute int, usageCores float64, n int)
	}
	steadyObserver   interface{ SteadyObserving(usageCores float64) bool }
	explainer        interface{ Explain() string }
	instrumentable   interface{ SetEventSink(s caasper.EventSink) }
	decisionReporter interface{ LastFullDecision() caasper.Decision }
)

// recSpans are the recommend-layer aggregates every wrapper of one traced
// run records into.
type recSpans struct {
	observe, observeRun, steady, decide *Hist
	runMinutes, steadyTrue, changes     *atomic.Int64
}

func newRecSpans(t *Tracer) *recSpans {
	return &recSpans{
		observe:    t.Hist("recommend.observe"),
		observeRun: t.Hist("recommend.observe_run"),
		steady:     t.Hist("recommend.steady"),
		decide:     t.Hist("recommend.decide"),
		runMinutes: t.Counter("recommend.observe_run_minutes"),
		steadyTrue: t.Counter("recommend.steady_true"),
		changes:    t.Counter("recommend.changes"),
	}
}

// timedRec times the Recommender methods of its inner value that do
// work, sampling calls as Hist.Begin describes.
type timedRec struct {
	inner caasper.Recommender
	s     *recSpans
}

func (w *timedRec) Name() string { return w.inner.Name() }
func (w *timedRec) Reset()       { w.inner.Reset() }

func (w *timedRec) Observe(minute int, usageCores float64) {
	t0, timed := w.s.observe.Begin()
	w.inner.Observe(minute, usageCores)
	if timed {
		w.s.observe.End(t0)
	}
}

func (w *timedRec) Recommend(currentCores int) int {
	t0, timed := w.s.decide.Begin()
	target := w.inner.Recommend(currentCores)
	if timed {
		w.s.decide.End(t0)
	}
	if target != currentCores {
		w.s.changes.Add(1)
	}
	return target
}

type runPart struct {
	inner runObserver
	s     *recSpans
}

func (p runPart) ObserveRun(minute int, usageCores float64, n int) {
	t0, timed := p.s.observeRun.Begin()
	p.inner.ObserveRun(minute, usageCores, n)
	if timed {
		p.s.observeRun.End(t0)
	}
	p.s.runMinutes.Add(int64(n))
}

type steadyPart struct {
	inner steadyObserver
	s     *recSpans
}

func (p steadyPart) SteadyObserving(usageCores float64) bool {
	t0, timed := p.s.steady.Begin()
	ok := p.inner.SteadyObserving(usageCores)
	if timed {
		p.s.steady.End(t0)
	}
	if ok {
		p.s.steadyTrue.Add(1)
	}
	return ok
}

// auditPart passes the interpretability surface through untimed; the
// three methods come together on every policy that has any of them.
type auditPart struct {
	ex explainer
	in instrumentable
	dr decisionReporter
}

func (p auditPart) Explain() string                  { return p.ex.Explain() }
func (p auditPart) SetEventSink(s caasper.EventSink) { p.in.SetEventSink(s) }
func (p auditPart) LastFullDecision() caasper.Decision {
	return p.dr.LastFullDecision()
}

// wrapRecommender returns inner behind timing spans, with exactly inner's
// optional capabilities. It refuses a capability mix it cannot mirror
// rather than silently dropping one.
func wrapRecommender(inner caasper.Recommender, s *recSpans) (caasper.Recommender, error) {
	w := &timedRec{inner: inner, s: s}
	ro, hasRun := inner.(runObserver)
	so, hasSteady := inner.(steadyObserver)
	ex, hasEx := inner.(explainer)
	in, hasIn := inner.(instrumentable)
	dr, hasDr := inner.(decisionReporter)
	audit := hasEx && hasIn && hasDr
	if (hasEx || hasIn || hasDr) && !audit {
		return nil, fmt.Errorf("bench: recommender %q has a partial Explain/SetEventSink/LastFullDecision set the timing wrapper cannot mirror", inner.Name())
	}
	run, steady, aud := runPart{ro, s}, steadyPart{so, s}, auditPart{ex, in, dr}
	switch {
	case hasRun && hasSteady && audit:
		return struct {
			*timedRec
			runPart
			steadyPart
			auditPart
		}{w, run, steady, aud}, nil
	case hasRun && hasSteady:
		return struct {
			*timedRec
			runPart
			steadyPart
		}{w, run, steady}, nil
	case hasRun && audit:
		return struct {
			*timedRec
			runPart
			auditPart
		}{w, run, aud}, nil
	case hasSteady && audit:
		return struct {
			*timedRec
			steadyPart
			auditPart
		}{w, steady, aud}, nil
	case hasRun:
		return struct {
			*timedRec
			runPart
		}{w, run}, nil
	case hasSteady:
		return struct {
			*timedRec
			steadyPart
		}{w, steady}, nil
	case audit:
		return struct {
			*timedRec
			auditPart
		}{w, aud}, nil
	}
	return w, nil
}

// timedSink times Emit on an event sink; the fleet asserts no optional
// sink interfaces, so the three Sink methods are the whole surface.
type timedSink struct {
	inner caasper.EventSink
	emit  *Hist
}

func (s timedSink) Enabled() bool { return s.inner.Enabled() }
func (s timedSink) Flush() error  { return s.inner.Flush() }

func (s timedSink) Emit(e caasper.Event) {
	t0, timed := s.emit.Begin()
	s.inner.Emit(e)
	if timed {
		s.emit.End(t0)
	}
}
