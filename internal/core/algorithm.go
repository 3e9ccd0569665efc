package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"

	"caasper/internal/errs"
	"caasper/internal/obs"
	"caasper/internal/pvp"
	"caasper/internal/stats"
)

// Branch identifies which arm of Algorithm 1 produced a decision.
type Branch string

// The decision branches of Algorithm 1.
const (
	// BranchScaleUp is lines 8–9: steep slope or thin head-room.
	BranchScaleUp Branch = "scale-up"
	// BranchScaleDown is lines 10–11: flat slope or large idle share.
	BranchScaleDown Branch = "scale-down"
	// BranchWalkDown is lines 12–13: flat tail, severe over-provisioning.
	BranchWalkDown Branch = "walk-down"
	// BranchHold is the implicit between-thresholds case: no change.
	BranchHold Branch = "hold"
)

// Decision is the output of one Algorithm 1 evaluation, carrying enough
// intermediate state to satisfy the paper's interpretability requirement
// (R6): the slope, skew, raw scaling factor and a prose explanation.
type Decision struct {
	// Current is the full allocation vector the decision was made
	// against. Algorithm 1 itself only populates the CPU dimension; the
	// vector rule (recommend.NextResources: RAMTarget, DiskTarget and
	// the horizontal overflow) fills the rest.
	Current Resources
	// Target is the recommended allocation vector; Target.CPUCores is
	// the guardrailed whole-core recommendation.
	Target Resources
	// Delta is Target.CPUCores − Current.CPUCores.
	Delta int
	// Branch names the Algorithm 1 arm that fired.
	Branch Branch
	// Slope is the PvP-curve slope s at Current.CPUCores.
	Slope float64
	// Skew is the slope-distribution skewness used by Eq. 3.
	Skew float64
	// RawSF is the unclamped, fractional Eq. 3 scaling factor.
	RawSF float64
	// Quantile is the usage quantile compared against the slack bands.
	Quantile float64
	// Explanation is a human-readable account of the decision.
	Explanation string
}

// BackfillV1 fills d's Current and Target, when d carries neither
// vector, from raw: the JSON of d as a pre-vector (v1) snapshot wrote it,
// with the CPU allocation under the keys "CurrentCores" and
// "TargetCores". It is decode-only: nothing writes those keys any more.
func (d *Decision) BackfillV1(raw []byte) error {
	if !d.Current.IsZero() || !d.Target.IsZero() || len(raw) == 0 {
		return nil
	}
	var v1 struct{ CurrentCores, TargetCores int }
	if err := json.Unmarshal(raw, &v1); err != nil {
		return err
	}
	d.Current.CPUCores, d.Target.CPUCores = v1.CurrentCores, v1.TargetCores
	return nil
}

// Recommender evaluates Algorithm 1. It is stateless across calls — the
// paper's "clean-slate, history-independent reactive algorithm" — so a
// single instance may be shared by concurrent callers.
type Recommender struct {
	cfg Config
	// sf0 is Eq. 3 at a zero product, pvp.ScalingFactor(0, 0, cfg.SF).
	sf0 float64
	// floor is line 14's lower bound for targets: the larger of the
	// operational floor c_min and the ladder's bottom.
	floor int
}

// New builds a Recommender after validating cfg.
func New(cfg Config) (*Recommender, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Recommender{
		cfg:   cfg,
		sf0:   pvp.ScalingFactor(0, 0, cfg.SF),
		floor: max(cfg.MinCores, cfg.SKUs.MinCores),
	}, nil
}

// ErrNoUsage is returned when the usage window is empty after
// preprocessing.
var ErrNoUsage = errors.New("core: empty usage window")

// Scratch holds the reusable per-caller evaluation state of Decide: the
// line-2 buffer, the PvP curve storage, the skew table and the result
// slot of the most recent decision. A long-lived caller (the simulator
// adapters, the k8s control loop) keeps one Scratch per decision stream
// and passes it to DecideScratch, eliminating the per-decision
// allocations.
//
// A Scratch must not be shared between goroutines. The zero value is
// ready to use; a Scratch handed to a different Recommender resets itself,
// so no state crosses configurations.
type Scratch struct {
	// Sink, when non-nil and enabled, receives one "core.decision" audit
	// event per evaluation: branch, slope, skew, raw scaling factor and
	// quantile — the machine-readable form of the paper's
	// interpretability requirement (R6). It survives owner resets, so
	// attaching a sink before the first call is safe.
	Sink obs.Sink
	// Now is the simulated time stamped on audit events. Loop callers set
	// it before each decision (the recommend adapters track it from
	// Observe); it is meaningless when Sink is nil.
	Now int64

	owner *Recommender
	// clean holds the window line 2 filtered, or the quickselect's copy.
	clean []float64
	curve pvp.Curve
	exp   []byte
	// counts is the exceed histogram DecideScratch counts a raw window
	// into, made on first use: DecideCounted's caller keeps its own.
	counts *WindowCounts
	// skews remembers the skew of recent count vectors, made at the
	// second full evaluation (see skew).
	skews *skewTable
	// dec is the most recent successful decision: what DecideScratch
	// returns and Explanation formats.
	dec Decision

	// expKind/expPeak record which prose template the last full
	// evaluation would have produced and the one operand (the observed
	// peak) the Decision struct does not carry. Explanation() rebuilds
	// the string from them on demand; the decision hot path never touches
	// strconv.
	expPeak float64
	expKind expKind
	// evals counts full evaluations up to 2, when the skew table is due.
	evals uint8

	// evFields is the reusable audit-event field buffer: Sink.Emit lets
	// callers reclaim the backing after it returns, so the per-decision
	// event costs zero steady-state allocations.
	evFields []obs.Field
}

// expKind discriminates the prose templates of Explanation(). Branch
// alone cannot: three distinct hold explanations share BranchHold.
type expKind uint8

const (
	expNone expKind = iota
	expScaleUp
	expWalkDown
	expHoldNoCheaper // flat tail but no cheaper SKU clears the buffered peak
	expScaleDown
	expHoldQuantile // down-trigger fired but the buffered quantile forbids it
	expHoldDefault
)

// Explanation materialises the prose account of the scratch's most recent
// successful decision ("" before the first one). DecideScratch records
// only which template applies (and the one operand the Decision does not
// carry); this accessor — called by the interpretability surfaces
// (Explainer.Explain, the one-shot Decide wrappers) and nothing on the
// steady-state loop — formats the string from the last decision, so
// the hot path pays neither strconv nor the allocation. The result is
// only valid until the next decision on this scratch.
func (s *Scratch) Explanation() string {
	if s.owner == nil || s.expKind == expNone {
		return ""
	}
	cfg := s.owner.cfg
	d := &s.dec
	cur, tgt := d.Current.CPUCores, d.Target.CPUCores
	capf := float64(cur)
	e := expBuilder{b: s.exp[:0]}
	switch s.expKind {
	case expScaleUp:
		e.str("scale-up: slope ").f2(d.Slope).str(" (threshold ").f2(cfg.SlopeHigh).
			str("), P").f0(cfg.QuantileP * 100).str(" usage ").f2(d.Quantile).
			str(" of ").num(cur).str(" cores (buffer threshold ").f2((1 - cfg.SlackHigh) * capf).
			str("); SF ").f2(d.RawSF).str(" → +").num(tgt - cur).str(" cores")
	case expWalkDown:
		e.str("walk-down: flat PvP tail at ").num(cur).str(" cores (peak usage ").f2(s.expPeak).
			str("); cheapest SKU meeting ").f0(cfg.WalkDownPerfTarget * 100).
			str("% performance is ").num(tgt).str(" cores")
	case expHoldNoCheaper:
		e.str("hold: flat PvP tail at ").num(cur).
			str(" cores but no cheaper SKU clears the buffered peak ").f2(s.expPeak)
	case expScaleDown:
		e.str("scale-down: slope ").f2(d.Slope).str(" ≤ ").f2(cfg.SlopeLow).
			str(" or P").f0(cfg.QuantileP * 100).str(" usage ").f2(d.Quantile).
			str(" ≤ ").f2(cfg.SlackLow * capf).str(" (idle threshold); SF ").f2(d.RawSF).
			str(" → -").num(cur - tgt).str(" cores")
	case expHoldQuantile:
		e.str("hold: down-trigger fired but buffered quantile ").f2(d.Quantile).
			str(" forbids shrinking below ").num(cur).str(" cores")
	case expHoldDefault:
		e.str("hold: slope ").f2(d.Slope).str(" within (").f2(cfg.SlopeLow).str(", ").f2(cfg.SlopeHigh).
			str(") and P").f0(cfg.QuantileP * 100).str(" usage ").f2(d.Quantile).
			str(" within slack bands of ").num(cur).str(" cores")
	}
	s.exp = e.b
	return string(s.exp)
}

// Last returns the scratch's most recent successful decision (the zero
// Decision before the first) with its explanation template: which prose
// Explanation() formats the decision with, and the one operand the
// decision does not carry, the peak (0 when the template does not read
// it). It is what a checkpoint writes of a decision stream, beside the
// window.
func (s *Scratch) Last() (d *Decision, expKind uint8, expPeak float64) {
	if s.expKind == expWalkDown || s.expKind == expHoldNoCheaper {
		expPeak = s.expPeak
	}
	return &s.dec, uint8(s.expKind), expPeak
}

// Resume binds sc to r with d as its most recent decision, (kind, peak)
// as its explanation template and now as its audit clock, as Last and Now
// read them on a scratch of an identically configured recommender: the
// next decision, its audit event and Explanation() then match that
// scratch's. The sink survives.
func (r *Recommender) Resume(sc *Scratch, d Decision, kind uint8, peak float64, now int64) {
	sc = r.own(sc)
	sc.dec, sc.expKind, sc.expPeak, sc.Now = d, expKind(kind), peak, now
}

// emitDecision writes the per-evaluation audit event. Callers guard on
// Sink being enabled so the disabled path costs one branch.
func (sc *Scratch) emitDecision(d *Decision) {
	sc.evFields = append(sc.evFields[:0],
		obs.I("cores", int64(d.Current.CPUCores)),
		obs.I("target", int64(d.Target.CPUCores)),
		obs.S("branch", string(d.Branch)),
		obs.F("slope", d.Slope),
		obs.F("skew", d.Skew),
		obs.F("raw_sf", d.RawSF),
		obs.F("quantile", d.Quantile),
	)
	sc.Sink.Emit(obs.Event{T: sc.Now, Type: "core.decision", Fields: sc.evFields})
}

// Decide runs Algorithm 1 for the current allocation and usage window
// (observed and/or forecast-extended; see Proactive). It returns the
// decision or an error for unusable input. Loop-style callers should
// prefer DecideScratch, which avoids the per-call allocations.
func (r *Recommender) Decide(currentCores int, usage []float64) (Decision, error) {
	var s Scratch
	d, err := r.DecideScratch(&s, currentCores, usage)
	if err == nil {
		d.Explanation = s.Explanation()
	}
	return d, err
}

// DecideScratch is Decide evaluated through a caller-owned Scratch. The
// returned decision is bit-identical to Decide's for the same inputs with
// one deliberate exception: Explanation is left empty and deferred to
// Scratch.Explanation(), so the steady-state decision loop allocates
// nothing at all (the prose lives in the scratch's reusable byte buffer
// until something actually reads it — the simulator only does on the rare
// enacted resize). A nil scratch is allowed (one is created per call).
//
// It counts usage into the PvP exceed histogram itself; a caller that
// slides one window from decision to decision keeps a CountedWindow
// instead and calls DecideCounted. Both enter the same evaluation.
func (r *Recommender) DecideScratch(sc *Scratch, currentCores int, usage []float64) (Decision, error) {
	sc = r.own(sc)
	if sc.counts == nil {
		c := r.windowCounts()
		sc.counts = &c
	}
	sc.counts.Recount(usage)
	if err := r.evaluate(sc, currentCores, usage, sc.counts); err != nil {
		return Decision{}, err
	}
	return sc.dec, nil
}

// DecideCounted is DecideScratch on w's samples, from the exceed counts w
// keeps as it slides (w from NewCountedWindow, on a recommender with the
// same ladder). No sample is slotted, and the decision and the audit
// event are bit-identical to DecideScratch's on the same scratch. It
// returns the scratch's result slot, valid until the scratch's next
// decision, so a decision is not copied out.
func (r *Recommender) DecideCounted(sc *Scratch, currentCores int, w *CountedWindow) (*Decision, error) {
	if w.counts.skus != r.cfg.SKUs {
		return nil, fmt.Errorf("core: window counts for %d–%d cores, ladder is %d–%d: %w",
			w.counts.skus.MinCores, w.counts.skus.MaxCores, r.cfg.SKUs.MinCores, r.cfg.SKUs.MaxCores, errs.ErrInvalidConfig)
	}
	sc = r.own(sc)
	if err := r.evaluate(sc, currentCores, w.View(), &w.counts); err != nil {
		return nil, err
	}
	return &sc.dec, nil
}

// own binds sc (a fresh one when nil) to r. A scratch last used with
// another recommender resets its evaluation state but keeps the
// caller-attached telemetry: a sink installed before the first decision
// must survive this.
func (r *Recommender) own(sc *Scratch) *Scratch {
	if sc == nil {
		sc = &Scratch{}
	}
	if sc.owner != r {
		*sc = Scratch{owner: r, Sink: sc.Sink, Now: sc.Now, evFields: sc.evFields}
	}
	return sc
}

// valid reports whether Algorithm 1's line 2 keeps a usage sample: NaN,
// ±Inf and negative values are metric-gap artifacts around restarts and
// are dropped. −0 is kept.
func valid(u float64) bool { return u >= 0 && u <= math.MaxFloat64 }

// evaluate runs Algorithm 1 on usage at allocation currentCores, from w,
// the window's exceed counts, and leaves the decision in sc.dec. It reads
// usage in place: only a window line 2 filters is copied, into sc.clean.
func (r *Recommender) evaluate(sc *Scratch, currentCores int, usage []float64, w *WindowCounts) error {
	cfg := &r.cfg
	xc := stats.ClampInt(currentCores, cfg.SKUs.MinCores, cfg.SKUs.MaxCores)
	n := len(usage) - w.invalid()
	if n == 0 {
		return ErrNoUsage
	}
	// Line 2: drop NaN/±Inf/negatives (metric-gap artifacts around
	// restarts).
	clean := usage
	if w.invalid() > 0 {
		if cap(sc.clean) < n {
			sc.clean = make([]float64, 0, len(usage))
		}
		clean = sc.clean[:0]
		for _, u := range usage {
			if valid(u) {
				clean = append(clean, u)
			}
		}
		sc.clean = clean
	}
	if sc.evals < 2 {
		sc.evals++
	}

	// The slack quantile and the walk-down's peak are the top m order
	// statistics of the window. The m largest all count in the slots at
	// or above the highest one whose suffix still holds m samples, so
	// only the samples above that slot's bound are offered: Slot is
	// monotone, and Slot(u) ≥ s exactly when u > slotBound(s), so the
	// filter keeps every one of the m largest and drops only smaller
	// values, which the accumulator would have refused or evicted.
	var top stats.TopM
	if top.Reset(n, cfg.QuantileP) {
		bound := cfg.SKUs.TopBound(w.ladder(), top.Cap())
		for _, u := range clean {
			if u > bound {
				top.Add(u)
			}
		}
	}

	// Line 3: the PvP curve (the refactored SKU recommendation tool of
	// §4.2, CPU-only) from the slot counts, reusing the scratch storage.
	if err := pvp.BuildCurveCounts(&sc.curve, cfg.SKUs, w.ladder()); err != nil {
		return err
	}
	curve := &sc.curve

	// Lines 4–7: slopes, skew, current slope, scaling factor.
	skew := sc.skew(curve, w.ladder())
	s := curve.SlopeAt(xc)
	rawSF := r.scalingFactor(s, skew)

	// Both order statistics are exact, so they are bit-identical to
	// sorting first and reading the R-7 quantile and the last element. A
	// quantile deeper than the accumulator quickselects instead, in a copy
	// in sc.clean. That copy may be clean itself (line 2 filtered into
	// it), which the selection reorders, so the peak is read first, in
	// window order: Max keeps the first of two equal maxima, which tells
	// −0 from 0.
	q, peak, ok := top.QuantileMax(n, cfg.QuantileP)
	if !ok {
		peak = stats.Max(clean)
		var err error
		if q, _, err = stats.QuantileMax(clean, cfg.QuantileP, &sc.clean); err != nil {
			return err
		}
	}

	d := &sc.dec
	*d = Decision{
		Slope:    s,
		Skew:     skew,
		RawSF:    rawSF,
		Quantile: q,
	}
	var tc int // the target cores

	capf := float64(xc)
	switch {
	// Lines 8–9: scale up on a steep slope or when the usage quantile
	// eats into the head-room buffer.
	case s >= cfg.SlopeHigh || q >= (1-cfg.SlackHigh)*capf:
		step := r.roundSF(rawSF)
		if step < 1 {
			step = 1 // an up-trigger always moves at least one core
		}
		if step > cfg.MaxStepUp {
			step = cfg.MaxStepUp
		}
		// Single-step sufficiency: never land below the capacity that
		// restores the configured buffer over the observed quantile.
		needed := int(math.Ceil(q / (1 - cfg.SlackHigh)))
		target := xc + step
		if target < needed {
			target = stats.ClampInt(needed, xc+1, xc+cfg.MaxStepUp)
		}
		d.Branch = BranchScaleUp
		tc = r.guardrail(target)
		sc.expKind = expScaleUp

	// Lines 10–13: scale down when the slope is flat or most capacity
	// is idle; on a flat tail, walk the curve down in one move.
	case s <= cfg.SlopeLow || q <= cfg.SlackLow*capf:
		if curve.FlatTailAt(xc) && s == 0 {
			// Lines 12–13: walk down to the cheapest SKU that still
			// meets the workload at the configured performance target.
			target := curve.WalkDown(xc, cfg.WalkDownPerfTarget)
			// Preserve the head-room buffer over the observed peak.
			buffered := int(math.Ceil(peak / (1 - cfg.SlackHigh)))
			if target < buffered {
				target = buffered
			}
			if target > xc {
				target = xc
			}
			d.Branch = BranchWalkDown
			tc = r.guardrail(target)
			if tc >= xc {
				d.Branch = BranchHold
				tc = xc
				sc.expKind = expHoldNoCheaper
			} else {
				sc.expKind = expWalkDown
			}
			sc.expPeak = peak
		} else {
			step := r.roundSF(rawSF)
			if step < 1 {
				step = 1
			}
			if step > cfg.MaxStepDown {
				step = cfg.MaxStepDown
			}
			// Do not scale below the buffered quantile.
			minSafe := int(math.Ceil(q / (1 - cfg.SlackHigh)))
			target := xc - step
			if target < minSafe {
				target = minSafe
			}
			if target > xc {
				target = xc
			}
			tc = r.guardrail(target)
			if tc < xc {
				d.Branch = BranchScaleDown
				sc.expKind = expScaleDown
			} else {
				d.Branch = BranchHold
				tc = xc
				sc.expKind = expHoldQuantile
			}
		}

	// Between thresholds: hold (the paper's R3 penalises needless
	// scaling; holding is the only frequency-minimising choice).
	default:
		d.Branch = BranchHold
		tc = xc
		sc.expKind = expHoldDefault
	}

	d.Delta = tc - xc
	d.Current = Resources{CPUCores: xc}
	d.Target = Resources{CPUCores: tc}

	if obs.Enabled(sc.Sink) {
		sc.emitDecision(d)
	}
	return nil
}

// expBuilder assembles a Decision explanation in Scratch's reusable byte
// buffer. Its float verbs are byte-identical to fmt's %.2f / %.0f (both
// bottom out in strconv's 'f' formatting, including the +Inf/NaN
// spellings), so swapping fmt.Sprintf out of the hot path changed no
// output; it only cut the ~6 interface-boxing allocations per formatted
// decision down to the single final string conversion.
type expBuilder struct{ b []byte }

func (e *expBuilder) str(lit string) *expBuilder {
	e.b = append(e.b, lit...)
	return e
}

func (e *expBuilder) f2(v float64) *expBuilder {
	e.b = strconv.AppendFloat(e.b, v, 'f', 2, 64)
	return e
}

func (e *expBuilder) f0(v float64) *expBuilder {
	e.b = strconv.AppendFloat(e.b, v, 'f', 0, 64)
	return e
}

func (e *expBuilder) num(v int) *expBuilder {
	e.b = strconv.AppendInt(e.b, int64(v), 10)
	return e
}

// roundSF converts the fractional Eq. 3 factor into whole cores per the
// configured rounding mode (paper: round down by default, §4.2).
func (r *Recommender) roundSF(sf float64) int {
	if r.cfg.RoundUp {
		return int(math.Ceil(sf))
	}
	return int(math.Floor(sf))
}

// guardrail applies the Algorithm 1 line 14 guardrails: clamp the target
// into [max(c_min, ladder bottom), ladder top].
func (r *Recommender) guardrail(target int) int {
	return stats.ClampInt(target, r.floor, r.cfg.SKUs.MaxCores)
}
