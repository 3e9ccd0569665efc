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

// ScalingNeeded reports whether the decision changes the allocation.
func (d Decision) ScalingNeeded() bool { return d.Delta != 0 }

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
}

// New builds a Recommender after validating cfg.
func New(cfg Config) (*Recommender, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Recommender{cfg: cfg, sf0: pvp.ScalingFactor(0, 0, cfg.SF)}, nil
}

// Config returns the recommender's configuration.
func (r *Recommender) Config() Config { return r.cfg }

// ErrNoUsage is returned when the usage window is empty after
// preprocessing.
var ErrNoUsage = errors.New("core: empty usage window")

// Scratch holds the reusable per-caller evaluation state of Decide: the
// preprocessed-window buffer, the PvP curve storage, and a memo of the
// most recent decision. A long-lived caller (the simulator adapters, the
// k8s control loop) keeps one Scratch per decision stream and passes it to
// DecideScratch, eliminating the per-decision allocations and skipping the
// curve rebuild entirely when the decision inputs are unchanged — common
// while usage sits flat or pinned at the cap between ticks.
//
// A Scratch must not be shared between goroutines. The zero value is
// ready to use; a Scratch handed to a different Recommender resets itself,
// so a stale memo can never cross configurations.
type Scratch struct {
	// Sink, when non-nil and enabled, receives one "core.decision" audit
	// event per evaluation: branch, slope, skew, raw scaling factor,
	// quantile and whether the memo answered — the machine-readable form
	// of the paper's interpretability requirement (R6). It survives owner
	// resets, so attaching a sink before the first call is safe.
	Sink obs.Sink
	// Now is the simulated time stamped on audit events. Loop callers set
	// it before each decision (the recommend adapters track it from
	// Observe); it is meaningless when Sink is nil.
	Now int64
	// MemoHits / MemoMisses count decisions answered from the memo versus
	// full Algorithm 1 evaluations — the decision stream's cache telemetry.
	MemoHits, MemoMisses uint64

	owner *Recommender
	clean []float64
	curve pvp.Curve
	exp   []byte
	// counts is the exceed histogram DecideScratch counts a raw window
	// into, made on first use: DecideCounted's caller keeps its own.
	counts *WindowCounts
	// skews remembers the skew of recent count vectors, made at the
	// second full evaluation (see skew).
	skews *skewTable

	// expKind/expPeak record which prose template the last full
	// evaluation would have produced and the one operand (the observed
	// peak) the Decision struct does not carry. Explanation() rebuilds
	// the string from them on demand; the decision hot path never touches
	// strconv. expKind sits beside memoValid, so the two bytes share one
	// word of padding.
	expPeak float64
	expKind expKind

	memoValid bool
	memoCores int
	memoClean []float64
	memoDec   Decision

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
// steady-state loop — formats the string from the memoised decision, so
// the hot path pays neither strconv nor the allocation. The result is
// only valid until the next decision on this scratch.
func (s *Scratch) Explanation() string {
	if s.owner == nil || s.expKind == expNone {
		return ""
	}
	cfg := s.owner.cfg
	d := s.memoDec
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

// MemoState is the serialisable form of a Scratch's decision memo and
// explanation template — what a checkpoint writes out so a restarted
// decision loop resumes with an identical warm cache: the first
// post-restore decision hits or misses the memo exactly as the
// uninterrupted loop would, keeping audit streams (the "memo" field) and
// MemoHits/MemoMisses counters bit-identical across the restart.
type MemoState struct {
	// Valid mirrors the memo's armed flag; the zero MemoState restores a
	// cold scratch.
	Valid bool
	// Cores and Window are the memo key: the clamped allocation and the
	// preprocessed usage window of the last full evaluation.
	Cores  int
	Window []float64
	// Decision is the memoised result.
	Decision Decision
	// ExpKind and ExpPeak are the lazy-explanation template state (which
	// prose template Explanation() rebuilds, and its one extra operand).
	ExpKind uint8
	ExpPeak float64
	// Now is the audit clock stamped on the next decision event.
	Now int64
}

// MemoView returns the scratch's memo and explanation-template state.
// Window aliases the memo key (nil when empty) and is valid until the
// scratch's next decision: copy it to retain it.
func (s *Scratch) MemoView() MemoState {
	m := MemoState{
		Valid:    s.memoValid,
		Cores:    s.memoCores,
		Decision: s.memoDec,
		ExpKind:  uint8(s.expKind),
		ExpPeak:  s.expPeak,
		Now:      s.Now,
	}
	if len(s.memoClean) > 0 {
		m.Window = s.memoClean
	}
	return m
}

// RestoreMemo re-arms a snapshotted memo on a scratch that will be used
// with this recommender, binding the scratch's owner so the next
// DecideScratch call does not wipe the restored state. The scratch's Sink
// survives, mirroring the reset contract. A key that no preprocessed
// window can equal (empty, or holding a negative or infinite sample)
// could never answer, so its memo is restored disarmed.
func (r *Recommender) RestoreMemo(sc *Scratch, m MemoState) {
	if sc.owner != r {
		*sc = Scratch{owner: r, Sink: sc.Sink, evFields: sc.evFields}
	}
	sc.Now = m.Now
	// DecideScratch probes the key with the raw window, so an armed key
	// must be one line 2 would leave untouched.
	sc.memoValid = m.Valid && len(m.Window) > 0
	for _, v := range m.Window {
		sc.memoValid = sc.memoValid && valid(v)
	}
	sc.memoCores = m.Cores
	sc.memoClean = append(sc.memoClean[:0], m.Window...)
	sc.memoDec = m.Decision
	sc.expKind = expKind(m.ExpKind)
	sc.expPeak = m.ExpPeak
}

// memoHit counts and audits a decision answered from the memo.
func (sc *Scratch) memoHit() {
	sc.MemoHits++
	if obs.Enabled(sc.Sink) {
		sc.emitDecision(&sc.memoDec, true)
	}
}

// emitDecision writes the per-evaluation audit event. Callers guard on
// Sink being enabled so the disabled path costs one branch.
func (sc *Scratch) emitDecision(d *Decision, memoHit bool) {
	sc.evFields = append(sc.evFields[:0],
		obs.I("cores", int64(d.Current.CPUCores)),
		obs.I("target", int64(d.Target.CPUCores)),
		obs.S("branch", string(d.Branch)),
		obs.F("slope", d.Slope),
		obs.F("skew", d.Skew),
		obs.F("raw_sf", d.RawSF),
		obs.F("quantile", d.Quantile),
		obs.B("memo", memoHit),
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
// slides one window from decision to decision keeps the counts current
// instead and calls DecideCounted. Both enter the same evaluation.
func (r *Recommender) DecideScratch(sc *Scratch, currentCores int, usage []float64) (Decision, error) {
	sc = r.own(sc)
	if err := r.decide(sc, currentCores, usage, nil); err != nil {
		return Decision{}, err
	}
	return sc.memoDec, nil
}

// DecideCounted is DecideScratch for a caller that keeps the exceed
// counts of its window current as the window slides: w must count
// exactly the samples of usage (a WindowCounts from NewWindowCounts,
// updated with Slide or Recount). No sample is slotted, so the only pass
// over the window copies it into the memo-key buffer; the decision, the
// memo and the audit event are bit-identical to DecideScratch's on the
// same scratch.
func (r *Recommender) DecideCounted(sc *Scratch, currentCores int, usage []float64, w *WindowCounts) (Decision, error) {
	if w.skus != r.cfg.SKUs {
		return Decision{}, fmt.Errorf("core: window counts for %d–%d cores, ladder is %d–%d: %w",
			w.skus.MinCores, w.skus.MaxCores, r.cfg.SKUs.MinCores, r.cfg.SKUs.MaxCores, errs.ErrInvalidConfig)
	}
	sc = r.own(sc)
	if err := r.decide(sc, currentCores, usage, w); err != nil {
		return Decision{}, err
	}
	return sc.memoDec, nil
}

// decide leaves in sc.memoDec the decision for usage at currentCores:
// from the memo, or Algorithm 1 evaluated from w, the window's exceed
// counts; a nil w counts usage into the scratch's own.
func (r *Recommender) decide(sc *Scratch, currentCores int, usage []float64, w *WindowCounts) error {
	xc := stats.ClampInt(currentCores, r.cfg.SKUs.MinCores, r.cfg.SKUs.MaxCores)
	if sc.memoAnswers(xc, usage) {
		sc.memoHit()
		return nil
	}
	if w == nil {
		if sc.counts == nil {
			c := r.NewWindowCounts()
			sc.counts = &c
		}
		sc.counts.Recount(usage)
		w = sc.counts
	}
	return r.evaluate(sc, xc, usage, w)
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

// memoAnswers reports whether the memo holds the decision for window at
// clamped allocation xc. Identical window + allocation ⇒ identical
// decision: Algorithm 1 is a pure function of (window, current cores,
// config), so the whole evaluation can be skipped when the preprocessed
// window is unchanged since the previous full one — common while usage
// sits flat or pinned at the cap. The memo key is a preprocessed window,
// so it is all-valid (RestoreMemo disarms any other): a raw window equal
// to it is one that line 2 leaves untouched, and the probe can run
// before preprocessing. (Equality is stricter than the multiset equality
// the algorithm depends on; it trades a few extra misses for a sort-free
// hot path.)
func (sc *Scratch) memoAnswers(xc int, window []float64) bool {
	return sc.memoValid && xc == sc.memoCores && equalFloats(window, sc.memoClean)
}

// buffer returns the preprocessing buffer with room for n samples. It is
// sized to the whole raw window: it and the memo key trade places on
// every miss, so both stay that size rather than append's next doubling.
func (sc *Scratch) buffer(n int) []float64 {
	if cap(sc.clean) < n {
		sc.clean = make([]float64, n)
	}
	return sc.clean[:n]
}

// valid reports whether Algorithm 1's line 2 keeps a usage sample: NaN,
// ±Inf and negative values are metric-gap artifacts around restarts and
// are dropped. −0 is kept.
func valid(u float64) bool { return u >= 0 && u <= math.MaxFloat64 }

// evaluate runs Algorithm 1 on usage at clamped allocation xc, from w,
// the window's exceed counts. It leaves the decision in sc.memoDec,
// evaluated or, once line 2 has cleaned the window, answered by the memo.
func (r *Recommender) evaluate(sc *Scratch, xc int, usage []float64, w *WindowCounts) error {
	cfg := &r.cfg
	n := len(usage) - w.invalid()
	if n == 0 {
		return ErrNoUsage
	}
	// Line 2: drop NaN/±Inf/negatives (metric-gap artifacts around
	// restarts) into the buffer that becomes the memo key.
	buf := sc.buffer(len(usage))
	var clean []float64
	if w.invalid() == 0 {
		clean = buf[:copy(buf, usage)]
	} else {
		clean = buf[:0]
		for _, u := range usage {
			if valid(u) {
				clean = append(clean, u)
			}
		}
		// The cleaned window may still equal the key.
		if sc.memoAnswers(xc, clean) {
			sc.memoHit()
			return nil
		}
	}
	sc.MemoMisses++
	// Invalidate before touching memo state: an error return below must
	// not leave a half-updated memo armed.
	sc.memoValid = false
	// Nothing below reorders clean, so it becomes the memo key as is: the
	// two buffers swap roles and the old key is the next call's scratch.
	sc.clean, sc.memoClean = sc.memoClean, clean
	sc.memoCores = xc

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
	// quantile deeper than the accumulator quickselects instead, copying
	// into sc.clean, the old memo key, which is free until the next call
	// preprocesses into it.
	q, peak, ok := top.QuantileMax(n, cfg.QuantileP)
	if !ok {
		var err error
		if q, peak, err = stats.QuantileMax(clean, cfg.QuantileP, &sc.clean); err != nil {
			return err
		}
	}

	d := Decision{
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

	sc.memoDec = d
	sc.memoValid = true
	if obs.Enabled(sc.Sink) {
		sc.emitDecision(&sc.memoDec, false)
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

// equalFloats reports element-wise equality. A NaN equals nothing, so a
// window holding one never equals a memo key.
func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
	return stats.ClampInt(target, r.cfg.floor(), r.cfg.SKUs.MaxCores)
}
