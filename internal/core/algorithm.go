package core

import (
	"encoding/json"
	"errors"
	"math"
	"strconv"

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
}

// New builds a Recommender after validating cfg.
func New(cfg Config) (*Recommender, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Recommender{cfg: cfg}, nil
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

	// expKind/expPeak record which prose template the last full
	// evaluation would have produced and the one operand (the observed
	// peak) the Decision struct does not carry. Explanation() rebuilds
	// the string from them on demand; the decision hot path never touches
	// strconv.
	expKind expKind
	expPeak float64

	// runs records that at least three quarters of the last miss's
	// window repeated their predecessor, so the next miss counts its
	// window a run at a time. It only picks the loop, not the result.
	runs bool

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

// MemoSnapshot copies out the scratch's memo and explanation-template
// state. The returned Window is a fresh slice, safe to retain.
func (s *Scratch) MemoSnapshot() MemoState {
	return MemoState{
		Valid:    s.memoValid,
		Cores:    s.memoCores,
		Window:   append([]float64(nil), s.memoClean...),
		Decision: s.memoDec,
		ExpKind:  uint8(s.expKind),
		ExpPeak:  s.expPeak,
		Now:      s.Now,
	}
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
		sc.memoValid = sc.memoValid && v >= 0 && v <= math.MaxFloat64
	}
	sc.memoCores = m.Cores
	sc.memoClean = append(sc.memoClean[:0], m.Window...)
	sc.memoDec = m.Decision
	sc.expKind = expKind(m.ExpKind)
	sc.expPeak = m.ExpPeak
}

// memoHit answers a decision from the memo.
func (sc *Scratch) memoHit() Decision {
	sc.MemoHits++
	if obs.Enabled(sc.Sink) {
		sc.emitDecision(sc.memoDec, true)
	}
	return sc.memoDec
}

// emitDecision writes the per-evaluation audit event. Callers guard on
// Sink being enabled so the disabled path costs one branch.
func (sc *Scratch) emitDecision(d Decision, memoHit bool) {
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
func (r *Recommender) DecideScratch(sc *Scratch, currentCores int, usage []float64) (Decision, error) {
	if sc == nil {
		sc = &Scratch{}
	}
	if sc.owner != r {
		// Reset evaluation state but keep the caller-attached telemetry:
		// a sink installed before the first decision must survive this.
		*sc = Scratch{owner: r, Sink: sc.Sink, Now: sc.Now, evFields: sc.evFields}
	}
	cfg := &r.cfg
	xc := stats.ClampInt(currentCores, cfg.SKUs.MinCores, cfg.SKUs.MaxCores)

	// Identical window + allocation ⇒ identical decision: Algorithm 1 is
	// a pure function of (window, current cores, config), so the whole
	// evaluation can be skipped when the preprocessed window is unchanged
	// since the previous full one — common while usage sits flat or
	// pinned at the cap. The memo key is a preprocessed window, so it is
	// all-valid (RestoreMemo disarms any other): a raw window equal to it
	// is one that line 2 leaves untouched, and the probe can run before
	// preprocessing. (Equality is stricter than the multiset equality the
	// algorithm depends on; it trades a few extra misses for a sort-free
	// hot path.)
	if sc.memoValid && xc == sc.memoCores && equalFloats(usage, sc.memoClean) {
		return sc.memoHit(), nil
	}

	// Lines 2–7 read the window through one pass. Per sample it drops
	// NaN/±Inf/negatives (line 2, metric-gap artifacts around restarts),
	// appends the survivor to the buffer that becomes the memo key, counts
	// it into the PvP curve's exceed histogram (line 3) and offers it to
	// the top-m accumulator behind the slack quantile and the walk-down's
	// peak. The accumulator is armed for the raw length: m is
	// non-decreasing in the sample count, so it holds at least the order
	// statistics the cleaned window's quantile reads. The buffer is sized
	// to the whole window: it and the memo key trade places below, so
	// both stay that size rather than append's next doubling.
	buf := sc.clean
	if cap(buf) < len(usage) {
		buf = make([]float64, len(usage))
	}
	buf = buf[:len(usage)]
	var hist pvp.Histogram
	if err := hist.Reset(cfg.SKUs, &sc.curve); err != nil {
		return Decision{}, err
	}
	var top stats.TopM
	topOK := top.Reset(len(usage), cfg.QuantileP)
	// A sample equal to its predecessor can reuse its histogram slot, and
	// a run of them be counted and offered at once: a plateau or usage
	// pinned at a cap then costs one slot lookup per run. But testing for
	// a run is a branch on the data, which mispredicts on a noisy window
	// partly pinned at a cap. So runs are used only when the previous
	// miss's window was mostly runs; otherwise every sample takes its own
	// slot lookup, and repeats are only counted (without a branch) for
	// the next miss's choice. Either way the histogram and the offers to
	// the accumulator are the same.
	n, repeats := 0, 0 // repeats: samples equal to their predecessor
	if sc.runs {
		prev, at, run := -1.0, 0, 0 // the current run: run samples of prev, in slot at
		repeats = len(usage)        // less one per run, and per dropped sample
		flush := func() {
			hist.Count(at, run)
			// Once a copy is refused, so is every later one.
			for k := run; topOK && k > 0 && top.Add(prev); k-- {
			}
		}
		for _, u := range usage {
			if !(u >= 0) || u > math.MaxFloat64 {
				continue
			}
			buf[n] = u
			n++
			if u != prev {
				flush()
				prev, at, run = u, hist.Slot(u), 0
				repeats--
			}
			run++
		}
		flush()
		repeats -= len(usage) - n
	} else {
		prev := -1.0
		for _, u := range usage {
			if !(u >= 0) || u > math.MaxFloat64 {
				continue
			}
			buf[n] = u
			n++
			if u == prev {
				repeats++
			}
			prev = u
			hist.Count(hist.Slot(u), 1)
			if topOK {
				top.Add(u)
			}
		}
	}
	sc.runs = 4*repeats >= 3*n
	clean := buf[:n]
	sc.clean = clean
	if n == 0 {
		return Decision{}, ErrNoUsage
	}
	// Line 2 dropped samples: the cleaned window may still equal the key.
	if n < len(usage) && sc.memoValid && xc == sc.memoCores && equalFloats(clean, sc.memoClean) {
		return sc.memoHit(), nil
	}
	sc.MemoMisses++
	// Invalidate before touching memo state: an error return below must
	// not leave a half-updated memo armed.
	sc.memoValid = false
	// Nothing below reorders clean, so it becomes the memo key as is: the
	// two buffers swap roles and the old key is the next call's scratch.
	sc.clean, sc.memoClean = sc.memoClean, clean
	sc.memoCores = xc

	// Line 3: the PvP curve (the refactored SKU recommendation tool of
	// §4.2, CPU-only) from the histogram, reusing the scratch storage.
	if err := pvp.BuildCurveFrom(&sc.curve, &hist); err != nil {
		return Decision{}, err
	}
	curve := &sc.curve

	// Lines 4–7: slopes, skew, current slope, scaling factor.
	skew := curve.Skew()
	s := curve.SlopeAt(xc)
	rawSF := pvp.ScalingFactor(s, skew, cfg.SF)

	// The slack quantile and the walk-down's peak: exact order
	// statistics, so both are bit-identical to sorting first and reading
	// the R-7 quantile and the last element. A quantile deeper than the
	// accumulator quickselects instead, copying into sc.clean, the old
	// memo key, which is free until the next call preprocesses into it.
	q, peak, ok := top.QuantileMax(n, cfg.QuantileP)
	if !ok {
		var err error
		if q, peak, err = stats.QuantileMax(clean, cfg.QuantileP, &sc.clean); err != nil {
			return Decision{}, err
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
		sc.emitDecision(d, false)
	}
	return d, nil
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
