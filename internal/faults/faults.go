// Package faults is the seeded, deterministic fault-injection layer of
// the Kubernetes-like substrate. The paper's whole argument rests on
// CaaSPER staying safe when the platform misbehaves — resizes take 5–15
// minutes, restarts drop connections, and capped usage hides true demand
// (§2.2, §3.3) — yet a fault-free control plane never exercises any of
// those paths. This package makes the substrate misbehave *reproducibly*:
// a fixed seed yields the same injected faults on every run, at any
// worker count, because every draw is keyed on (seed, fault kind, pod,
// simulated time) rather than on a shared sequential stream. Call order
// therefore cannot perturb the outcome, which keeps the golden NDJSON
// event-stream contract of internal/obs intact under chaos.
//
// Five fault kinds are modelled, selected with a small spec grammar
// (comma-separated faults, colon-separated key=value parameters):
//
//	restart-fail:p=0.1              a pod restart attempt fails outright
//	restart-stuck:p=0.05:dur=600    an attempt hangs dur extra seconds
//	metrics-gap:p=0.02              a usage sample is dropped (scrape miss)
//	sched-pressure:p=1:cores=4:dur=300
//	                                transient co-tenant pressure steals
//	                                cores of free capacity per node for
//	                                dur-second windows
//	mem-pressure:p=0.5:gb=2:dur=300
//	                                phantom resident memory inflates a
//	                                pod's RAM usage by gb GB during
//	                                active dur-second windows (RAM-aware
//	                                layers only)
//
// With no spec the injector is nil and every hook compiles down to a
// nil-receiver check — the fault-free path costs one branch and the
// existing golden streams are unchanged.
package faults

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"caasper/internal/obs"
)

// Kind names one injectable fault class.
type Kind string

// The injectable fault kinds.
const (
	// RestartFail makes a pod restart attempt fail at completion time.
	RestartFail Kind = "restart-fail"
	// RestartStuck extends a restart attempt by Dur seconds (a hung
	// container that the operator's per-attempt timeout must catch).
	RestartStuck Kind = "restart-stuck"
	// MetricsGap drops a usage sample before the metrics server sees it
	// (a scrape miss), producing partial or wholly silent buckets.
	MetricsGap Kind = "metrics-gap"
	// SchedPressure steals Cores of free capacity on every node during
	// active Dur-second windows — Rodriguez & Buyya's "scheduling
	// failures under node pressure are the common case" made concrete.
	SchedPressure Kind = "sched-pressure"
	// MemPressure adds GB of phantom resident memory to a pod during
	// active Dur-second windows (a leaky co-process, page-cache bloat, a
	// runaway query plan) — the OOM-style scenario the multi-resource
	// decision loop has to absorb. Only layers that model RAM query it;
	// CPU-only runs never draw, so their streams are untouched.
	MemPressure Kind = "mem-pressure"
)

// Fault is one parsed fault with its parameters.
type Fault struct {
	// Kind selects the fault class.
	Kind Kind
	// P is the per-draw probability in [0, 1].
	P float64
	// Dur is the fault duration in seconds (stuck time for
	// restart-stuck, window length for sched-pressure). Layers whose
	// native unit is minutes convert (internal/sim divides by 60).
	Dur int64
	// Cores is the per-node capacity stolen by sched-pressure.
	Cores float64
	// GB is the phantom resident memory added by mem-pressure.
	GB float64
}

// defaults returns the parameter defaults for a kind.
func defaults(k Kind) (Fault, error) {
	switch k {
	case RestartFail:
		return Fault{Kind: k, P: 0.1}, nil
	case RestartStuck:
		return Fault{Kind: k, P: 0.05, Dur: 600}, nil
	case MetricsGap:
		return Fault{Kind: k, P: 0.02}, nil
	case SchedPressure:
		return Fault{Kind: k, P: 1, Dur: 300, Cores: 4}, nil
	case MemPressure:
		return Fault{Kind: k, P: 0.5, Dur: 300, GB: 2}, nil
	default:
		return Fault{}, fmt.Errorf("faults: unknown fault kind %q", k)
	}
}

// takes reports whether a fault kind has the named parameter: every kind
// has p, the windowed and stuck kinds dur, and only sched-pressure cores
// and mem-pressure gb. String renders exactly these, so a parsed spec
// renders back to itself.
func takes(k Kind, key string) bool {
	switch key {
	case "p":
		return true
	case "dur":
		return k == RestartStuck || k == SchedPressure || k == MemPressure
	case "cores":
		return k == SchedPressure
	case "gb":
		return k == MemPressure
	}
	return false
}

// Spec is a parsed fault specification: at most one fault per kind.
type Spec struct {
	faults map[Kind]Fault
}

// ParseSpec parses the -faults grammar. An empty string yields a nil
// Spec (fault-free).
func ParseSpec(s string) (*Spec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	spec := &Spec{faults: map[Kind]Fault{}}
	for _, clause := range strings.Split(s, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		parts := strings.Split(clause, ":")
		f, err := defaults(Kind(parts[0]))
		if err != nil {
			return nil, err
		}
		if _, dup := spec.faults[f.Kind]; dup {
			return nil, fmt.Errorf("faults: duplicate fault %q", f.Kind)
		}
		for _, kv := range parts[1:] {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("faults: %s: parameter %q is not key=value", f.Kind, kv)
			}
			if !takes(f.Kind, key) {
				return nil, fmt.Errorf("faults: %s: unknown parameter %q", f.Kind, key)
			}
			// The comparisons are written so that NaN fails them, and the
			// upper bounds reject +Inf.
			switch key {
			case "p":
				p, err := strconv.ParseFloat(val, 64)
				if err != nil || !(p >= 0 && p <= 1) {
					return nil, fmt.Errorf("faults: %s: p=%q is not a probability in [0,1]", f.Kind, val)
				}
				f.P = p
			case "dur":
				d, err := strconv.ParseInt(val, 10, 64)
				if err != nil || d < 1 {
					return nil, fmt.Errorf("faults: %s: dur=%q is not a positive second count", f.Kind, val)
				}
				f.Dur = d
			case "cores":
				c, err := strconv.ParseFloat(val, 64)
				if err != nil || !(c > 0 && c <= math.MaxFloat64) {
					return nil, fmt.Errorf("faults: %s: cores=%q is not a finite positive core count", f.Kind, val)
				}
				f.Cores = c
			case "gb":
				g, err := strconv.ParseFloat(val, 64)
				if err != nil || !(g > 0 && g <= math.MaxFloat64) {
					return nil, fmt.Errorf("faults: %s: gb=%q is not a finite positive GB count", f.Kind, val)
				}
				f.GB = g
			}
		}
		spec.faults[f.Kind] = f
	}
	if len(spec.faults) == 0 {
		return nil, errors.New("faults: empty spec")
	}
	return spec, nil
}

// Empty reports whether the spec injects nothing.
func (s *Spec) Empty() bool { return s == nil || len(s.faults) == 0 }

// Get returns the fault of the given kind and whether it is present.
func (s *Spec) Get(k Kind) (Fault, bool) {
	if s == nil {
		return Fault{}, false
	}
	f, ok := s.faults[k]
	return f, ok
}

// String renders the spec back in grammar form, kinds sorted, so logs
// and run summaries are stable.
func (s *Spec) String() string {
	if s.Empty() {
		return ""
	}
	kinds := make([]string, 0, len(s.faults))
	for k := range s.faults {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	var b strings.Builder
	for i, k := range kinds {
		if i > 0 {
			b.WriteByte(',')
		}
		f := s.faults[Kind(k)]
		fmt.Fprintf(&b, "%s:p=%s", k, strconv.FormatFloat(f.P, 'g', -1, 64))
		if takes(f.Kind, "dur") {
			fmt.Fprintf(&b, ":dur=%d", f.Dur)
		}
		if takes(f.Kind, "cores") {
			fmt.Fprintf(&b, ":cores=%s", strconv.FormatFloat(f.Cores, 'g', -1, 64))
		}
		if takes(f.Kind, "gb") {
			fmt.Fprintf(&b, ":gb=%s", strconv.FormatFloat(f.GB, 'g', -1, 64))
		}
	}
	return b.String()
}

// Counts aggregates injected faults for end-of-run chaos summaries.
type Counts struct {
	// RestartFails, RestartStucks and MetricsGaps count injected faults.
	RestartFails, RestartStucks, MetricsGaps int64
	// PressureWindows counts activated sched-pressure windows.
	PressureWindows int64
	// MemPressureWindows counts activated mem-pressure windows.
	MemPressureWindows int64
}

// Injector draws injected faults deterministically. The zero-cost
// contract: a nil *Injector is valid and injects nothing, so callers hold
// one pointer and the fault-free path is a single nil check per hook.
//
// Determinism contract (the golden NDJSON streams rest on it): every
// draw is the first value of a stdlib math/rand PRNG freshly seeded from
// a mix of (seed, kind, pod, simulated time), so a fixed seed yields a
// byte-identical fault stream at any worker count and in any query
// order. The injector itself is queried from the single-threaded control
// loop of one run; concurrent runs each own their injector.
type Injector struct {
	spec *Spec
	seed uint64

	// Events, when non-nil and enabled, receives one "fault.*" event per
	// injected fault, keyed on simulated seconds.
	Events obs.Sink
	// Stats, when non-nil, receives "fault.*" registry counters.
	Stats *obs.Registry

	counts Counts
	// pressureWindow is the last sched-pressure window whose activation
	// edge was emitted (-1 before any query).
	pressureWindow int64
	// memWindow is the last mem-pressure window whose activation edge
	// was emitted (-1 before any query).
	memWindow int64
}

// New builds an injector for the spec. A nil or empty spec returns a nil
// injector — the fault-free fast path.
func New(spec *Spec, seed uint64) *Injector {
	if spec.Empty() {
		return nil
	}
	return &Injector{spec: spec, seed: seed, pressureWindow: -1, memWindow: -1}
}

// Clone returns an independent silent replayer of the same fault
// stream: identical spec and seed — so every (kind, pod, time)-keyed
// draw matches the original's (draws keep no state, so clones running
// concurrently stay deterministic) — fresh edge-dedupe state, zero
// counts and no Events/Stats sinks. Callers that shard a run across
// clones re-derive counts and edge events from one authoritative
// injector; the clones only need the draw values.
// Nil-safe: cloning a nil injector returns nil.
func (in *Injector) Clone() *Injector {
	if in == nil {
		return nil
	}
	return New(in.spec, in.seed)
}

// Counts returns the injected-fault counts so far (zero for nil).
func (in *Injector) Counts() Counts {
	if in == nil {
		return Counts{}
	}
	return in.counts
}

// kindSalt gives each fault kind an independent draw stream.
func kindSalt(k Kind) uint64 {
	switch k {
	case RestartFail:
		return 0x9E37_79B9_7F4A_7C15
	case RestartStuck:
		return 0xBF58_476D_1CE4_E5B9
	case MetricsGap:
		return 0x94D0_49BB_1331_11EB
	case SchedPressure:
		return 0xD6E8_FEB8_6659_FD93
	case MemPressure:
		return 0xC2B2_AE3D_27D4_EB4F
	default:
		return 0xA5A5_A5A5_A5A5_A5A5
	}
}

// key folds the seed, kind salt and pod name into the time-independent
// prefix of a draw key, hoisted out of NextGap's per-minute scans.
func (in *Injector) key(k Kind, pod string) uint64 {
	h := in.seed ^ kindSalt(k)
	for i := 0; i < len(pod); i++ {
		h = (h ^ uint64(pod[i])) * 0x100000001B3 // FNV-1a fold
	}
	return h
}

// drawAt returns a uniform [0,1) value for a key prefix and time: the
// first Float64 of a math/rand source seeded with the mixed key, so the
// value depends only on the key, never on how many draws other layers
// made before this one.
func (in *Injector) drawAt(h uint64, t int64) float64 {
	h ^= uint64(t) * 0xFF51_AFD7_ED55_8CCD
	// splitmix64 finalizer: decorrelate adjacent seconds before the
	// mix becomes a math/rand seed.
	h ^= h >> 33
	h *= 0xC4CE_B9FE_1A85_EC53
	h ^= h >> 33
	return firstFloat64(int64(h))
}

// The first value of a freshly seeded math/rand source reads two of the
// 607 state words its Seed fills: after Seed the feed index steps to 333
// and the tap index wraps to 606, and Uint64 returns vec[333] + vec[606]
// (rngSource in $GOROOT/src/math/rand/rng.go). Seed fills vec[i] from
// steps 21+3i, 22+3i and 23+3i of the Lehmer recurrence x ← 48271·x mod
// (2³¹−1) (seedrand) started at the normalised seed x₀, shifted left by
// 40, 20 and 0 and XORed with rngCooked[i]. Step k is x₀·48271ᵏ mod
// (2³¹−1), so the two words take six multiplications by the precomputed
// powers below instead of 1,841 recurrence steps.
const (
	lehmerMod  = 1<<31 - 1
	lehmerBase = 48271
	// rngCooked[333] and rngCooked[606], copied from rngCooked in
	// $GOROOT/src/math/rand/rng.go.
	rngCooked333 = -4633371852008891965
	rngCooked606 = 4152330101494654406
)

// lehmerPow holds 48271ᵏ mod (2³¹−1) for the steps k that fill vec[333]
// (1020–1022) and vec[606] (1839–1841).
var lehmerPow = func() (p [6]uint64) {
	for i, k := range [6]int{1020, 1021, 1022, 1839, 1840, 1841} {
		p[i] = 1
		for ; k > 0; k-- {
			p[i] = p[i] * lehmerBase % lehmerMod
		}
	}
	return p
}()

// firstFloat64 returns rand.New(rand.NewSource(seed)).Float64(), bit for
// bit, without filling the source's state.
func firstFloat64(seed int64) float64 {
	// Seed's normalisation of its argument.
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	word := func(p []uint64, cooked int64) int64 {
		return int64(x*p[0]%lehmerMod)<<40 ^ int64(x*p[1]%lehmerMod)<<20 ^ int64(x*p[2]%lehmerMod) ^ cooked
	}
	v := word(lehmerPow[:3], rngCooked333) + word(lehmerPow[3:], rngCooked606)
	f := float64(v&(1<<63-1)) / (1 << 63) // Float64 of Int63
	if f == 1 {
		// Float64 redraws when its value rounds up to 1, reading further
		// state words: run the full source. A scan of all 2³¹−1 normalised
		// seeds found none that does (the largest first Int63 falls 4.4·10⁹
		// short of 2⁶³, rounding needs 2⁹), so this only guards the rule.
		return rand.New(rand.NewSource(seed)).Float64()
	}
	return f
}

// draw returns a uniform [0,1) value for the (kind, pod, t) key.
func (in *Injector) draw(k Kind, pod string, t int64) float64 {
	return in.drawAt(in.key(k, pod), t)
}

// emit sends one fault event when the sink is enabled.
func (in *Injector) emit(t int64, typ string, fields ...obs.Field) {
	if obs.Enabled(in.Events) {
		in.Events.Emit(obs.Event{T: t, Type: typ, Fields: fields})
	}
}

// RestartFails reports whether the pod's restart attempt completing at
// time now fails. Fires at most once per (pod, now) key; the operator
// queries it exactly once per attempt completion.
func (in *Injector) RestartFails(pod string, now int64) bool {
	if in == nil {
		return false
	}
	f, ok := in.spec.Get(RestartFail)
	if !ok || in.draw(RestartFail, pod, now) >= f.P {
		return false
	}
	in.counts.RestartFails++
	in.Stats.Counter("fault.restart_fails").Inc()
	in.emit(now, "fault.restart-fail", obs.S("pod", pod))
	return true
}

// RestartStuck returns the extra seconds a restart attempt starting at
// time now hangs for (0 when the attempt proceeds normally).
func (in *Injector) RestartStuck(pod string, now int64) int64 {
	if in == nil {
		return 0
	}
	f, ok := in.spec.Get(RestartStuck)
	if !ok || in.draw(RestartStuck, pod, now) >= f.P {
		return 0
	}
	in.counts.RestartStucks++
	in.Stats.Counter("fault.restart_stucks").Inc()
	in.emit(now, "fault.restart-stuck", obs.S("pod", pod), obs.I("dur", f.Dur))
	return f.Dur
}

// DropSample reports whether the pod's usage sample at time now is lost
// before the metrics server records it.
func (in *Injector) DropSample(pod string, now int64) bool {
	if in == nil {
		return false
	}
	f, ok := in.spec.Get(MetricsGap)
	if !ok || in.draw(MetricsGap, pod, now) >= f.P {
		return false
	}
	in.counts.MetricsGaps++
	in.Stats.Counter("fault.metrics_gaps").Inc()
	in.emit(now, "fault.metrics-gap", obs.S("pod", pod))
	return true
}

// NextGap returns the first time in [from, to) at which DropSample would
// drop the pod's sample, or −1 when every draw in the span passes. It is
// a pure probe — no counts, no events, no state — so an engine that
// batches time can pre-schedule the exact gap minutes of a span and keep
// its bulk catch-up path between them, firing DropSample only at the
// minutes that actually gap. The draws are the same (seed, kind, pod,
// time)-keyed values DropSample makes, so probe-then-fire is
// byte-identical to the per-minute loop.
func (in *Injector) NextGap(pod string, from, to int64) int64 {
	if in == nil || from >= to {
		return -1
	}
	f, ok := in.spec.Get(MetricsGap)
	if !ok || f.P <= 0 {
		return -1
	}
	h := in.key(MetricsGap, pod)
	for t := from; t < to; t++ {
		if in.drawAt(h, t) < f.P {
			return t
		}
	}
	return -1
}

// PressureCores returns the per-node capacity (cores) currently stolen
// by transient scheduling pressure. Time is divided into Dur-second
// windows; each window independently activates with probability P. The
// activation edge of each active window emits one "fault.sched-pressure"
// event — at the window boundary, not at the query time, so the stream
// does not depend on when callers poll.
func (in *Injector) PressureCores(now int64) float64 {
	if in == nil {
		return 0
	}
	f, ok := in.spec.Get(SchedPressure)
	if !ok {
		return 0
	}
	window := now / f.Dur
	if in.draw(SchedPressure, "", window) >= f.P {
		return 0
	}
	if window != in.pressureWindow {
		in.pressureWindow = window
		in.counts.PressureWindows++
		in.Stats.Counter("fault.sched_pressure_windows").Inc()
		in.emit(window*f.Dur, "fault.sched-pressure",
			obs.F("cores", f.Cores), obs.I("until", (window+1)*f.Dur))
	}
	return f.Cores
}

// MemPressureGB returns the phantom resident memory (GB) currently
// inflating the pod's RAM usage. Like PressureCores, time is divided
// into Dur-second windows that independently activate with probability
// P, keyed on (seed, kind, pod, window) so each pod's pressure stream is
// independent and query-order-free. The activation edge of each active
// window emits one "fault.mem-pressure" event at the window boundary.
// Only RAM-aware layers call this hook; a CPU-only run never draws.
func (in *Injector) MemPressureGB(pod string, now int64) float64 {
	if in == nil {
		return 0
	}
	f, ok := in.spec.Get(MemPressure)
	if !ok {
		return 0
	}
	window := now / f.Dur
	if in.draw(MemPressure, pod, window) >= f.P {
		return 0
	}
	if window != in.memWindow {
		in.memWindow = window
		in.counts.MemPressureWindows++
		in.Stats.Counter("fault.mem_pressure_windows").Inc()
		in.emit(window*f.Dur, "fault.mem-pressure",
			obs.S("pod", pod), obs.F("gb", f.GB), obs.I("until", (window+1)*f.Dur))
	}
	return f.GB
}

// Has reports whether the injector's spec includes the given fault kind
// (false for nil). Engines that batch time use it to decide which per-
// minute hooks genuinely need a draw per minute (metrics-gap) and which
// can be advanced analytically.
func (in *Injector) Has(k Kind) bool {
	if in == nil {
		return false
	}
	_, ok := in.spec.Get(k)
	return ok
}

// AdvancePressure replays the per-minute scheduling-pressure poll over
// [from, to) with one PressureCores query per pressure window instead of
// one per minute, returning the pressure in effect at time to−1. The
// draw, the window counts and the activation-edge events are identical to
// minute-by-minute polling because PressureCores keys everything on the
// window index (now/Dur) and emits the edge at the window boundary — any
// representative minute inside a window produces the same stream. This is
// the pre-scheduled form of the sched-pressure fault the discrete-event
// fleet engine uses to skip idle spans without perturbing the golden
// event stream. A nil injector or a spec without sched-pressure returns 0
// without drawing, matching the per-minute loop's behaviour.
func (in *Injector) AdvancePressure(from, to int64) float64 {
	if in == nil || to <= from {
		return 0
	}
	f, ok := in.spec.Get(SchedPressure)
	if !ok {
		return 0
	}
	p := 0.0
	for w := from / f.Dur; w <= (to-1)/f.Dur; w++ {
		m := w * f.Dur
		if m < from {
			m = from
		}
		p = in.PressureCores(m)
	}
	return p
}

// Summarize renders the chaos section of an end-of-run report from a
// spec, seed and fault tally, such as a result's Counts ("" for an
// empty spec).
func Summarize(spec *Spec, seed uint64, c Counts) string {
	if spec.Empty() {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: spec=%s seed=%d\n", spec, seed)
	fmt.Fprintf(&b, "  restart attempts failed:   %d\n", c.RestartFails)
	fmt.Fprintf(&b, "  restart attempts stuck:    %d\n", c.RestartStucks)
	fmt.Fprintf(&b, "  metric samples dropped:    %d\n", c.MetricsGaps)
	fmt.Fprintf(&b, "  scheduling-pressure windows: %d\n", c.PressureWindows)
	// Rendered only when the spec can produce it, so CPU-only chaos
	// summaries stay byte-identical to the pre-vector output.
	if _, ok := spec.Get(MemPressure); ok {
		fmt.Fprintf(&b, "  memory-pressure windows:     %d\n", c.MemPressureWindows)
	}
	return b.String()
}
