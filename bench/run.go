package bench

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// Sizes fixes every workload's input size. Full is what the benchmark
// measures; Tiny runs the same code paths in a fraction of a second for
// the smoke test. Name is part of the golden-digest keys.
type Sizes struct {
	Name string

	PlateauTenants, PlateauMinutes int
	// CrossCheckTenants plateau tenants are replayed alone on the stepped
	// engine; on an uncontended cluster each must match its fleet row.
	CrossCheckTenants int

	MixedTenants, MixedMinutes int

	IngestTenants int
	// IngestRates is the open-loop ladder in batches/s; latencies are
	// reported from its first step.
	IngestRates []int

	RestartTenants int

	// SetupRepeats is the least number of times a run builds its inputs
	// (setup_s is the median); cheap set-ups repeat until setupBudget.
	SetupRepeats int
}

// Full is the measured configuration; the README records why each size.
var Full = Sizes{
	Name:              "full",
	PlateauTenants:    1_000,
	PlateauMinutes:    43_200,
	CrossCheckTenants: 8,
	MixedTenants:      200,
	MixedMinutes:      10_080,
	IngestTenants:     200,
	IngestRates:       []int{2000, 6000, 12000, 24000},
	RestartTenants:    2_000,
	SetupRepeats:      5,
}

// Tiny is the smoke-test configuration.
var Tiny = Sizes{
	Name:              "tiny",
	PlateauTenants:    48,
	PlateauMinutes:    4_320,
	CrossCheckTenants: 3,
	MixedTenants:      24,
	MixedMinutes:      1_440,
	IngestTenants:     8,
	IngestRates:       []int{500, 1000},
	RestartTenants:    40,
	SetupRepeats:      2,
}

// Options selects one run.
type Options struct {
	Workload string
	Seed     uint64
	// Seconds is the measured window: a workload repeats its unit of
	// work until the window has passed (at least once).
	Seconds float64
	// Trace selects the traced run, which reports per-layer metrics.
	Trace bool
	Sizes Sizes
	// TmpDir holds serve-restart's snapshot files (created if missing).
	TmpDir string
	// TraceFile, when set, receives a traced run's spans as JSON.
	TraceFile string
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// Value is one reported metric value.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is a run's outcome. Its JSON form is the line the benchmark
// prints last; Problems and Invalid explain a false Correct or a run that
// must not be reported.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`

	Problems []string `json:"-"`
	// Invalid is set when the load generator itself fell behind
	// (loadgen.lateness_ms_p99 above MaxLatenessMs): the latencies then
	// describe the generator, not the server.
	Invalid string `json:"-"`
	// Digests are the run's output digests (fleet result, event stream).
	Digests map[string]string `json:"-"`
}

// MaxLatenessMs is the generator lateness above which a run is invalid.
const MaxLatenessMs = 5.0

// ErrTooManyProcs refuses runs whose GOMAXPROCS exceeds the CPU count:
// extra Ps on absent cores measure the Go scheduler, not the program.
var ErrTooManyProcs = errors.New("bench: GOMAXPROCS exceeds NumCPU")

// runner accumulates one run's metrics, counts and problems.
type runner struct {
	o    Options
	cal  *calibrator
	heap *heapSampler // while the measured window's heap is sampled
	vals map[string]float64
	// asMeasured names end-to-end metrics reported without the
	// reference-speed scaling, because they do not follow the kernel.
	asMeasured map[string]bool
	digests    map[string]string
	problems   []string
	attempted  int64
	failed     int64
	invalid    string
}

func (r *runner) logf(format string, args ...any) {
	if r.o.Log != nil {
		fmt.Fprintf(r.o.Log, "[%s seed=%d] "+format+"\n", append([]any{r.o.Workload, r.o.Seed}, args...)...)
	}
}

// check records a problem when ok is false.
func (r *runner) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// op counts one attempted operation, and a failure when ok is false.
func (r *runner) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// timed logs how long the caller took; use as defer r.timed("what")().
func (r *runner) timed(what string) func() {
	t0 := time.Now()
	return func() { r.logf("%s took %.2fs", what, time.Since(t0).Seconds()) }
}

func (r *runner) set(name string, v float64) { r.vals[name] = v }

// window is one measured pass. A traced run makes two passes, untraced
// then traced, so each gets half of Seconds and the run lasts as long as
// an untraced one.
func (r *runner) window() time.Duration {
	w := time.Duration(r.o.Seconds * float64(time.Second))
	if r.o.Trace {
		w /= 2
	}
	return w
}

// Run executes one workload run.
func Run(o Options) (*Result, error) {
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		return nil, fmt.Errorf("%w (%d > %d)", ErrTooManyProcs, runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	if o.Seconds <= 0 {
		return nil, fmt.Errorf("bench: Seconds must be > 0")
	}
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	r := &runner{o: o, cal: cal, vals: map[string]float64{}, asMeasured: map[string]bool{}, digests: map[string]string{}}
	switch o.Workload {
	case FleetMonthPlateau:
		err = runPlateau(r)
	case FleetWeekMixed:
		err = runMixed(r)
	case ServeIngest:
		err = runIngest(r)
	case ServeRestart:
		err = runRestart(r)
	default:
		return nil, fmt.Errorf("bench: unknown workload %q (have %v)", o.Workload, Workloads)
	}
	if err != nil {
		return nil, err
	}
	slow := cal.slowdown()
	r.logf("machine slowdown %.3f (kernel medians: %v)", slow, cal)
	list := EndToEnd
	if o.Trace {
		list = PerLayer
		r.set("bench.slowdown", slow)
	}
	res := &Result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]Value{},
		Problems: r.problems, Invalid: r.invalid, Digests: r.digests}
	for _, m := range list {
		v, ok := r.vals[m.Name]
		r.check(ok || o.Trace, "metric %s was not measured", m.Name)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.check(false, "metric %s is %v", m.Name, v)
			v = 0
		}
		if !o.Trace && !r.asMeasured[m.Name] {
			v = atReferenceSpeed(m.Unit, v, slow)
		}
		res.Metrics[m.Name] = Value{Value: v, Unit: m.Unit}
	}
	if !o.Trace {
		for _, m := range EndToEnd {
			r.check(res.Metrics[m.Name].Value > 0, "end-to-end metric %s is not positive", m.Name)
		}
	}
	res.Problems = r.problems
	res.Correct = len(r.problems) == 0 && r.failed == 0 && r.attempted > 0
	return res, nil
}

// atReferenceSpeed converts an end-to-end value measured on a machine
// running slow times slower than the reference speed (see calib.go) into
// what it would read at that speed: times shrink and rates grow by the
// slowdown; other units pass through.
func atReferenceSpeed(unit string, v, slow float64) float64 {
	switch unit {
	case "s", "ms":
		return v / slow
	case "1/s":
		return v * slow
	}
	return v
}

// Cheap set-ups repeat until they have taken setupBudget in all (at most
// maxSetups times), so the median rests on enough samples to be steady.
const (
	setupBudget = time.Second
	maxSetups   = 100
)

// timeSetup builds a workload's inputs at least o.Sizes.SetupRepeats
// times (once in a traced run), records the median build time as
// setup_s, and keeps the last build; earlier ones are released through
// their cleanup.
func timeSetup[T any](r *runner, build func() (T, func(), error)) (T, func(), error) {
	n := r.o.Sizes.SetupRepeats
	if n < 1 || r.o.Trace {
		n = 1
	}
	var (
		out     T
		cleanup = func() {}
		times   []float64
		spent   float64
	)
	for k := 0; k < n || !r.o.Trace && spent < setupBudget.Seconds() && k < maxSetups; k++ {
		cleanup()
		runtime.GC()
		t0 := time.Now()
		v, c, err := build()
		times = append(times, time.Since(t0).Seconds())
		spent += times[k]
		if err != nil {
			return out, func() {}, err
		}
		out, cleanup = v, c
	}
	if !r.o.Trace {
		r.set("setup_s", median(times))
	}
	return out, cleanup, nil
}

// heapSampler tracks the live heap — the bytes the garbage collector last
// marked reachable — read every 10 ms through runtime/metrics (no
// stop-the-world), and keeps each unit of work's peak. The live heap is
// what a workload needs; in-use bytes would add whatever garbage the pacer
// let pile up. Even the live peak of a whole window moved by a third when
// one collection happened to mark at a busier moment than usual, so
// heap_peak_mb is the median over units of each unit's peak.
type heapSampler struct {
	stop, done chan struct{}
	mu         sync.Mutex
	peak       uint64    // since the last lap
	laps       []float64 // MB
}

const heapLive = "/gc/heap/live:bytes"

func readHeapLive() uint64 {
	s := []metrics.Sample{{Name: heapLive}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// startHeap starts sampling for the measured window; each unit of work
// ends with unitDone.
func (r *runner) startHeap() {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: readHeapLive()}
	go func() {
		defer close(h.done)
		tk := time.NewTicker(10 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tk.C:
				live := readHeapLive()
				h.mu.Lock()
				h.peak = max(h.peak, live)
				h.mu.Unlock()
			}
		}
	}()
	r.heap = h
}

// lap closes a unit of work's peak.
func (h *heapSampler) lap() {
	live := readHeapLive()
	h.mu.Lock()
	h.laps = append(h.laps, float64(max(h.peak, live))/(1<<20))
	h.peak = 0
	h.mu.Unlock()
}

// stopHeap ends sampling and returns the median unit peak in MB (2^20
// bytes).
func (r *runner) stopHeap() float64 {
	h := r.heap
	r.heap = nil
	close(h.stop)
	<-h.done
	if len(h.laps) == 0 {
		h.lap()
	}
	return median(h.laps)
}

// unitDone ends one unit of work: it closes the unit's heap peak when the
// heap is being sampled, then times the calibration kernels.
func (r *runner) unitDone() {
	if r.heap != nil {
		r.heap.lap()
	}
	r.cal.sample()
}

// memDelta records the runtime.* allocation and GC metrics between two
// MemStats reads.
func (r *runner) memDelta(a, b *runtime.MemStats) {
	r.set("runtime.alloc_mb", float64(b.TotalAlloc-a.TotalAlloc)/(1<<20))
	r.set("runtime.mallocs", float64(b.Mallocs-a.Mallocs))
	r.set("runtime.gc_cycles", float64(b.NumGC-a.NumGC))
	r.set("runtime.gc_pause_ms", float64(b.PauseTotalNs-a.PauseTotalNs)/1e6)
}

func readMem() *runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return &m
}

func medianSeconds(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return quantile(xs, 0.5)
}
