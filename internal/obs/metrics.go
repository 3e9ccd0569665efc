package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The nil receiver
// is valid and inert, so callers can hold an optional counter without
// guarding every bump.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 point-in-time value. The nil receiver is
// valid and inert.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket atomic histogram: Observe is lock-free and
// allocation-free, so it is safe on the parallel engine's per-task path.
// Bounds are inclusive upper bounds in ascending order; one overflow
// bucket catches everything beyond the last bound. The nil receiver is
// valid and inert.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-added
	maxBits atomic.Uint64 // float64 bits, CAS-maxed
}

// NewHistogram builds a histogram over the given ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// defaultDurationBounds is a 1-2-5 ladder from 1µs to 500s in
// nanoseconds — wide enough for both a 4µs decision and an 8-minute
// experiment suite.
func defaultDurationBounds() []float64 {
	var bounds []float64
	for decade := 1e3; decade <= 1e11; decade *= 10 {
		bounds = append(bounds, decade, 2*decade, 5*decade)
	}
	return bounds
}

// NewDurationHistogram builds a histogram sized for wall-clock durations
// in nanoseconds.
func NewDurationHistogram() *Histogram {
	return NewHistogram(defaultDurationBounds())
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound ≥ v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.buckets[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	// Max tracking assumes non-negative samples (durations, depths): the
	// zero value doubles as "no observations yet".
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveSince records the wall-clock time elapsed since t0 in
// nanoseconds and returns it — the allocation-free stopwatch idiom:
//
//	t0 := time.Now()
//	... work ...
//	h.ObserveSince(t0)
func (h *Histogram) ObserveSince(t0 time.Time) time.Duration {
	d := time.Since(t0)
	h.Observe(float64(d.Nanoseconds()))
	return d
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Quantile estimates the p-quantile (p in [0, 1]) by linear interpolation
// within the holding bucket; samples beyond the last bound report the
// observed maximum. Returns 0 when empty.
func (h *Histogram) Quantile(p float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(n)
	cum := 0.0
	for i := range h.buckets {
		c := float64(h.buckets[i].Load())
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			if i >= len(h.bounds) {
				return h.Max()
			}
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			upper := h.bounds[i]
			frac := (rank - cum) / c
			v := lower + frac*(upper-lower)
			if max := h.Max(); v > max && max > 0 {
				v = max
			}
			return v
		}
		cum += c
	}
	return h.Max()
}

// Registry is a named collection of counters, gauges and histograms.
// Get-or-create lookups take a mutex; the returned instruments are atomic,
// so hot paths hold instruments, not names. The nil receiver is valid:
// every lookup returns a nil instrument whose methods are no-ops, which is
// what makes `reg.Counter("x").Inc()` safe with telemetry disabled.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = map[string]*Counter{}
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = map[string]*Gauge{}
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named duration-bounded histogram, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hists == nil {
		r.hists = map[string]*Histogram{}
	}
	h, ok := r.hists[name]
	if !ok {
		h = NewDurationHistogram()
		r.hists[name] = h
	}
	return h
}

// Summary renders the registry as a sorted, aligned table — the `-obs`
// end-of-run report. Histograms report count, mean, p50, p99 and max in
// milliseconds (they hold nanosecond durations by convention).
func (r *Registry) Summary() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		names = append(names, "c\x00"+n)
	}
	for n := range r.gauges {
		names = append(names, "g\x00"+n)
	}
	for n := range r.hists {
		names = append(names, "h\x00"+n)
	}
	r.mu.Unlock()
	sort.Slice(names, func(i, j int) bool { return names[i][2:] < names[j][2:] })

	var b strings.Builder
	b.WriteString("observability summary\n")
	for _, tagged := range names {
		kind, name := tagged[0], tagged[2:]
		switch kind {
		case 'c':
			fmt.Fprintf(&b, "  %-36s %12d\n", name, r.Counter(name).Value())
		case 'g':
			fmt.Fprintf(&b, "  %-36s %12.2f\n", name, r.Gauge(name).Value())
		case 'h':
			h := r.Histogram(name)
			ms := func(ns float64) float64 { return ns / 1e6 }
			fmt.Fprintf(&b, "  %-36s %12d  mean=%.3fms p50=%.3fms p99=%.3fms max=%.3fms\n",
				name, h.Count(), ms(h.Mean()), ms(h.Quantile(0.5)), ms(h.Quantile(0.99)), ms(h.Max()))
		}
	}
	if len(names) == 0 {
		b.WriteString("  (no metrics recorded)\n")
	}
	return b.String()
}
