package bench

import (
	"encoding/json"
	"math/bits"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Durations below histExact nanoseconds get a bucket each; above, every
// power of two splits into 8 log-spaced buckets (≤12.5% wide).
const (
	histExact = 16
	histBins  = histExact + 60*8
)

// Hist aggregates one named span: call count, total time and a
// log-bucket histogram of durations. Safe for concurrent use.
//
// Spans around calls that take tens of nanoseconds would mostly time the
// clock: reading it twice per call doubled a fleet replay. Such spans use
// Begin and End, which count every call but time only about one in 64,
// chosen by a golden-ratio hash of the call number so that no period of
// the caller (tenants per tick, ticks per decision) lines up with the
// choice. Count stays exact, Seconds scales the timed total up to every
// call, and quantiles come from the timed calls. A timed call also
// includes part of its two clock reads (50 ns on the machine of
// README.md's numbers); a tracer's Hists subtract that cost, measured when
// the tracer starts.
type Hist struct {
	count atomic.Int64 // calls
	timed atomic.Int64 // calls timed
	total atomic.Int64 // ns over the timed calls
	bins  [histBins]atomic.Int64
	clock float64 // ns a timed call reads with nothing inside it
}

// Begin times about one call in 2^sampleShift.
const sampleShift = 6

func binOf(ns int64) int {
	if ns < histExact {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1 // ≥ 4
	return histExact + (e-4)*8 + int((ns>>(e-3))&7)
}

// binBounds returns bin i's [lo, hi) range in nanoseconds.
func binBounds(i int) (lo, hi float64) {
	if i < histExact {
		return float64(i), float64(i + 1)
	}
	e := (i-histExact)/8 + 4
	m := int64((i - histExact) % 8)
	return float64((8 + m) << (e - 3)), float64((9 + m) << (e - 3))
}

// Observe records one call, timed at d.
func (h *Hist) Observe(d time.Duration) {
	h.count.Add(1)
	h.record(d)
}

func (h *Hist) record(d time.Duration) {
	ns := int64(d)
	h.timed.Add(1)
	h.total.Add(ns)
	h.bins[binOf(ns)].Add(1)
}

// Since records one call that started at t0.
func (h *Hist) Since(t0 time.Time) { h.Observe(time.Since(t0)) }

// Begin counts one call and reports whether to time it, with its start.
// A timed call ends with End.
func (h *Hist) Begin() (time.Time, bool) {
	n := uint64(h.count.Add(1))
	if n*0x9E3779B97F4A7C15>>(64-sampleShift) != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

// End records the timed call Begin started at t0.
func (h *Hist) End(t0 time.Time) { h.record(time.Since(t0)) }

// Count is the number of calls recorded.
func (h *Hist) Count() int64 { return h.count.Load() }

// Seconds is the summed time of every call: the timed calls' total less
// the clock's share, scaled by calls over timed calls.
func (h *Hist) Seconds() float64 {
	timed := float64(h.timed.Load())
	if timed == 0 {
		return 0
	}
	ns := max(0, float64(h.total.Load())-timed*h.clock)
	return ns / 1e9 * float64(h.count.Load()) / timed
}

// Quantile estimates the p-quantile in nanoseconds over the timed calls,
// interpolating inside the holding bucket, less the clock's share; 0 when
// none was timed.
func (h *Hist) Quantile(p float64) float64 {
	n := h.timed.Load()
	if n == 0 {
		return 0
	}
	rank := p * float64(n)
	cum := 0.0
	for i := range h.bins {
		c := float64(h.bins[i].Load())
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := binBounds(i)
			return max(0, lo+(rank-cum)/c*(hi-lo)-h.clock)
		}
		cum += c
	}
	lo, _ := binBounds(histBins - 1)
	return lo
}

// clockCost is the median time a span with nothing inside it reads.
func clockCost() float64 {
	ds := make([]float64, 2001)
	for i := range ds {
		t0 := time.Now()
		ds[i] = float64(time.Since(t0))
	}
	return quantile(ds, 0.5)
}

// RequestSpan is one serve request seen from one side. The client span
// and the handler span of a request share its ID; times are nanoseconds
// since the tracer started.
type RequestSpan struct {
	ID     int64  `json:"id"`
	Side   string `json:"side"` // "client" or "handler"
	Route  string `json:"route"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Status int    `json:"status"`
}

// Tracer keeps a traced run's spans in memory: aggregates per name, plain
// counters, and individual serve request spans. Nothing inside the
// program under test records into it; every span is taken by the
// benchmark around its calls into a layer.
type Tracer struct {
	start time.Time
	clock float64 // ns; see Hist

	mu       sync.Mutex
	hists    map[string]*Hist
	counters map[string]*atomic.Int64
	reqs     []RequestSpan
}

// NewTracer returns an empty tracer whose request clock starts now.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now(), clock: clockCost(), hists: map[string]*Hist{}, counters: map[string]*atomic.Int64{}}
}

// Hist returns the named span aggregate, creating it on first use. Hot
// paths hold the returned pointer rather than looking it up per call.
func (t *Tracer) Hist(name string) *Hist {
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.hists[name]
	if !ok {
		h = &Hist{clock: t.clock}
		t.hists[name] = h
	}
	return h
}

// Counter returns the named counter, creating it on first use.
func (t *Tracer) Counter(name string) *atomic.Int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.counters[name]
	if !ok {
		c = &atomic.Int64{}
		t.counters[name] = c
	}
	return c
}

// Request records one request span.
func (t *Tracer) Request(r RequestSpan) {
	t.mu.Lock()
	t.reqs = append(t.reqs, r)
	t.mu.Unlock()
}

// Requests returns a copy of the recorded request spans.
func (t *Tracer) Requests() []RequestSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]RequestSpan(nil), t.reqs...)
}

// sinceStart converts a wall time into the tracer's request clock.
func (t *Tracer) sinceStart(at time.Time) int64 { return int64(at.Sub(t.start)) }

type spanJSON struct {
	Count  int64        `json:"count"`
	Timed  int64        `json:"timed"`
	TotalS float64      `json:"total_s"`
	P50us  float64      `json:"p50_us"`
	P99us  float64      `json:"p99_us"`
	Bins   [][3]float64 `json:"bins"` // [lo_ns, hi_ns, count] of non-empty buckets, clock included
}

// WriteFile writes every span aggregate, counter and request span as one
// JSON document.
func (t *Tracer) WriteFile(path string) error {
	t.mu.Lock()
	doc := struct {
		ClockNs  float64             `json:"clock_ns"`
		Spans    map[string]spanJSON `json:"spans"`
		Counters map[string]int64    `json:"counters"`
		Requests []RequestSpan       `json:"requests"`
	}{ClockNs: t.clock, Spans: map[string]spanJSON{}, Counters: map[string]int64{}, Requests: t.reqs}
	for name, h := range t.hists {
		s := spanJSON{Count: h.Count(), Timed: h.timed.Load(), TotalS: h.Seconds(), P50us: h.Quantile(0.5) / 1e3, P99us: h.Quantile(0.99) / 1e3}
		for i := range h.bins {
			if c := h.bins[i].Load(); c > 0 {
				lo, hi := binBounds(i)
				s.Bins = append(s.Bins, [3]float64{lo, hi, float64(c)})
			}
		}
		doc.Spans[name] = s
	}
	for name, c := range t.counters {
		doc.Counters[name] = c.Load()
	}
	sort.Slice(doc.Requests, func(i, j int) bool {
		a, b := doc.Requests[i], doc.Requests[j]
		return a.ID < b.ID || a.ID == b.ID && a.Side < b.Side
	})
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
