// Package trace defines the CPU time-series type shared by every layer of
// the repository: workload generators produce traces, the simulator replays
// them, recommenders consume windows of them, and the experiment harness
// summarises them.
//
// A Trace is a regularly sampled series of CPU values (in cores) with an
// explicit sample interval. The paper's pipeline resamples every input to a
// one-minute grid (§6.3) and, for the Alibaba traces, rescales millicore
// series into whole-core ranges; both operations live here.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"

	"caasper/internal/stats"
)

// Trace is a regularly sampled CPU usage series.
type Trace struct {
	// Name identifies the trace in reports (e.g. "c_29247", "workday").
	Name string
	// Interval is the spacing between consecutive samples.
	Interval time.Duration
	// Values holds the CPU usage in cores at each sample point.
	Values []float64
}

// New builds a trace, defensively copying values.
func New(name string, interval time.Duration, values []float64) *Trace {
	return &Trace{
		Name:     name,
		Interval: interval,
		Values:   append([]float64(nil), values...),
	}
}

// Len returns the number of samples.
func (t *Trace) Len() int { return len(t.Values) }

// Duration returns the total time span covered by the trace.
func (t *Trace) Duration() time.Duration {
	return time.Duration(len(t.Values)) * t.Interval
}

// Clone returns a deep copy of the trace.
func (t *Trace) Clone() *Trace {
	return New(t.Name, t.Interval, t.Values)
}

// At returns the value at sample index i, clamping out-of-range indices to
// the nearest endpoint (convenient for window arithmetic at trace edges).
func (t *Trace) At(i int) float64 {
	if len(t.Values) == 0 {
		return 0
	}
	i = stats.ClampInt(i, 0, len(t.Values)-1)
	return t.Values[i]
}

// Window returns the samples in [from, to) with indices clamped to the
// trace bounds. The returned slice aliases the trace's backing array; do
// not mutate it.
func (t *Trace) Window(from, to int) []float64 {
	if from < 0 {
		from = 0
	}
	if to > len(t.Values) {
		to = len(t.Values)
	}
	if from >= to {
		return nil
	}
	return t.Values[from:to]
}

// RunStarts returns the start index of every maximal constant-value run,
// ascending and beginning with 0. These are the trace's inflection
// points: between consecutive entries the demand is flat, which is the
// property the discrete-event fleet engine exploits to advance
// observation windows in bulk and to sleep steady tenants until the next
// inflection. NaN samples never extend a run (NaN != NaN), so a corrupted
// trace degrades to minute-length runs instead of masking a change.
//
// It returns nil for an empty trace and for one whose runs do not
// compress (more than len/4 of them): such an index would cost up to 4
// bytes per sample, while a scan of the values for the next inflection
// costs the caller next to nothing on short runs.
func (t *Trace) RunStarts() []int32 {
	vs := t.Values
	n := 1
	for i := 1; i < len(vs); i++ {
		if vs[i] != vs[i-1] {
			n++
		}
	}
	if len(vs) == 0 || n > len(vs)/4 {
		return nil
	}
	starts := make([]int32, 1, n)
	for i := 1; i < len(vs); i++ {
		if vs[i] != vs[i-1] {
			starts = append(starts, int32(i))
		}
	}
	return starts
}

// Peak returns the largest sample value (0 for an empty trace). It is the
// shared peak scan behind every "size the SKU ladder from the trace"
// derivation: NaN samples are skipped so an unsanitised trace cannot
// poison a ladder bound.
func (t *Trace) Peak() float64 {
	peak := 0.0
	for _, v := range t.Values {
		if v > peak {
			peak = v
		}
	}
	return peak
}

// Scale multiplies every sample by f in place and returns the trace.
// The paper scales millicore traces into full-core ranges this way (§6.3).
func (t *Trace) Scale(f float64) *Trace {
	for i := range t.Values {
		t.Values[i] *= f
	}
	return t
}

// Clip limits every sample into [lo, hi] in place and returns the trace.
func (t *Trace) Clip(lo, hi float64) *Trace {
	for i := range t.Values {
		t.Values[i] = stats.Clamp(t.Values[i], lo, hi)
	}
	return t
}

// Sanitize replaces NaN/Inf samples with zero and floors negatives at zero,
// in place, returning the count of repaired samples. Real metric pipelines
// emit such artifacts around pod restarts.
func (t *Trace) Sanitize() int {
	var fixed int
	for i, v := range t.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Values[i] = 0
			fixed++
		}
	}
	return fixed
}

// Resample converts the trace to a new sampling interval. Downsampling
// (newInterval > Interval) averages the samples covered by each new bucket,
// which is how one-minute grids are built from finer telemetry; upsampling
// repeats values (step interpolation). The trace name is preserved.
func (t *Trace) Resample(newInterval time.Duration) (*Trace, error) {
	if newInterval <= 0 {
		return nil, errors.New("trace: non-positive interval")
	}
	if t.Interval <= 0 {
		return nil, errors.New("trace: source interval unset")
	}
	if newInterval == t.Interval {
		return t.Clone(), nil
	}
	srcDur := t.Duration()
	n := int(srcDur / newInterval)
	if n == 0 {
		n = 1
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		start := time.Duration(i) * newInterval
		end := start + newInterval
		lo := int(start / t.Interval)
		hi := int(end / t.Interval)
		if hi <= lo {
			hi = lo + 1
		}
		if hi > len(t.Values) {
			hi = len(t.Values)
		}
		if lo >= len(t.Values) {
			lo = len(t.Values) - 1
			hi = len(t.Values)
		}
		out[i] = stats.Mean(t.Values[lo:hi])
	}
	return &Trace{Name: t.Name, Interval: newInterval, Values: out}, nil
}

// Summary captures the descriptive statistics reported per trace in the
// experiment harness.
type Summary struct {
	Name     string
	Samples  int
	Mean     float64
	Max      float64
	Min      float64
	P50      float64
	P90      float64
	P99      float64
	StdDev   float64
	Duration time.Duration
}

// Summarize computes descriptive statistics for the trace.
func (t *Trace) Summarize() Summary {
	s := Summary{Name: t.Name, Samples: t.Len(), Duration: t.Duration()}
	if t.Len() == 0 {
		return s
	}
	s.Mean = stats.Mean(t.Values)
	s.Max = stats.Max(t.Values)
	s.Min = stats.Min(t.Values)
	s.StdDev = stats.StdDev(t.Values)
	sorted := append([]float64(nil), t.Values...)
	sort.Float64s(sorted)
	s.P50, _ = stats.QuantileSorted(sorted, 0.50)
	s.P90, _ = stats.QuantileSorted(sorted, 0.90)
	s.P99, _ = stats.QuantileSorted(sorted, 0.99)
	return s
}

// String summarises the trace.
func (t *Trace) String() string {
	s := t.Summarize()
	return fmt.Sprintf("Trace{%s: %d samples @ %s, mean=%.2f max=%.2f}",
		t.Name, s.Samples, t.Interval, s.Mean, s.Max)
}

// WriteCSV writes the trace as "index,cpu" rows with a header.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"index", "cpu_cores"}); err != nil {
		return err
	}
	for i, v := range t.Values {
		if err := cw.Write([]string{strconv.Itoa(i), strconv.FormatFloat(v, 'f', -1, 64)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a trace written by WriteCSV. The interval must be
// supplied by the caller since CSV rows carry only sample indices.
func ReadCSV(r io.Reader, name string, interval time.Duration) (*Trace, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: reading csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, errors.New("trace: empty csv")
	}
	start := 0
	if len(rows[0]) >= 2 && rows[0][1] == "cpu_cores" {
		start = 1
	}
	values := make([]float64, 0, len(rows)-start)
	for _, row := range rows[start:] {
		if len(row) < 2 {
			return nil, fmt.Errorf("trace: short csv row %v", row)
		}
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: parsing %q: %w", row[1], err)
		}
		values = append(values, v)
	}
	return &Trace{Name: name, Interval: interval, Values: values}, nil
}

// jsonTrace is the serialised representation used by MarshalJSON.
type jsonTrace struct {
	Name       string    `json:"name"`
	IntervalMS int64     `json:"interval_ms"`
	Values     []float64 `json:"values"`
}

// MarshalJSON encodes the trace with its interval in milliseconds.
func (t *Trace) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonTrace{
		Name:       t.Name,
		IntervalMS: t.Interval.Milliseconds(),
		Values:     t.Values,
	})
}

// UnmarshalJSON decodes a trace written by MarshalJSON.
func (t *Trace) UnmarshalJSON(data []byte) error {
	var jt jsonTrace
	if err := json.Unmarshal(data, &jt); err != nil {
		return err
	}
	if jt.IntervalMS <= 0 {
		return errors.New("trace: non-positive interval in JSON")
	}
	t.Name = jt.Name
	t.Interval = time.Duration(jt.IntervalMS) * time.Millisecond
	t.Values = jt.Values
	return nil
}
