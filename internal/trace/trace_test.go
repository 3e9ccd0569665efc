package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func minuteTrace(values ...float64) *Trace {
	return New("t", time.Minute, values)
}

func TestNewCopiesValues(t *testing.T) {
	src := []float64{1, 2, 3}
	tr := New("x", time.Minute, src)
	src[0] = 99
	if tr.Values[0] != 1 {
		t.Error("New must copy its input")
	}
}

func TestLenDurationAt(t *testing.T) {
	tr := minuteTrace(1, 2, 3)
	if tr.Len() != 3 {
		t.Errorf("Len = %d", tr.Len())
	}
	if tr.Duration() != 3*time.Minute {
		t.Errorf("Duration = %v", tr.Duration())
	}
	if tr.At(-5) != 1 || tr.At(0) != 1 || tr.At(2) != 3 || tr.At(99) != 3 {
		t.Error("At should clamp indices")
	}
	empty := minuteTrace()
	if empty.At(0) != 0 {
		t.Error("At on empty trace should be 0")
	}
}

func TestWindow(t *testing.T) {
	tr := minuteTrace(0, 1, 2, 3, 4)
	if got := tr.Window(1, 3); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Window(1,3) = %v", got)
	}
	if got := tr.Window(-10, 2); len(got) != 2 {
		t.Errorf("Window(-10,2) = %v", got)
	}
	if got := tr.Window(3, 100); len(got) != 2 {
		t.Errorf("Window(3,100) = %v", got)
	}
	if got := tr.Window(4, 2); got != nil {
		t.Errorf("inverted window = %v", got)
	}
}

func TestScaleClipRound(t *testing.T) {
	tr := minuteTrace(0.5, 1.4, 2.6)
	tr.Scale(2)
	if tr.Values[0] != 1 || tr.Values[1] != 2.8 || tr.Values[2] != 5.2 {
		t.Errorf("Scale: %v", tr.Values)
	}
	tr.Clip(1.5, 5)
	if tr.Values[0] != 1.5 || tr.Values[2] != 5 {
		t.Errorf("Clip: %v", tr.Values)
	}
	tr.Round()
	if tr.Values[0] != 2 || tr.Values[1] != 3 || tr.Values[2] != 5 {
		t.Errorf("Round: %v", tr.Values)
	}
}

func TestSanitize(t *testing.T) {
	tr := minuteTrace(1, math.NaN(), math.Inf(1), -3, 2)
	fixed := tr.Sanitize()
	if fixed != 3 {
		t.Errorf("fixed = %d, want 3", fixed)
	}
	for i, v := range tr.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Errorf("value %d not sanitized: %v", i, v)
		}
	}
}

func TestResampleDownAverages(t *testing.T) {
	// 10s samples -> 1min buckets of 6 samples each.
	vals := make([]float64, 12)
	for i := range vals {
		vals[i] = float64(i)
	}
	tr := New("fine", 10*time.Second, vals)
	out, err := tr.Resample(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("Len = %d, want 2", out.Len())
	}
	if out.Values[0] != 2.5 || out.Values[1] != 8.5 {
		t.Errorf("Resample = %v", out.Values)
	}
	if out.Interval != time.Minute {
		t.Errorf("Interval = %v", out.Interval)
	}
}

func TestResampleUpRepeats(t *testing.T) {
	tr := minuteTrace(1, 2)
	out, err := tr.Resample(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 2, 2}
	if out.Len() != 4 {
		t.Fatalf("Len = %d", out.Len())
	}
	for i := range want {
		if out.Values[i] != want[i] {
			t.Errorf("upsample[%d] = %v, want %v", i, out.Values[i], want[i])
		}
	}
}

func TestResampleIdentityAndErrors(t *testing.T) {
	tr := minuteTrace(1, 2, 3)
	same, err := tr.Resample(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if same == tr {
		t.Error("identity resample should clone")
	}
	if _, err := tr.Resample(0); err == nil {
		t.Error("zero interval should error")
	}
	bad := &Trace{Name: "x", Values: []float64{1}}
	if _, err := bad.Resample(time.Minute); err == nil {
		t.Error("unset source interval should error")
	}
}

func TestResamplePreservesMeanProperty(t *testing.T) {
	// Property: downsampling by an exact divisor preserves the mean.
	f := func(seed uint8) bool {
		n := 120
		vals := make([]float64, n)
		x := float64(seed)
		for i := range vals {
			x = math.Mod(x*1.7+3.1, 17)
			vals[i] = x
		}
		tr := New("p", time.Minute, vals)
		out, err := tr.Resample(10 * time.Minute)
		if err != nil {
			return false
		}
		var a, b float64
		for _, v := range vals {
			a += v
		}
		a /= float64(len(vals))
		for _, v := range out.Values {
			b += v
		}
		b /= float64(len(out.Values))
		return math.Abs(a-b) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	tr := minuteTrace(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	s := tr.Summarize()
	if s.Samples != 10 || s.Mean != 5.5 || s.Max != 10 || s.Min != 1 {
		t.Errorf("Summary = %+v", s)
	}
	if s.P50 != 5.5 {
		t.Errorf("P50 = %v", s.P50)
	}
	if s.P90 < 9 || s.P90 > 10 {
		t.Errorf("P90 = %v", s.P90)
	}
	empty := minuteTrace()
	es := empty.Summarize()
	if es.Samples != 0 || es.Mean != 0 {
		t.Errorf("empty Summary = %+v", es)
	}
}

func TestFeatureVector(t *testing.T) {
	tr := minuteTrace(2, 2, 2, 8)
	fv := tr.FeatureVector()
	if len(fv) != 6 {
		t.Fatalf("feature vector length = %d", len(fv))
	}
	if fv[0] != 3.5 {
		t.Errorf("mean feature = %v", fv[0])
	}
	if fv[5] != 8.0/3.5 {
		t.Errorf("burstiness = %v", fv[5])
	}
	flat := minuteTrace()
	if got := flat.FeatureVector(); got[5] != 0 {
		t.Errorf("empty burstiness = %v", got[5])
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := minuteTrace(1.5, 2.25, 0)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "t", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("round trip length %d != %d", got.Len(), tr.Len())
	}
	for i := range tr.Values {
		if got.Values[i] != tr.Values[i] {
			t.Errorf("value %d: %v != %v", i, got.Values[i], tr.Values[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), "t", time.Minute); err == nil {
		t.Error("empty csv should error")
	}
	if _, err := ReadCSV(strings.NewReader("index,cpu_cores\n0,notanumber\n"), "t", time.Minute); err == nil {
		t.Error("bad float should error")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := New("json", 30*time.Second, []float64{1, 2, 3})
	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var got Trace
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "json" || got.Interval != 30*time.Second || got.Len() != 3 {
		t.Errorf("round trip: %+v", got)
	}
	var bad Trace
	if err := json.Unmarshal([]byte(`{"name":"x","interval_ms":0,"values":[]}`), &bad); err == nil {
		t.Error("zero interval JSON should error")
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := minuteTrace(1, 2)
	c := tr.Clone()
	c.Values[0] = 99
	if tr.Values[0] != 1 {
		t.Error("Clone must not share backing array")
	}
}

func TestStringContainsName(t *testing.T) {
	tr := minuteTrace(1)
	if s := tr.String(); !strings.Contains(s, "t:") && !strings.Contains(s, "Trace{") {
		t.Errorf("String = %q", s)
	}
}

func TestPeak(t *testing.T) {
	if p := minuteTrace(1, 7.5, 3).Peak(); p != 7.5 {
		t.Errorf("Peak = %v, want 7.5", p)
	}
	empty := New("empty", time.Minute, nil)
	if p := empty.Peak(); p != 0 {
		t.Errorf("Peak of empty trace = %v, want 0", p)
	}
	// NaN samples must not poison the scan; all-negative traces peak at 0
	// (a ladder bound can never be negative).
	weird := New("weird", time.Minute, []float64{math.NaN(), -4, 2.25, math.NaN()})
	if p := weird.Peak(); p != 2.25 {
		t.Errorf("Peak with NaN = %v, want 2.25", p)
	}
	neg := New("neg", time.Minute, []float64{-3, -1})
	if p := neg.Peak(); p != 0 {
		t.Errorf("Peak of negative trace = %v, want 0", p)
	}
}

func TestRunStarts(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		vs   []float64
		want []int32
	}{
		{"empty", nil, nil},
		{"flat", []float64{2, 2, 2, 2, 2, 2, 2, 2}, []int32{0}},
		{"two runs at len/4", []float64{1, 1, 1, 1, 3, 3, 3, 3}, []int32{0, 4}},
		{"three runs over len/4", []float64{1, 1, 1, 3, 3, 3, 1, 1}, nil},
		{"noisy", []float64{1, 2, 3, 4, 5, 6, 7, 8}, nil},
		{"NaN never extends a run", []float64{nan, nan, 1, 1, 1, 1, 1, 1}, nil},
		{"single sample", []float64{5}, nil},
	}
	for _, tc := range cases {
		got := minuteTrace(tc.vs...).RunStarts()
		if len(got) != len(tc.want) || (got == nil) != (tc.want == nil) {
			t.Errorf("%s: RunStarts = %v, want %v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: RunStarts = %v, want %v", tc.name, got, tc.want)
				break
			}
		}
	}
}
