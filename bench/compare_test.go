package bench

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) for each input.
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3}, [3]float64{1.5, 5, 9.25}},
		{[]float64{4, 8}, [3]float64{3, 6, 9}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		q1, q2, q3 := Quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("Quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// around returns n runs spread ±spread around center, in a shuffled
// deterministic order.
func around(center, spread float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = center * (1 + spread*(float64((i*7)%n)/float64(n-1)*2-1))
	}
	return xs
}

func TestCompareVerdicts(t *testing.T) {
	lower := Metric{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := Metric{Name: "tenant_minutes_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name     string
		m        Metric
		old, new []float64
		want     string
	}{
		{"same distribution", lower, around(100, 0.02, 10), around(100, 0.02, 10), VerdictOK},
		{"small slowdown inside the bound", lower, around(100, 0.02, 10), around(104, 0.02, 10), VerdictOK},
		{"slowdown beyond the bound", lower, around(100, 0.02, 10), around(115, 0.02, 10), VerdictRegressed},
		{"throughput drop beyond the bound", higher, around(100, 0.02, 10), around(85, 0.02, 10), VerdictRegressed},
		{"clear speedup", lower, around(100, 0.02, 10), around(90, 0.02, 10), VerdictImproved},
		{"clear throughput gain", higher, around(100, 0.02, 10), around(110, 0.02, 10), VerdictImproved},
		{"noise wider than the bound", lower, around(100, 0.30, 10), around(101, 0.30, 10), VerdictUnresolved},
		{"noisy but every new run wins", lower, []float64{100, 130, 160, 190}, []float64{50, 60, 70, 80}, VerdictImproved},
	} {
		if got := Compare(c.m, c.old, c.new).Verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareImprovedNeedsPairWins: a median gain larger than the spread
// is not enough when the change loses too many pairs.
func TestCompareImprovedNeedsPairWins(t *testing.T) {
	m := Metric{Better: "lower", Bound: 0.5}
	old := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}
	cur := []float64{5, 5, 5, 5, 5, 5, 5, 5, 11, 11}
	c := Compare(m, old, cur)
	if c.Wins != 8 || c.Verdict == VerdictImproved {
		t.Fatalf("wins %d verdict %s; want 8 wins and no improvement", c.Wins, c.Verdict)
	}
}

func TestFailureVerdict(t *testing.T) {
	if v := FailureVerdict(0, 100, 1, 100); v != VerdictRegressed {
		t.Errorf("a new failure: %s", v)
	}
	if v := FailureVerdict(1, 100, 1, 200); v != VerdictOK {
		t.Errorf("a lower failure share: %s", v)
	}
	if math.IsNaN(ratio(0, 0)) {
		t.Error("ratio(0, 0) is NaN")
	}
}
