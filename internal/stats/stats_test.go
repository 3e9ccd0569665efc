package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSumMean(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		sum  float64
		mean float64
	}{
		{"empty", nil, 0, 0},
		{"single", []float64{3}, 3, 3},
		{"several", []float64{1, 2, 3, 4}, 10, 2.5},
		{"negatives", []float64{-1, 1, -2, 2}, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Sum(c.in); got != c.sum {
				t.Errorf("Sum = %v, want %v", got, c.sum)
			}
			if got := Mean(c.in); got != c.mean {
				t.Errorf("Mean = %v, want %v", got, c.mean)
			}
		})
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n-1 denominator = 32/7.
	want := 32.0 / 7.0
	if got := Variance(xs); !almostEqual(got, want, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	if got := StdDev(xs); !almostEqual(got, math.Sqrt(want), 1e-12) {
		t.Errorf("StdDev = %v, want %v", got, math.Sqrt(want))
	}
	if Variance([]float64{5}) != 0 {
		t.Error("Variance of single sample should be 0")
	}
	if Variance(nil) != 0 {
		t.Error("Variance of empty sample should be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %v", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Min(empty) should panic")
		}
	}()
	Min(nil)
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
		{-0.5, 1}, {1.5, 5}, // clamped
	}
	for _, c := range cases {
		got, _, err := QuantileMax(xs, c.q, nil)
		if err != nil {
			t.Fatalf("QuantileMax(%v): %v", c.q, err)
		}
		if !almostEqual(got, c.want, 1e-12) {
			t.Errorf("QuantileMax(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if _, _, err := QuantileMax(nil, 0.5, nil); err != ErrEmpty {
		t.Errorf("QuantileMax(empty) err = %v, want ErrEmpty", err)
	}
	if _, _, err := QuantileMax(xs, math.NaN(), nil); err != ErrNaNQuantile {
		t.Errorf("QuantileMax(q=NaN) err = %v, want ErrNaNQuantile", err)
	}
	if _, err := QuantileSorted(xs, math.NaN()); err != ErrNaNQuantile {
		t.Errorf("QuantileSorted(q=NaN) err = %v, want ErrNaNQuantile", err)
	}
	// Interpolation between ranks.
	got, _, _ := QuantileMax([]float64{10, 20}, 0.5, nil)
	if !almostEqual(got, 15, 1e-12) {
		t.Errorf("median of {10,20} = %v, want 15", got)
	}
}

func TestQuantileSortedMatchesQuantile(t *testing.T) {
	rng := NewRNG(42)
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	sorted := append([]float64(nil), xs...)
	sortFloats(sorted)
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.95, 1} {
		a, _, _ := QuantileMax(xs, q, nil)
		b, _ := QuantileSorted(sorted, q)
		if a != b {
			t.Errorf("q=%v: QuantileMax=%v QuantileSorted=%v", q, a, b)
		}
	}
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func TestSkewness(t *testing.T) {
	if got := Skewness([]float64{1, 2}); got != 0 {
		t.Errorf("Skewness(n<3) = %v, want 0", got)
	}
	if got := Skewness([]float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("Skewness(constant) = %v, want 0", got)
	}
	// Symmetric distribution: near-zero skew.
	if got := Skewness([]float64{1, 2, 3, 4, 5}); !almostEqual(got, 0, 1e-12) {
		t.Errorf("Skewness(symmetric) = %v, want 0", got)
	}
	// Right-skewed data has positive skewness.
	right := []float64{1, 1, 1, 1, 2, 2, 3, 10}
	if got := Skewness(right); got <= 0 {
		t.Errorf("Skewness(right-skewed) = %v, want > 0", got)
	}
	// Mirrored data flips the sign.
	left := make([]float64, len(right))
	for i, v := range right {
		left[i] = -v
	}
	if got, want := Skewness(left), -Skewness(right); !almostEqual(got, want, 1e-12) {
		t.Errorf("Skewness(mirror) = %v, want %v", got, want)
	}
}

func TestLinearFit(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 1 + 2x
	a, b, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(a, 1, 1e-12) || !almostEqual(b, 2, 1e-12) {
		t.Errorf("fit = (%v, %v), want (1, 2)", a, b)
	}
	// Degenerate x: slope 0, intercept mean(y).
	a, b, err = LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3})
	if err != nil || b != 0 || !almostEqual(a, 2, 1e-12) {
		t.Errorf("degenerate fit = (%v, %v, %v)", a, b, err)
	}
	if _, _, err := LinearFit([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, _, err := LinearFit([]float64{1}, []float64{1}); err != ErrEmpty {
		t.Errorf("short input err = %v, want ErrEmpty", err)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp misbehaves")
	}
	if ClampInt(5, 0, 3) != 3 || ClampInt(-1, 0, 3) != 0 || ClampInt(2, 0, 3) != 2 {
		t.Error("ClampInt misbehaves")
	}
}

func TestQuantilePropertyBounds(t *testing.T) {
	// Property: any quantile lies within [min, max] of the sample.
	f := func(raw []float64, q float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			xs = append(xs, v)
		}
		if len(xs) == 0 {
			return true
		}
		qq := math.Mod(math.Abs(q), 1)
		got, _, err := QuantileMax(xs, qq, nil)
		if err != nil {
			return false
		}
		return got >= Min(xs)-1e-9 && got <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantilePropertyMonotone(t *testing.T) {
	// Property: quantiles are monotone non-decreasing in q.
	rng := NewRNG(7)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v, _, _ := QuantileMax(xs, q, nil)
			if v < prev-1e-9 {
				t.Fatalf("quantile not monotone at q=%v: %v < %v", q, v, prev)
			}
			prev = v
		}
	}
}

// ---------------------------------------------------------------------------
// Quickselect quantile equivalence (the O(window) hot-path contract)

// TestQuantileInPlaceMatchesSorted: quantileInPlace must be bit-identical
// to the sort-based QuantileSorted for every q, including duplicate-heavy
// and adversarially ordered inputs — the decision hot path swaps one for
// the other and the goldens require byte-equal decisions.
func TestQuantileInPlaceMatchesSorted(t *testing.T) {
	rng := NewRNG(7)
	qs := []float64{0, 0.05, 0.25, 0.5, 0.9, 0.95, 0.99, 1, -0.5, 1.5}
	for trial := 0; trial < 300; trial++ {
		n := 1 + trial%97
		xs := make([]float64, n)
		for i := range xs {
			switch trial % 4 {
			case 0:
				xs[i] = rng.Range(0, 16)
			case 1:
				xs[i] = float64(int(rng.Range(0, 5))) // heavy duplicates
			case 2:
				xs[i] = float64(n - i) // descending
			default:
				xs[i] = 3.25 // constant
			}
		}
		sorted := make([]float64, n)
		copy(sorted, xs)
		sort.Float64s(sorted)
		for _, q := range qs {
			want, err := QuantileSorted(sorted, q)
			if err != nil {
				t.Fatal(err)
			}
			scratch := make([]float64, n)
			copy(scratch, xs)
			got, err := quantileInPlace(scratch, q)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("trial %d n=%d q=%v: in-place %v != sorted %v", trial, n, q, got, want)
			}
			got2, _, err := QuantileMax(xs, q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got2 != want {
				t.Fatalf("trial %d n=%d q=%v: QuantileMax %v != sorted %v", trial, n, q, got2, want)
			}
		}
	}
}

func TestQuantileInPlaceEmpty(t *testing.T) {
	if _, err := quantileInPlace(nil, 0.5); err != ErrEmpty {
		t.Fatalf("empty: err = %v, want ErrEmpty", err)
	}
}

// TestQuantileInPlaceZeroAlloc: the in-place path must not allocate —
// it runs once per decision tick.
func TestQuantileInPlaceZeroAlloc(t *testing.T) {
	xs := make([]float64, 1440)
	for i := range xs {
		xs[i] = float64((i * 131) % 997)
	}
	scratch := make([]float64, len(xs))
	allocs := testing.AllocsPerRun(200, func() {
		copy(scratch, xs)
		if _, err := quantileInPlace(scratch, 0.95); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("quantileInPlace allocs = %v, want 0", allocs)
	}
}
