package stats

import (
	"math"
	"sort"
	"testing"
)

// sortedQuantileMax is the reference QuantileMax must match: a full sort,
// QuantileSorted and Max.
func sortedQuantileMax(t testing.TB, xs []float64, q float64) (float64, float64) {
	t.Helper()
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	v, err := QuantileSorted(sorted, q)
	if err != nil {
		t.Fatal(err)
	}
	return v, Max(xs)
}

// topM is the number of largest values QuantileMax reads for n samples.
func topM(n int, q float64) int {
	q = math.Max(0, math.Min(1, q))
	return n - int(math.Floor(q*float64(n-1)))
}

// TestQuantileMaxMatchesSorted: both kernels — the top-m scan and the
// quickselect fallback — must return exactly the order statistics a sort
// would, leave the input untouched, and agree with and without a spare
// buffer.
func TestQuantileMaxMatchesSorted(t *testing.T) {
	rng := NewRNG(13)
	qs := []float64{0, 0.05, 0.5, 0.8, 0.83, 0.9, 0.95, 0.99, 1, -0.5, 1.5}
	var spare []float64
	scans, selects := 0, 0
	for trial := 0; trial < 400; trial++ {
		n := 1 + trial%211
		xs := make([]float64, n)
		for i := range xs {
			switch trial % 4 {
			case 0:
				xs[i] = rng.Range(0, 16)
			case 1:
				xs[i] = float64(int(rng.Range(0, 5))) // heavy duplicates
			case 2:
				xs[i] = float64(i) // ascending: every value enters the top
			default:
				xs[i] = 3.25 // constant
			}
		}
		orig := append([]float64(nil), xs...)
		for _, q := range qs {
			wantQ, wantMax := sortedQuantileMax(t, xs, q)
			for _, sp := range []*[]float64{&spare, nil} {
				gotQ, gotMax, err := QuantileMax(xs, q, sp)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(gotQ) != math.Float64bits(wantQ) || math.Float64bits(gotMax) != math.Float64bits(wantMax) {
					t.Fatalf("trial %d n=%d q=%v: got (%v, %v), want (%v, %v)", trial, n, q, gotQ, gotMax, wantQ, wantMax)
				}
			}
			for i := range xs {
				if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
					t.Fatalf("trial %d q=%v: input modified at %d", trial, q, i)
				}
			}
			if topM(n, q) <= topMax {
				scans++
			} else {
				selects++
			}
		}
	}
	if scans == 0 || selects == 0 {
		t.Fatalf("kernel coverage: %d top-m scans, %d quickselects", scans, selects)
	}
}

// TestQuantileMaxZeroAlloc: both kernels run once per decision tick and
// must not allocate once the spare buffer is warm.
func TestQuantileMaxZeroAlloc(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64((i * 131) % 97)
	}
	var spare []float64
	for _, q := range []float64{0.95, 0.5} { // m = 11 and 100 at n = 200
		if _, _, err := QuantileMax(xs, q, &spare); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, _, err := QuantileMax(xs, q, &spare); err != nil {
				t.Fatal(err)
			}
			if _, _, err := QuantileMax(xs[:40], q, &spare); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("q=%v: QuantileMax allocs = %v, want 0", q, allocs)
		}
	}
}

// decodeWindow turns fuzz bytes into a window. In small mode each byte is
// one of 256 quarter steps from −8 to 55.75, so ties, runs and all-equal
// windows are common; otherwise every 8 bytes are one float64's bits, NaNs
// skipped (NaN samples are a caller error).
func decodeWindow(data []byte, small bool) []float64 {
	var xs []float64
	if small {
		for _, b := range data {
			xs = append(xs, float64(int(b)-32)/4)
		}
		return xs
	}
	for ; len(data) >= 8; data = data[8:] {
		var u uint64
		for i := 0; i < 8; i++ {
			u = u<<8 | uint64(data[i])
		}
		if v := math.Float64frombits(u); !math.IsNaN(v) {
			xs = append(xs, v)
		}
	}
	return xs
}

// sameValue is == except that two NaNs (from interpolating between
// infinities of opposite sign) also agree.
func sameValue(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// FuzzQuantileMax checks QuantileMax against sort + QuantileSorted + Max
// and that the input is left unmodified. Values compare with ==: which
// zero a tie between −0 and +0 yields is not specified.
func FuzzQuantileMax(f *testing.F) {
	// perm is n distinct small-mode bytes in a scrambled order.
	perm := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i * 37 % n)
		}
		return b
	}
	f.Add([]byte{9, 9, 9, 3, 3, 12, 12, 12, 1}, 0.95, true)       // duplicates
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, 0.95, true) // all equal
	f.Add([]byte{20}, 0.95, true)                                 // n = 1
	f.Add([]byte{1, 30, 2, 29, 3, 28, 4, 27}, 1.0, true)          // q = 1
	f.Add(perm(40), 0.95, true)                                   // m = 3
	f.Add(perm(40), 0.83, true)                                   // m = 8
	f.Add(perm(40), 0.8, true)                                    // m = 9
	f.Add(perm(200), 0.9, true)                                   // m = 21
	f.Add([]byte{0x7f, 0xf0, 0, 0, 0, 0, 0, 0, 0xff, 0xf0, 0, 0, 0, 0, 0, 0, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0}, 0.5, false)
	f.Fuzz(func(t *testing.T, data []byte, q float64, small bool) {
		xs := decodeWindow(data, small)
		if len(xs) == 0 || len(xs) > 1024 {
			return
		}
		orig := append([]float64(nil), xs...)
		var spare []float64
		gotQ, gotMax, err := QuantileMax(xs, q, &spare)
		if math.IsNaN(q) {
			if err != ErrNaNQuantile {
				t.Fatalf("q=NaN: err = %v, want ErrNaNQuantile", err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		wantQ, wantMax := sortedQuantileMax(t, xs, q)
		if !sameValue(gotQ, wantQ) || !sameValue(gotMax, wantMax) {
			t.Fatalf("n=%d q=%v: got (%v, %v), want (%v, %v)", len(xs), q, gotQ, gotMax, wantQ, wantMax)
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("input modified at %d: %v -> %v", i, orig[i], xs[i])
			}
		}
	})
}
