package core

import (
	"math"
	"slices"
	"testing"

	"caasper/internal/pvp"
)

// decodeSkewKey is skewKey's inverse for vectors of length n.
func decodeSkewKey(key uint64, n int) []int32 {
	out := make([]int32, n)
	for ; key != 0; key >>= 16 {
		out[key>>8&0xff] = int32(key & 0xff)
	}
	return out
}

// TestSkewKeyExact: every vector with at most four non-zero counts, each
// in slot and count ≤ 255, reads back from its key, so no two share one;
// a fifth non-zero slot, slot 256 and count 256 are refused.
func TestSkewKeyExact(t *testing.T) {
	const n = 7
	values := []int32{0, 1, 2, 254, 255}
	seen := map[uint64][]int32{}
	v := make([]int32, n)
	var walk func(i, nonzero int)
	walk = func(i, nonzero int) {
		if i == n {
			if nonzero == 0 {
				return // an empty window is never decided
			}
			key, ok := skewKey(v)
			if !ok || key == 0 {
				t.Fatalf("skewKey(%v) = %#x, %v", v, key, ok)
			}
			if got := decodeSkewKey(key, n); !slices.Equal(got, v) {
				t.Fatalf("skewKey(%v) = %#x reads back as %v", v, key, got)
			}
			if prev, dup := seen[key]; dup {
				t.Fatalf("%v and %v share key %#x", prev, v, key)
			}
			seen[key] = append([]int32(nil), v...)
			return
		}
		for _, c := range values {
			switch {
			case c == 0:
				v[i] = c
				walk(i+1, nonzero)
			case nonzero < 4:
				v[i] = c
				walk(i+1, nonzero+1)
			}
		}
		v[i] = 0
	}
	walk(0, 0)
	if len(seen) == 0 {
		t.Fatal("no vector enumerated")
	}

	wide := make([]int32, 257)
	wide[255] = 3
	if key, ok := skewKey(wide); !ok || !slices.Equal(decodeSkewKey(key, len(wide)), wide) {
		t.Fatalf("slot 255: key %#x, %v", key, ok)
	}
	for _, bad := range [][]int32{
		{1, 1, 1, 1, 1},
		{0, 3, 0, 1, 1, 2, 0, 9},
		{0, 256, 0},
		{7, 0, 1 << 16},
		{-1, 2},
		append(make([]int32, 256), 1),
	} {
		if key, ok := skewKey(bad); ok {
			t.Errorf("skewKey(len %d vector) = %#x, true; want refused", len(bad), key)
		}
	}
}

// TestScalingFactorZeroProduct: Eq. 3 as evaluate computes it is bit for
// bit pvp.ScalingFactor for slopes and skews at the edges of the zero
// product, with c_min below 1 and with a non-positive skew weight; the
// shortcut is taken where the product is exactly zero, including a
// product that underflows.
func TestScalingFactorZeroProduct(t *testing.T) {
	edges := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1)}
	shortcuts := 0
	for _, sf := range []pvp.ScalingFactorParams{
		{CMin: 2, SkewWeight: 4},
		{CMin: 0.5, SkewWeight: 4},
		{CMin: 0, SkewWeight: 1},
		{CMin: math.Copysign(0, -1), SkewWeight: 1},
		{CMin: -3, SkewWeight: 2},
		{CMin: 2, SkewWeight: 0},
		{CMin: 0.5, SkewWeight: -1},
	} {
		cfg := DefaultConfig(16)
		cfg.SF = sf
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range edges {
			for _, skew := range edges {
				want := pvp.ScalingFactor(s, skew, sf)
				if got := r.scalingFactor(s, skew); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%+v: scalingFactor(%v, %v) = %v, pvp.ScalingFactor gives %v", sf, s, skew, got, want)
				}
				if sf.Product(s, skew) == 0 {
					shortcuts++
				}
			}
		}
	}
	if shortcuts == 0 {
		t.Fatal("no input took the zero-product shortcut")
	}
}

// TestSkewTableAllocs pins when the skew table is made: a fresh scratch's
// first evaluation allocates what it did before the table existed (the
// memo-key buffer, the curve's points and slopes), and only the second
// makes the table, beside the second buffer the key swap needs.
func TestSkewTableAllocs(t *testing.T) {
	r := mustRecommender(t, 16)
	a := []float64{2, 2, 2, 2, 3, 3, 3, 3}
	b := []float64{2, 2, 2, 3, 3, 3, 3, 3}
	wa, wb := r.NewWindowCounts(), r.NewWindowCounts()
	wa.Recount(a)
	wb.Recount(b)
	var sc Scratch
	decide := func(u []float64, w *WindowCounts) {
		if _, err := r.DecideCounted(&sc, 3, u, w); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name   string
		run    func()
		allocs float64
	}{
		{"first", func() { sc = Scratch{}; decide(a, &wa) }, 3},
		{"first two", func() { sc = Scratch{}; decide(a, &wa); decide(b, &wb) }, 5},
	} {
		if got := testing.AllocsPerRun(50, c.run); got != c.allocs {
			t.Errorf("%s evaluation(s) of a fresh scratch: %v allocations, want %v", c.name, got, c.allocs)
		}
	}
	sc = Scratch{}
	decide(a, &wa)
	if sc.skews != nil {
		t.Fatal("the first evaluation made the skew table")
	}
	decide(b, &wb)
	if sc.skews == nil {
		t.Fatal("the second evaluation made no skew table")
	}
	decide(a, &wa)
	if sc.MemoMisses != 3 || sc.skews.keys[0] == 0 || sc.skews.keys[1] == 0 {
		t.Fatalf("misses %d, table keys %#x", sc.MemoMisses, sc.skews.keys)
	}
}
