package stats

import (
	"math"
	"math/rand"
	"testing"
)

// loopAddN is the definition AddN must match bit for bit.
func loopAddN(s, x float64, n int) float64 {
	for ; n > 0; n-- {
		s += x
	}
	return s
}

// maxFuzzN caps the run length a fuzz input asks for, so the reference
// loop stays in the milliseconds.
const maxFuzzN = 1_000_000

// addNCases are the edge operands: ties at u/2 and 3u/2 from odd and even
// s, binade edges, δ = 0, zero, subnormal, huge, negative, NaN and ±Inf.
var addNCases = []struct {
	s, x float64
	n    int
}{
	{5000, 1.62, 540},                                 // a ledger run: one jump
	{12.5, 1.62, 540},                                 // crosses several binades
	{0, 0.1, 1000},                                    // starts at zero
	{1, 0x1p-53, 10},                                  // u/2 tie from even a: final at once
	{1 + 0x1p-52, 0x1p-53, 10},                        // u/2 tie from odd a: one step, then final
	{1 + 0x1p-52, 3 * 0x1p-53, 1000},                  // 3u/2 tie from odd a
	{1, 3 * 0x1p-53, 1 << 20},                         // 3u/2 tie from even a, across the edge
	{1, 5 * 0x1p-54, 1000},                            // 5u/4: rounds down to u
	{1, 7 * 0x1p-54, 1000},                            // 7u/4: rounds up to 2u
	{2 - 0x1p-51, 0x1p-52, 10},                        // one step below the edge
	{2 - 0x1p-52, 0x1p-53, 10},                        // the last step rounds up to the edge
	{1e16, 0.4, 1000},                                 // δ = 0
	{1e16, 1, 1000},                                   // x = u/2 at 1e16, a tie
	{0x1p-1074, 0x1p-1074, maxFuzzN},                  // subnormal
	{0x1p-1023, 0x1p-1070, 1000},                      // subnormal s, crossing into the normals
	{0, 0x1p-1060, maxFuzzN},                          // zero plus a subnormal
	{math.Copysign(0, -1), 0.25, 100},                 // negative zero
	{1.7e308, 1e292, 1000},                            // huge: overflows to +Inf
	{0x1p1022, 0x1p970, 1 << 16},                      // the binade below the last one
	{-3, 0.7, 100},                                    // negative s
	{-0.1, 0.3, 100},                                  // negative s crossing zero
	{2, -0.3, 100},                                    // negative x
	{math.NaN(), 1, 10},                               // NaN s
	{1, math.NaN(), 10},                               // NaN x
	{math.Inf(1), 1, 10},                              // +Inf s
	{1, math.Inf(1), 10},                              // +Inf x
	{math.Inf(-1), math.Inf(1), 10},                   // −Inf + Inf = NaN
	{1, math.Inf(-1), 10},                             // −Inf x
	{3, 0, 10},                                        // zero x
	{math.Float64frombits(0x7ff4000000000001), 1, 10}, // signalling NaN s
	{1, math.Float64frombits(0x7ff0000000000abc), 10}, // signalling NaN x
	{0.1, 0.1, maxFuzzN},                              // many binades, n = 10⁶
	{123.456, 1e-13, 0},                               // n = 0
	{123.456, 1e-13, -5},                              // negative n: no additions
}

// TestAddNRandom draws operands the ledger and the severity sum meet —
// sums of a few thousand at most, small steps, some on an exact grid so
// ties come up — plus arbitrary bit patterns.
func TestAddNRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var s, x float64
		switch i % 4 {
		case 0: // ledger-like
			s, x = rng.Float64()*5000, rng.Float64()*4
		case 1: // dyadic grid: ties and exact steps
			s = float64(rng.Intn(1<<20)) / 1024
			x = float64(rng.Intn(1<<12)+1) * math.Ldexp(1, -rng.Intn(60))
		case 2: // steps near the spacing of s
			s = math.Ldexp(1+rng.Float64(), rng.Intn(200)-100)
			x = math.Ldexp(s, -52-rng.Intn(4)) * float64(rng.Intn(8)+1) / 2
		default: // any bits
			s = math.Float64frombits(rng.Uint64())
			x = math.Float64frombits(rng.Uint64())
		}
		n := rng.Intn(5000)
		want := loopAddN(s, x, n)
		if got := AddN(s, x, n); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("AddN(%#x, %#x, %d) = %#x, loop gives %#x",
				math.Float64bits(s), math.Float64bits(x), n, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// FuzzAddN is the differential check of AddN against the plain loop,
// compared bit for bit; tier-1 replays the edge cases as its seeds.
func FuzzAddN(f *testing.F) {
	for _, c := range addNCases {
		f.Add(c.s, c.x, c.n)
	}
	f.Fuzz(func(t *testing.T, s, x float64, n int) {
		k := n % (maxFuzzN + 1)
		want := loopAddN(s, x, k)
		if got := AddN(s, x, k); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("AddN(%#x, %#x, %d) = %#x, loop gives %#x",
				math.Float64bits(s), math.Float64bits(x), k, math.Float64bits(got), math.Float64bits(want))
		}
	})
}

var addNSink float64

func BenchmarkAddN(b *testing.B) {
	for _, bc := range []struct {
		name string
		s    float64
	}{{"one-binade", 5000}, {"crossing", 12.5}} {
		b.Run(bc.name+"/loop", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				addNSink = loopAddN(bc.s, 1.62, 540)
			}
		})
		b.Run(bc.name+"/jump", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				addNSink = AddN(bc.s, 1.62, 540)
			}
		})
	}
}
