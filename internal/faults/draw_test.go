package faults

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestFirstFloat64MatchesSource is the differential check of the direct
// draw against a freshly seeded math/rand source, across Seed's
// normalisation: negative seeds, zero, multiples of 2³¹−1 (which
// normalise to zero) and the int64 extremes.
func TestFirstFloat64MatchesSource(t *testing.T) {
	seeds := []int64{0, 1, -1, 2, lehmerMod - 1, lehmerMod, lehmerMod + 1, -lehmerMod,
		-lehmerMod + 1, -lehmerMod - 1, 2 * lehmerMod, -3 * lehmerMod, 89482311, -89482311,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - lehmerMod, math.MaxInt32, math.MinInt32}
	for k := int64(1); k <= 16; k++ {
		seeds = append(seeds, k*lehmerMod, -k*lehmerMod, k*lehmerMod<<20)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed)).Float64()
		if got := firstFloat64(seed); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("firstFloat64(%d) = %v, math/rand gives %v", seed, got, want)
		}
	}
}

var drawSink float64

// BenchmarkDraw times one fault draw at a fresh key (a metrics-gap scan
// over consecutive minutes).
func BenchmarkDraw(b *testing.B) {
	spec, err := ParseSpec("metrics-gap:p=0.05")
	if err != nil {
		b.Fatal(err)
	}
	in := New(spec, 7)
	h := in.key(MetricsGap, "db-0")
	for i := 0; i < b.N; i++ {
		drawSink = in.drawAt(h, int64(i))
	}
}

// FuzzParseSpec feeds arbitrary strings to the -faults grammar. It must
// never panic; an accepted spec has every parameter finite and in range
// and renders, through String, to a spec that parses back to itself.
// Seeds live in testdata/fuzz/FuzzParseSpec.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil || spec == nil {
			return
		}
		for k, flt := range spec.faults {
			if flt.Kind != k {
				t.Fatalf("ParseSpec(%q): fault under %q has kind %q", s, k, flt.Kind)
			}
			if !(flt.P >= 0 && flt.P <= 1) {
				t.Fatalf("ParseSpec(%q): %s p=%v outside [0,1]", s, k, flt.P)
			}
			if takes(k, "dur") && flt.Dur < 1 {
				t.Fatalf("ParseSpec(%q): %s dur=%d not positive", s, k, flt.Dur)
			}
			// Parameters a kind does not take stay zero: the round trip
			// below would tell them apart.
			positive := func(v float64) bool { return v > 0 && v <= math.MaxFloat64 }
			if takes(k, "cores") && !positive(flt.Cores) || takes(k, "gb") && !positive(flt.GB) {
				t.Fatalf("ParseSpec(%q): %s = %+v has a size that is not finite and positive", s, k, flt)
			}
		}
		again, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q).String() = %q does not parse: %v", s, spec.String(), err)
		}
		if !reflect.DeepEqual(again.faults, spec.faults) {
			t.Fatalf("ParseSpec(%q) = %+v, but its String %q parses to %+v", s, spec.faults, spec.String(), again.faults)
		}
	})
}
