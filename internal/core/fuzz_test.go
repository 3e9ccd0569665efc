package core

import (
	"errors"
	"math"
	"slices"
	"testing"

	"caasper/internal/pvp"
)

// decodeDecideInput turns fuzz bytes into a usage window over a ladder of
// maxCores SKUs. Every two bytes (kind, x) are one sample:
//
//	kind%8 == 0      NaN
//	kind%8 == 1      +Inf or −Inf (by x's low bit)
//	kind%8 == 2      a negative, −(x+1)/8
//	kind%8 == 3      a copy of the previous sample (runs of equal values)
//	kind%8 == 4, 5   cores·0.98 for cores = 1 + x mod maxCores, one ulp
//	                 below, at or above it (by kind/8 mod 3): the exceed
//	                 predicate's boundary
//	kind%8 == 6, 7   x/255 of 1.2·maxCores, so up to past the ladder top
//
// No sample is −0: the oracle's sort does not order −0 against +0, so a
// tie between them could pick either zero.
func decodeDecideInput(data []byte, maxCores int) []float64 {
	var usage []float64
	for ; len(data) >= 2 && len(usage) < 200; data = data[2:] {
		kind, x := data[0], data[1]
		var v float64
		switch kind % 8 {
		case 0:
			v = math.NaN()
		case 1:
			v = math.Inf(1 - 2*int(x&1))
		case 2:
			v = -(float64(x) + 1) / 8
		case 3:
			if len(usage) > 0 {
				v = usage[len(usage)-1]
			}
		case 4, 5:
			v = float64(1+int(x)%maxCores) * 0.98
			switch kind / 8 % 3 {
			case 0:
				v = math.Nextafter(v, 0)
			case 2:
				v = math.Nextafter(v, math.Inf(1))
			}
		default:
			v = float64(x) / 255 * 1.2 * float64(maxCores)
		}
		usage = append(usage, v)
	}
	return usage
}

// FuzzDecideScratch is a differential check of DecideScratch — line 2's
// filter, the PvP slot counts and the top-m quantile scan over the
// samples above the counts' bound — against referenceDecide, the
// sort-based Algorithm 1 oracle. Every Decision field must match bit for
// bit (and the walk-down's peak), on ladders of 2–100 SKUs and quantiles
// from 1/256 to 1 (deep ones quickselect). Each window is decided on a
// fresh scratch, on one that just decided a short constant window (its
// buffers must grow) and on one that just decided a different window
// (its buffers hold that window's samples). The seeds under
// testdata/fuzz/FuzzDecideScratch cover a run with a NaN at P95, the
// 0.98 boundaries with ±Inf, a 100-SKU ladder, a quantile 10 deep, a
// window line 2 empties, runs at a wide ladder's boundaries, and a run
// of equal values that must enter the top-m more than once.
//
// A fourth scratch then decides the window's revisit sequence (see
// revisits): windows whose slot counts equal the first one's but whose
// values or order differ, so the skew table answers, between windows whose counts differ from it in one slot each. Every
// decision must match the oracle's for its own window, which shares no
// table. The seeds from seed07 on hold two to four occupied slots with
// distinct counts, where a table that mixes up two vectors returns a
// wrong skew.
func FuzzDecideScratch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, mc, qp, cb uint8) {
		maxCores := 2 + int(mc)%99
		cfg := DefaultConfig(maxCores)
		cfg.QuantileP = (float64(qp) + 1) / 256
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		usage := decodeDecideInput(data, maxCores)
		cur := 1 + int(cb)%(maxCores+2)

		if len(referenceClean(usage)) == 0 {
			if _, err := r.DecideScratch(nil, cur, usage); !errors.Is(err, ErrNoUsage) {
				t.Fatalf("no valid sample: err = %v, want ErrNoUsage", err)
			}
			return
		}
		want, peak := referenceDecide(t, cfg, cur, usage)
		// Three scratches: a fresh one, one that just decided a short
		// constant window, and one that just decided usage[1:].
		for _, prime := range [][]float64{nil, {1, 1, 1, 1}, usage[1:]} {
			var sc Scratch
			if len(prime) > 0 {
				if _, err := r.DecideScratch(&sc, cur, prime); err != nil && !errors.Is(err, ErrNoUsage) {
					t.Fatal(err)
				}
			}
			got, err := r.DecideScratch(&sc, cur, usage)
			if err != nil {
				t.Fatal(err)
			}
			if !sameDecision(got, want) {
				t.Fatalf("max %d q=%v cur %d primed %v usage %v:\n got  %+v\n want %+v", maxCores, cfg.QuantileP, cur, prime, usage, got, want)
			}
			if (sc.expKind == expWalkDown || sc.expKind == expHoldNoCheaper) &&
				math.Float64bits(sc.expPeak) != math.Float64bits(peak) {
				t.Fatalf("peak %v, want %v", sc.expPeak, peak)
			}
		}

		var sc Scratch
		for i, u := range revisits(usage, cfg.SKUs) {
			want, _ := referenceDecide(t, cfg, cur, u)
			got, err := r.DecideScratch(&sc, cur, u)
			if err != nil {
				t.Fatal(err)
			}
			if !sameDecision(got, want) {
				t.Fatalf("max %d q=%v cur %d revisit %d of %v, usage %v:\n got  %+v\n want %+v", maxCores, cfg.QuantileP, cur, i, usage, u, got, want)
			}
		}
	})
}

// revisits returns the windows one scratch decides, usage (which must
// hold a valid sample) first: then usage with every valid sample moved
// down within its slot; for each slot holding two or more samples, usage
// without its first sample in that slot (the counts differ in that slot
// alone); then usage reversed, usage moved up and reversed, and usage
// again. All but the one-slot variants share usage's count vector, so
// from the second evaluation on the skew table answers them, and it must
// not take a one-slot variant for them.
func revisits(usage []float64, skus pvp.SKURange) [][]float64 {
	seq := [][]float64{usage, moved(usage, skus, 0)}
	first := make([]int, skus.Count()+1) // slot → index of its first sample
	count := make([]int, skus.Count()+1)
	for i, u := range usage {
		if valid(u) {
			s := skus.Slot(u)
			if count[s] == 0 {
				first[s] = i
			}
			count[s]++
		}
	}
	for s, c := range count {
		if c >= 2 {
			i := first[s]
			seq = append(seq, append(append([]float64(nil), usage[:i]...), usage[i+1:]...))
		}
	}
	return append(seq, reversed(usage), reversed(moved(usage, skus, math.Inf(1))), usage)
}

// moved returns a copy of usage with every valid sample moved one ulp
// toward dir where that keeps it valid and in its slot.
func moved(usage []float64, skus pvp.SKURange, dir float64) []float64 {
	out := make([]float64, len(usage))
	for i, u := range usage {
		out[i] = u
		if v := math.Nextafter(u, dir); valid(u) && valid(v) && skus.Slot(v) == skus.Slot(u) {
			out[i] = v
		}
	}
	return out
}

// reversed returns a reversed copy of usage.
func reversed(usage []float64) []float64 {
	out := append([]float64(nil), usage...)
	slices.Reverse(out)
	return out
}
