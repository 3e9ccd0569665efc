package core

import (
	"errors"
	"math"
	"slices"
	"testing"

	"caasper/internal/errs"
)

// mustCountedWindow returns r's empty counted window of capacity samples.
func mustCountedWindow(t *testing.T, r *Recommender, capacity int) CountedWindow {
	t.Helper()
	w, err := r.NewCountedWindow(capacity)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// checkCounted compares w's counts with its samples slotted one by one,
// and each sample's stored slot with its own, at its ring position.
func checkCounted(t *testing.T, w *CountedWindow, what string) {
	t.Helper()
	want := make([]int32, len(w.counts.slots))
	v := w.View()
	for k, x := range v {
		s := w.counts.slot(x)
		want[s]++
		if i := (w.ring.Head() - len(v) + k + len(w.slotOf)) % len(w.slotOf); int(w.slotOf[i]) != s {
			t.Fatalf("%s: sample %d (%v) at ring slot %d stores slot %d, want %d", what, k, x, i, w.slotOf[i], s)
		}
	}
	if !slices.Equal(w.counts.slots, want) {
		t.Fatalf("%s: counts %v, want %v", what, w.counts.slots, want)
	}
}

// TestCountedWindowMatchesRecount pushes a stream of single samples and
// runs — NaN, ±Inf, negatives, −0, repeats, runs shorter and longer than
// the window — through a counted window of 1 to 41 samples, with a Reset
// and a Restore now and then, and after every step compares its counts,
// and Recount's, with the window's samples slotted one by one, and each
// sample's stored slot with its own.
func TestCountedWindowMatchesRecount(t *testing.T) {
	r := mustRecommender(t, 16)
	values := []float64{3.2, math.NaN(), 15.68, 15.680000000000001, -1, math.Copysign(0, -1), 0, math.Inf(1), 7, 7, 40, math.Inf(-1)}
	for _, capacity := range []int{1, 2, 5, 40, 41} {
		w := mustCountedWindow(t, r, capacity)
		re := r.windowCounts()
		var window []float64
		for step := 0; step < 300; step++ {
			u := values[(step*7)%len(values)]
			n := 1
			if step%5 == 0 {
				n = 1 + (step/5)%(2*capacity+1)
			}
			switch {
			case step%97 == 96:
				w.Reset()
				window = window[:0]
			case step%31 == 30:
				fresh := mustCountedWindow(t, r, capacity)
				if err := fresh.Restore(w.View(), w.Total()); err != nil {
					t.Fatal(err)
				}
				w = fresh
			default:
				if n == 1 {
					w.Push(u)
				} else {
					w.PushRun(u, n)
				}
				for k := 0; k < n; k++ {
					window = append(window, u)
				}
				window = window[max(len(window)-capacity, 0):]
			}
			if v := w.View(); !sameBits(v, window) {
				t.Fatalf("capacity %d step %d: view %v, want %v", capacity, step, v, window)
			}
			checkCounted(t, &w, "counted")
			re.Recount(window)
			if !slices.Equal(re.slots, w.counts.slots) {
				t.Fatalf("capacity %d step %d: recounted %v, counted %v", capacity, step, re.slots, w.counts.slots)
			}
		}
	}
}

// sameBits reports whether a and b hold the same float bits (NaN equals
// itself).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCountedWindowWideLadder runs a counted window over CoresLimit's
// 4096-core ladder: its samples land in the top slot (4096, past the
// ladder) and line 2's invalid slot (4097), which a byte could not hold,
// and the window wraps twice. Every decision must equal DecideScratch's
// on the same samples.
func TestCountedWindowWideLadder(t *testing.T) {
	r := mustRecommender(t, 4096)
	const capacity = 40
	w := mustCountedWindow(t, r, capacity)
	samples := []float64{5000, math.NaN(), 4095.5, 4096, 1, 2000.25, -3, 4096 * 0.98}
	var sc, ref Scratch
	for step := 0; step < 2*capacity+17; step++ {
		w.Push(samples[step%len(samples)])
		checkCounted(t, &w, "wide ladder")
		if top, bad := w.counts.slots[4096], w.counts.invalid(); step >= len(samples) && (top == 0 || bad == 0) {
			t.Fatalf("step %d: top slot %d, invalid %d samples", step, top, bad)
		}
		if step%10 != 9 {
			continue
		}
		got, err := r.DecideCounted(&sc, 64, &w)
		if err != nil {
			t.Fatal(err)
		}
		want, err := r.DecideScratch(&ref, 64, w.View())
		if err != nil {
			t.Fatal(err)
		}
		if got.Target != want.Target || got.Branch != want.Branch || math.Float64bits(got.Quantile) != math.Float64bits(want.Quantile) ||
			math.Float64bits(got.Slope) != math.Float64bits(want.Slope) || math.Float64bits(got.Skew) != math.Float64bits(want.Skew) {
			t.Fatalf("step %d: counted %+v, scratch %+v", step, *got, want)
		}
	}
}

// TestCountedWindowLadderLimit: a ladder whose slots fit a uint16 gets a
// counted window, one SKU more does not.
func TestCountedWindowLadderLimit(t *testing.T) {
	cfg := DefaultConfig(maxSlots - 2)
	if _, err := mustNew(t, cfg).NewCountedWindow(4); err != nil {
		t.Fatalf("%d SKUs: %v", cfg.SKUs.Count(), err)
	}
	cfg.SKUs.MaxCores++
	if _, err := mustNew(t, cfg).NewCountedWindow(4); !errors.Is(err, errs.ErrInvalidConfig) {
		t.Fatalf("%d SKUs: err = %v, want ErrInvalidConfig", cfg.SKUs.Count(), err)
	}
}

// TestDecideCountedRejectsOtherLadder: a window counted for another
// ladder must not be read as this one's.
func TestDecideCountedRejectsOtherLadder(t *testing.T) {
	r, other := mustRecommender(t, 16), mustRecommender(t, 8)
	w := mustCountedWindow(t, other, 3)
	for _, u := range []float64{1, 2, 3} {
		w.Push(u)
	}
	if _, err := r.DecideCounted(nil, 4, &w); !errors.Is(err, errs.ErrInvalidConfig) {
		t.Fatalf("counts for an 8-core ladder on a 16-core one: err = %v, want ErrInvalidConfig", err)
	}
}
