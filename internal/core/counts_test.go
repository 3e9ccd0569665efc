package core

import (
	"errors"
	"math"
	"slices"
	"testing"

	"caasper/internal/errs"
)

// TestWindowCountsSlideMatchesRecount slides counts through a stream of
// single samples and runs — NaN, ±Inf, negatives, −0, repeats, runs
// shorter and longer than the window — and after every step compares
// them, and Recount's, with the window's samples slotted one by one, for
// windows of 1 to 41 samples.
func TestWindowCountsSlideMatchesRecount(t *testing.T) {
	r := mustRecommender(t, 16)
	values := []float64{3.2, math.NaN(), 15.68, 15.680000000000001, -1, math.Copysign(0, -1), 0, math.Inf(1), 7, 7, 40, math.Inf(-1)}
	for _, capacity := range []int{1, 2, 5, 40, 41} {
		slid, re, want := r.NewWindowCounts(), r.NewWindowCounts(), r.NewWindowCounts()
		var window []float64
		for step := 0; step < 300; step++ {
			u := values[(step*7)%len(values)]
			n := 1
			if step%5 == 0 {
				n = 1 + (step/5)%(2*capacity+1)
			}
			slid.Slide(window, capacity, u, n)
			for k := 0; k < n; k++ {
				window = append(window, u)
			}
			window = window[max(len(window)-capacity, 0):]
			clear(want.slots)
			for _, x := range window {
				want.slots[want.slot(x)]++
			}
			re.Recount(window)
			if !slices.Equal(slid.slots, want.slots) || !slices.Equal(re.slots, want.slots) {
				t.Fatalf("capacity %d step %d (+%d×%v): slid %v, recounted %v, want %v", capacity, step, n, u, slid.slots, re.slots, want.slots)
			}
		}
	}
}

// TestDecideCountedRejectsOtherLadder: counts slotted for another ladder
// must not be read as this one's.
func TestDecideCountedRejectsOtherLadder(t *testing.T) {
	r, other := mustRecommender(t, 16), mustRecommender(t, 8)
	w := other.NewWindowCounts()
	usage := []float64{1, 2, 3}
	w.Recount(usage)
	if _, err := r.DecideCounted(nil, 4, usage, &w); !errors.Is(err, errs.ErrInvalidConfig) {
		t.Fatalf("counts for an 8-core ladder on a 16-core one: err = %v, want ErrInvalidConfig", err)
	}
}
