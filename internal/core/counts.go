package core

import (
	"math"

	"caasper/internal/pvp"
)

// WindowCounts is a sliding usage window's PvP exceed histogram, kept
// current sample by sample: one count per pvp slot of the window's valid
// samples, then one count of the samples line 2 drops (NaN, ±Inf,
// negative). Algorithm 1 runs every few minutes on a window that shares
// most of its samples with the previous decision's, so a caller that
// slides its window through Slide pays at most one slot lookup for each
// sample entering and one for each leaving, instead of one per sample
// per decision, and decides with DecideCounted.
//
// It holds no samples: an evicted one is re-slotted from its value,
// which the caller still holds when it slides. The zero value is unusable;
// NewWindowCounts sizes one for a recommender's ladder.
type WindowCounts struct {
	skus pvp.SKURange
	// slots holds the ladder's Count()+1 slot counts, then the invalid
	// count.
	slots []int32
}

// NewWindowCounts returns the empty counts of a window decided by r.
func (r *Recommender) NewWindowCounts() WindowCounts {
	return WindowCounts{skus: r.cfg.SKUs, slots: make([]int32, r.cfg.SKUs.Count()+2)}
}

// slot returns the entry of slots that counts a sample of value u.
func (w *WindowCounts) slot(u float64) int {
	if !valid(u) {
		return len(w.slots) - 1
	}
	return w.skus.Slot(u)
}

// ladder returns the counts of the ladder's slots.
func (w *WindowCounts) ladder() []int32 { return w.slots[:len(w.slots)-1] }

// invalid returns the number of samples line 2 drops.
func (w *WindowCounts) invalid() int { return int(w.slots[len(w.slots)-1]) }

// Slide counts n ≥ 1 samples of value u entering a window of the given
// capacity that holds view, oldest first, before they enter, and
// uncounts the samples they push out. A run at least as long as the
// window replaces it, so the counts are reset outright. An evicted
// sample equal to u, or to the sample evicted before it, reuses that
// one's slot: a plateau's runs leave a slot lookup at a time.
func (w *WindowCounts) Slide(view []float64, capacity int, u float64, n int) {
	s := w.slot(u)
	if n >= capacity {
		clear(w.slots)
		w.slots[s] = int32(capacity)
		return
	}
	w.slots[s] += int32(n)
	prev, ps, run := u, s, int32(0) // the run of evicted samples equal to prev, in slot ps
	for _, x := range view[:max(len(view)+n-capacity, 0)] {
		if x != prev {
			w.slots[ps] -= run
			prev, ps, run = x, w.slot(x), 0
		}
		run++
	}
	w.slots[ps] -= run
}

// Recount rebuilds the counts from the window's samples. A sample equal
// to the one before it reuses that one's slot, so a window of runs costs
// a slot lookup per run.
func (w *WindowCounts) Recount(window []float64) {
	clear(w.slots)
	prev, s := math.NaN(), 0 // NaN equals nothing, so the first sample is slotted
	for _, u := range window {
		if u != prev {
			prev, s = u, w.slot(u)
		}
		w.slots[s]++
	}
}
