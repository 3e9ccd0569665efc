package core

import (
	"fmt"
	"math"

	"caasper/internal/errs"
	"caasper/internal/pvp"
	win "caasper/internal/window"
)

// WindowCounts is a usage window's PvP exceed histogram: one count per
// pvp slot of the window's valid samples, then one count of the samples
// line 2 drops (NaN, ±Inf, negative). A decision builds the PvP curve and
// the top-m bound from it instead of from the samples. Raw-slice callers
// Recount their slice; a CountedWindow keeps its own current as it
// slides. The zero value is unusable; windowCounts sizes one for a
// recommender's ladder.
type WindowCounts struct {
	skus pvp.SKURange
	// slots holds the ladder's Count()+1 slot counts, then the invalid
	// count.
	slots []int32
}

// windowCounts returns the empty counts of a window decided by r.
func (r *Recommender) windowCounts() WindowCounts {
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

// maxSlots bounds the slot indices a CountedWindow stores per sample:
// a ladder's Count()+1 slots and the invalid one must fit a uint16.
const maxSlots = math.MaxUint16 + 1

// CountedWindow is the bounded sliding usage window Algorithm 1 decides
// on, with its exceed counts kept current as it slides. Algorithm 1 runs
// every few minutes on a window that shares most of its samples with the
// previous decision's, so a push slots each entering value once and a
// decision (DecideCounted) slots nothing.
//
// Each retained sample's slot is stored beside it, at the sample's ring
// position (slotOf[i] is the slot of the sample in ring slot i), so a
// push uncounts the sample it evicts by that stored slot: no evicted
// value is re-slotted or even read. The slots are derived from the
// samples, so Restore and Reset rebuild them, and a checkpoint carries
// only the samples. The zero value is unusable; NewCountedWindow sizes
// one.
type CountedWindow struct {
	ring   win.Ring
	slotOf []uint16
	counts WindowCounts
}

// NewCountedWindow returns an empty window of capacity samples, counted
// for r's ladder; the caller checks capacity ≥ 1. A ladder with more than
// 65,534 SKUs has slots a uint16 cannot hold: it fails with
// errs.ErrInvalidConfig.
func (r *Recommender) NewCountedWindow(capacity int) (CountedWindow, error) {
	if r.cfg.SKUs.Count()+2 > maxSlots {
		return CountedWindow{}, fmt.Errorf("core: a counted window holds at most %d SKUs, ladder has %d: %w",
			maxSlots-2, r.cfg.SKUs.Count(), errs.ErrInvalidConfig)
	}
	return CountedWindow{ring: *win.New(capacity), slotOf: make([]uint16, capacity), counts: r.windowCounts()}, nil
}

// put appends n copies of u, of slot s, n below the capacity: it counts
// them, stores each one's slot at its ring slot, and uncounts the samples
// they evict by their stored slots.
func (w *CountedWindow) put(u float64, s, n int) {
	w.counts.slots[s] += int32(n)
	for ; n > 0; n-- {
		i := w.ring.Head()
		if w.ring.Total() >= len(w.slotOf) {
			w.counts.slots[w.slotOf[i]]--
		}
		w.slotOf[i] = uint16(s)
		w.ring.Push(u)
	}
}

// Push appends one sample.
func (w *CountedWindow) Push(u float64) { w.put(u, w.counts.slot(u), 1) }

// PushRun appends n copies of u, the same end state as n Push(u) calls.
// A run at least as long as the window replaces it outright.
func (w *CountedWindow) PushRun(u float64, n int) {
	if n <= 0 {
		return
	}
	s := w.counts.slot(u)
	if n < len(w.slotOf) {
		w.put(u, s, n)
		return
	}
	clear(w.counts.slots)
	w.counts.slots[s] = int32(len(w.slotOf))
	for i := range w.slotOf {
		w.slotOf[i] = uint16(s)
	}
	w.ring.PushRun(u, n)
}

// View returns the retained samples, oldest to newest, in place: valid
// until the next push, and not to be mutated.
func (w *CountedWindow) View() []float64 { return w.ring.View() }

// Total returns the number of samples ever pushed.
func (w *CountedWindow) Total() int { return w.ring.Total() }

// Saturated reports whether the window is full and holds nothing but u.
func (w *CountedWindow) Saturated(u float64) bool {
	return w.ring.Total() >= len(w.slotOf) && w.ring.AllEqual(u)
}

// Reset empties the window.
func (w *CountedWindow) Reset() {
	w.ring.Reset()
	clear(w.counts.slots)
}

// Restore rebuilds the window from another one's View and Total (see
// window.Ring.Restore), then its slots and counts from the samples.
func (w *CountedWindow) Restore(values []float64, total int) error {
	if err := w.ring.Restore(values, total); err != nil {
		return err
	}
	clear(w.counts.slots)
	v := w.ring.View()
	i := w.ring.Head() - len(v) // the oldest sample's ring slot
	if i < 0 {
		i += len(w.slotOf)
	}
	prev, s := math.NaN(), 0 // NaN equals nothing, so the first sample is slotted
	for _, u := range v {
		if u != prev {
			prev, s = u, w.counts.slot(u)
		}
		w.counts.slots[s]++
		w.slotOf[i] = uint16(s)
		if i++; i == len(w.slotOf) {
			i = 0
		}
	}
	return nil
}
