// Package window provides the fixed-capacity observation windows that
// bound every recommender's memory to O(window) regardless of trace
// length. The paper positions CaaSPER as a fleet-scale algorithm — it
// runs "for all customer databases on the cluster" — so a month-long
// replay across a thousand tenants must not retain a thousand unbounded
// history slices when each policy only ever reads a fixed tail
// (CaaSPER's 40-minute window, OpenShift-VPA's lookback, Autopilot's
// moving-max window).
//
// The core type is Ring, a mirrored ring buffer: every sample is written
// to two slots, i mod cap and i mod cap + cap, so the most recent
// min(total, cap) samples are ALWAYS one contiguous sub-slice of the
// backing array. That contiguity is what lets the decision hot path keep
// its plain []float64 signatures (core.Decide, forecast.Forecaster)
// without a copy per tick: View returns a slice into the buffer, in
// chronological order, with zero allocations.
//
// A Ring with capacity ≤ 0 degrades to an unbounded append-backed
// history. This is the correctness escape hatch for consumers whose
// output genuinely depends on the entire series (e.g. forecasters that
// do not implement forecast.HistoryBound): bit-equality with the
// unbounded-history implementation always wins over the memory bound.
package window

import "fmt"

// Ring is a bounded sliding window over float64 samples. The zero value
// is an unbounded window (equivalent to a plain growing slice); use New
// for a fixed capacity. A Ring is single-goroutine state, like the
// recommender adapters that own one.
type Ring struct {
	// buf is the mirrored storage: 2*capacity slots in bounded mode,
	// a plain append slice in unbounded mode.
	buf []float64
	// capacity is the retained-sample bound; 0 means unbounded.
	capacity int
	// total counts samples ever pushed (the logical history length,
	// which can exceed the retained length in bounded mode).
	total int
}

// New returns a Ring retaining the last capacity samples. capacity ≤ 0
// yields an unbounded window.
func New(capacity int) *Ring {
	if capacity <= 0 {
		return &Ring{}
	}
	return &Ring{buf: make([]float64, 2*capacity), capacity: capacity}
}

// Push appends one sample. In bounded mode this is two array stores —
// no allocation, no branch on fullness — which is what keeps the
// steady-state observe path at zero allocs/op.
func (r *Ring) Push(v float64) {
	if r.capacity == 0 {
		r.buf = append(r.buf, v)
		r.total++
		return
	}
	i := r.total % r.capacity
	r.buf[i] = v
	r.buf[i+r.capacity] = v
	r.total++
}

// PushRun appends n copies of the same sample — the bulk form the
// discrete-event fleet engine uses to advance an observation window over
// a constant-demand trace run in one call. The resulting state (buffer,
// total, View) is bit-identical to n sequential Push(v) calls; when the
// run is at least as long as the capacity, every retained slot is simply
// overwritten with v, making the append O(cap) instead of O(n).
func (r *Ring) PushRun(v float64, n int) {
	if n <= 0 {
		return
	}
	if r.capacity == 0 {
		for k := 0; k < n; k++ {
			r.buf = append(r.buf, v)
		}
		r.total += n
		return
	}
	if n >= r.capacity {
		// n sequential pushes visit every slot of both mirrors.
		for i := range r.buf {
			r.buf[i] = v
		}
		r.total += n
		return
	}
	i := r.total % r.capacity
	for k := 0; k < n; k++ {
		r.buf[i] = v
		r.buf[i+r.capacity] = v
		if i++; i == r.capacity {
			i = 0
		}
	}
	r.total += n
}

// AllEqual reports whether every retained sample equals v (vacuously true
// when empty). Steady-state detection — "the window holds nothing but the
// current usage level" — is what lets the event-driven fleet engine prove
// a recommender's output cannot change until the demand trace does.
func (r *Ring) AllEqual(v float64) bool {
	for _, x := range r.View() {
		if x != v {
			return false
		}
	}
	return true
}

// Len returns the number of retained samples: min(Total, Cap) in bounded
// mode, Total otherwise.
func (r *Ring) Len() int {
	if r.capacity == 0 || r.total < r.capacity {
		return r.total
	}
	return r.capacity
}

// Total returns the number of samples ever pushed — the logical history
// length. Consumers that gate on "how much history has accumulated"
// (e.g. core.Proactive's MinHistory warm-up) must use Total, not Len,
// to stay bit-equal with an unbounded history.
func (r *Ring) Total() int { return r.total }

// Cap returns the retention bound (0 = unbounded).
func (r *Ring) Cap() int { return r.capacity }

// Bounded reports whether the window retains a fixed number of samples.
func (r *Ring) Bounded() bool { return r.capacity > 0 }

// View returns the retained samples, oldest to newest, as one contiguous
// slice into the mirrored buffer. The slice is valid until the next Push
// and must not be mutated or retained across pushes. Zero allocations.
func (r *Ring) View() []float64 {
	if r.capacity == 0 {
		return r.buf
	}
	if r.total <= r.capacity {
		return r.buf[:r.total]
	}
	start := r.total % r.capacity
	return r.buf[start : start+r.capacity]
}

// Tail returns the most recent n retained samples (all of them when
// n ≥ Len, none when n ≤ 0). Same aliasing rules as View. A negative n is
// clamped to 0 rather than panicking: callers compute tail lengths from
// configuration deltas (window − horizon and the like), and a misconfigured
// difference must degrade to "no samples", not a slice-bounds fault.
func (r *Ring) Tail(n int) []float64 {
	v := r.View()
	if n >= len(v) {
		return v
	}
	if n < 0 {
		n = 0
	}
	return v[len(v)-n:]
}

// Reset clears the window for reuse, keeping the backing storage.
func (r *Ring) Reset() {
	r.total = 0
	if r.capacity == 0 {
		r.buf = r.buf[:0]
	}
}

// Restore rebuilds the window from a checkpoint of another Ring of the
// same capacity: values are its View (the retained samples oldest-first)
// and total its Total. The restored state — buffer layout, total, View —
// is bit-identical to the Ring the checkpoint was taken from, which is
// what lets a restarted server resume mid-window with unchanged
// subsequent decisions.
func (r *Ring) Restore(values []float64, total int) error {
	if total < len(values) {
		return fmt.Errorf("window: snapshot total %d < %d retained samples", total, len(values))
	}
	if r.capacity > 0 {
		if len(values) > r.capacity {
			return fmt.Errorf("window: snapshot holds %d samples, capacity is %d", len(values), r.capacity)
		}
		if total > r.capacity && len(values) != r.capacity {
			return fmt.Errorf("window: saturated snapshot (total %d) retains %d of %d samples", total, len(values), r.capacity)
		}
	} else if total != len(values) {
		return fmt.Errorf("window: unbounded snapshot total %d != %d retained samples", total, len(values))
	}
	r.Reset()
	// Replaying the values from the pre-window total lands every sample in
	// the slot (total mod capacity) it originally occupied, so View reads
	// from the same offset as the snapshotted ring.
	r.total = total - len(values)
	for _, v := range values {
		r.Push(v)
	}
	return nil
}
