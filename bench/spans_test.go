package bench

import (
	"math"
	"testing"
)

// TestSampledHist: Begin counts every call and times about one in 64,
// spread evenly over any period of the caller; Seconds subtracts the
// clock's share of each timed call and scales up to every call.
func TestSampledHist(t *testing.T) {
	const calls, period = 1 << 16, 8
	h := &Hist{clock: 10}
	var perResidue [period]int
	for i := 0; i < calls; i++ {
		if _, timed := h.Begin(); timed {
			h.record(100) // 100 ns, of which 10 are the clock's
			perResidue[i%period]++
		}
	}
	if h.Count() != calls {
		t.Fatalf("Count %d, want %d", h.Count(), calls)
	}
	timed := h.timed.Load()
	if want := calls / 64; math.Abs(float64(timed-int64(want))) > 0.1*float64(want) {
		t.Errorf("timed %d of %d calls, want about %d", timed, calls, want)
	}
	for r, n := range perResidue {
		if want := float64(timed) / period; math.Abs(float64(n)-want) > 0.2*want {
			t.Errorf("calls ≡ %d mod %d: %d timed, want about %.0f", r, period, n, want)
		}
	}
	if got, want := h.Seconds(), calls*90e-9; math.Abs(got-want) > 1e-12 {
		t.Errorf("Seconds %v, want %v", got, want)
	}
	if got := h.Quantile(0.5); math.Abs(got-90) > 5 {
		t.Errorf("median %v ns, want 100 ns less the clock's 10, within its bucket", got)
	}
}
