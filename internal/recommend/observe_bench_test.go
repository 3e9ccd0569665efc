package recommend

import (
	"math/rand"
	"testing"

	"caasper/internal/core"
)

// observeLoop returns one minute of a reactive tenant on a 16-SKU
// ladder with a 40-sample window over a noisy trace (no two neighbouring
// samples alike, so every push evicts a sample of another value): one
// ObserveRun per minute, and a decision every 10 minutes. The window is
// full and the scratch warm when it returns.
func observeLoop(tb testing.TB) func() {
	c, err := NewCaaSPERReactive(core.DefaultConfig(16), 40)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	trace := make([]float64, 1<<12)
	for i := range trace {
		trace[i] = 6 + 3*rng.NormFloat64()
	}
	m, cur := 0, 4
	minute := func() {
		c.ObserveRun(m, trace[m%len(trace)], 1)
		if m++; m%10 == 0 {
			cur = c.Recommend(cur)
		}
	}
	for m < 200 {
		minute()
	}
	return minute
}

// BenchmarkReactiveObserve times one tenant-minute of the monitor step,
// with a tenth of a decision.
func BenchmarkReactiveObserve(b *testing.B) {
	minute := observeLoop(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		minute()
	}
}

// TestReactiveObserveAllocs: BenchmarkReactiveObserve's minute allocates
// nothing.
func TestReactiveObserveAllocs(t *testing.T) {
	minute := observeLoop(t)
	if a := testing.AllocsPerRun(1000, minute); a != 0 {
		t.Fatalf("%v allocations per minute, want 0", a)
	}
}
