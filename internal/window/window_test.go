package window

import (
	"testing"
)

// TestRingMatchesUnboundedTail: the ring's View must equal the tail of a
// plain append history at every step — this is the exact substitution
// the recommender adapters rely on for bit-equal decisions.
func TestRingMatchesUnboundedTail(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 5, 7, 40, 64} {
		r := New(capacity)
		var hist []float64
		for i := 0; i < 5*capacity+3; i++ {
			v := float64(i*i%17) + 0.25
			r.Push(v)
			hist = append(hist, v)

			want := hist
			if len(want) > capacity {
				want = want[len(want)-capacity:]
			}
			got := r.View()
			if len(got) != len(want) {
				t.Fatalf("cap=%d step=%d: View len=%d want %d", capacity, i, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("cap=%d step=%d: View[%d]=%v want %v", capacity, i, j, got[j], want[j])
				}
			}
			if r.Total() != len(hist) {
				t.Fatalf("cap=%d: Total=%d want %d", capacity, r.Total(), len(hist))
			}
			if r.Len() != len(want) {
				t.Fatalf("cap=%d: Len=%d want %d", capacity, r.Len(), len(want))
			}
		}
	}
}

func TestRingTail(t *testing.T) {
	r := New(5)
	for i := 0; i < 12; i++ {
		r.Push(float64(i))
	}
	// Retained: 7 8 9 10 11.
	got := r.Tail(3)
	if len(got) != 3 || got[0] != 9 || got[2] != 11 {
		t.Fatalf("Tail(3) = %v", got)
	}
	if n := len(r.Tail(99)); n != 5 {
		t.Fatalf("Tail(99) len = %d, want 5", n)
	}
}

func TestRingUnbounded(t *testing.T) {
	r := New(0)
	if r.Bounded() {
		t.Fatal("capacity 0 must be unbounded")
	}
	for i := 0; i < 100; i++ {
		r.Push(float64(i))
	}
	if r.Len() != 100 || r.Total() != 100 || len(r.View()) != 100 {
		t.Fatalf("unbounded: Len=%d Total=%d view=%d", r.Len(), r.Total(), len(r.View()))
	}
	if r.View()[99] != 99 {
		t.Fatalf("unbounded tail sample = %v", r.View()[99])
	}

	// The zero value is an unbounded window too.
	var z Ring
	z.Push(1.5)
	if z.Len() != 1 || z.View()[0] != 1.5 {
		t.Fatalf("zero-value ring: Len=%d view=%v", z.Len(), z.View())
	}
}

func TestRingReset(t *testing.T) {
	r := New(4)
	for i := 0; i < 9; i++ {
		r.Push(float64(i))
	}
	r.Reset()
	if r.Len() != 0 || r.Total() != 0 || len(r.View()) != 0 {
		t.Fatalf("after Reset: Len=%d Total=%d view=%d", r.Len(), r.Total(), len(r.View()))
	}
	r.Push(42)
	if v := r.View(); len(v) != 1 || v[0] != 42 {
		t.Fatalf("push after reset: %v", v)
	}

	u := New(0)
	u.Push(1)
	u.Reset()
	if u.Len() != 0 {
		t.Fatal("unbounded reset must clear")
	}
}

// TestRingSteadyStateZeroAllocs pins the memory contract: once warm, a
// bounded ring's Push and View never allocate.
func TestRingSteadyStateZeroAllocs(t *testing.T) {
	r := New(40)
	for i := 0; i < 80; i++ {
		r.Push(float64(i))
	}
	var sink float64
	allocs := testing.AllocsPerRun(1000, func() {
		r.Push(3.5)
		v := r.View()
		sink += v[len(v)-1]
	})
	if allocs != 0 {
		t.Fatalf("steady-state Push+View allocs = %v, want 0", allocs)
	}
	_ = sink
}

// TestRingBoundedMemory: the backing array never grows past 2×capacity,
// no matter how long the replay — the O(window) memory claim itself.
func TestRingBoundedMemory(t *testing.T) {
	const capacity = 40
	r := New(capacity)
	for i := 0; i < 43200; i++ { // a month of minutes
		r.Push(float64(i % 97))
	}
	if got := cap(r.buf); got != 2*capacity {
		t.Fatalf("backing capacity = %d, want %d", got, 2*capacity)
	}
	if r.Len() != capacity || r.Total() != 43200 {
		t.Fatalf("Len=%d Total=%d", r.Len(), r.Total())
	}
}

// TestRingTailEdgeCases: Tail must clamp rather than panic across the full
// edge-case grid — negative n (the former slice-bounds panic), zero, the
// exact retained length and beyond — in both bounded and unbounded mode.
func TestRingTailEdgeCases(t *testing.T) {
	for _, capacity := range []int{0, 5} {
		mode := "bounded"
		if capacity == 0 {
			mode = "unbounded"
		}
		r := New(capacity)
		for i := 0; i < 12; i++ {
			r.Push(float64(i))
		}
		n := r.Len()
		for _, tc := range []struct {
			n, wantLen int
		}{
			{-1, 0}, {-100, 0}, {0, 0}, {1, 1}, {n, n}, {n + 1, n}, {n + 100, n},
		} {
			got := r.Tail(tc.n)
			if len(got) != tc.wantLen {
				t.Fatalf("%s: Tail(%d) len = %d, want %d", mode, tc.n, len(got), tc.wantLen)
			}
			if tc.wantLen > 0 && got[tc.wantLen-1] != 11 {
				t.Fatalf("%s: Tail(%d) last = %v, want 11", mode, tc.n, got[tc.wantLen-1])
			}
		}
		// An empty window: every n degrades to the empty tail.
		empty := New(capacity)
		for _, n := range []int{-3, 0, 1, 7} {
			if got := empty.Tail(n); len(got) != 0 {
				t.Fatalf("%s empty: Tail(%d) = %v, want empty", mode, n, got)
			}
		}
	}
}

// TestRingSnapshotRestore: a restored ring must be bit-identical to the
// snapshotted one — same View, Total, Len and, critically, the same
// internal offset, so subsequent pushes land in the same slots.
func TestRingSnapshotRestore(t *testing.T) {
	for _, capacity := range []int{0, 1, 5, 40} {
		for _, pushes := range []int{0, 3, 5, 7, 40, 41, 97} {
			if capacity == 0 && pushes > 50 {
				continue
			}
			orig := New(capacity)
			for i := 0; i < pushes; i++ {
				orig.Push(float64(i) * 1.5)
			}
			vals, total := append([]float64(nil), orig.View()...), orig.Total()
			if total != pushes {
				t.Fatalf("cap=%d pushes=%d: Total = %d", capacity, pushes, total)
			}
			rest := New(capacity)
			if err := rest.Restore(vals, total); err != nil {
				t.Fatalf("cap=%d pushes=%d: Restore: %v", capacity, pushes, err)
			}
			// Push the same continuation into both; the views must agree
			// at every step.
			for i := 0; i < 2*capacity+3; i++ {
				ov, rv := orig.View(), rest.View()
				if len(ov) != len(rv) {
					t.Fatalf("cap=%d pushes=%d step=%d: len %d vs %d", capacity, pushes, i, len(ov), len(rv))
				}
				for j := range ov {
					if ov[j] != rv[j] {
						t.Fatalf("cap=%d pushes=%d step=%d: View[%d] %v vs %v", capacity, pushes, i, j, ov[j], rv[j])
					}
				}
				if orig.Total() != rest.Total() {
					t.Fatalf("cap=%d pushes=%d: Total %d vs %d", capacity, pushes, orig.Total(), rest.Total())
				}
				v := float64(100+i) * 0.25
				orig.Push(v)
				rest.Push(v)
			}
		}
	}
}

// TestRingRestoreRejectsBadSnapshots: malformed snapshots must error, not
// corrupt the window.
func TestRingRestoreRejectsBadSnapshots(t *testing.T) {
	if err := New(3).Restore([]float64{1, 2, 3, 4}, 4); err == nil {
		t.Fatal("over-capacity snapshot must be rejected")
	}
	if err := New(3).Restore([]float64{1, 2}, 1); err == nil {
		t.Fatal("total < retained must be rejected")
	}
	if err := New(3).Restore([]float64{1, 2}, 7); err == nil {
		t.Fatal("saturated snapshot with a short window must be rejected")
	}
	if err := New(0).Restore([]float64{1, 2}, 3); err == nil {
		t.Fatal("unbounded snapshot with total != len must be rejected")
	}
}
