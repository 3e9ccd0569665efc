package window

import (
	"slices"
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
			if len(r.View()) != len(want) {
				t.Fatalf("cap=%d: len(View)=%d want %d", capacity, len(r.View()), len(want))
			}
		}
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
	if len(r.View()) != 100 || r.Total() != 100 || len(r.View()) != 100 {
		t.Fatalf("unbounded: len(View)=%d Total=%d view=%d", len(r.View()), r.Total(), len(r.View()))
	}
	if r.View()[99] != 99 {
		t.Fatalf("unbounded tail sample = %v", r.View()[99])
	}

	// The zero value is an unbounded window too.
	var z Ring
	z.Push(1.5)
	if len(z.View()) != 1 || z.View()[0] != 1.5 {
		t.Fatalf("zero-value ring: len(View)=%d view=%v", len(z.View()), z.View())
	}
}

func TestRingReset(t *testing.T) {
	r := New(4)
	for i := 0; i < 9; i++ {
		r.Push(float64(i))
	}
	r.Reset()
	if len(r.View()) != 0 || r.Total() != 0 || len(r.View()) != 0 {
		t.Fatalf("after Reset: len(View)=%d Total=%d view=%d", len(r.View()), r.Total(), len(r.View()))
	}
	r.Push(42)
	if v := r.View(); len(v) != 1 || v[0] != 42 {
		t.Fatalf("push after reset: %v", v)
	}

	u := New(0)
	u.Push(1)
	u.Reset()
	if len(u.View()) != 0 {
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
	if len(r.View()) != capacity || r.Total() != 43200 {
		t.Fatalf("len(View)=%d Total=%d", len(r.View()), r.Total())
	}
}

// TestRingSnapshotRestore: a restored ring must be bit-identical to the
// snapshotted one — same View, Total and, critically, the same
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

// FuzzRing checks a ring against a plain slice of every sample pushed,
// through a random stream of operations, two bytes each (op, x):
//
//	op%4 == 0  Push(v)
//	op%4 == 1  PushRun(v, n = 1 + x mod 3·capacity), so runs wrap the
//	           window up to three times
//	op%4 == 2  Reset
//	op%4 == 3  Restore(View, Total) onto a fresh ring of the capacity,
//	           which then stands in for the old one
//
// where v = step + x/256, distinct at every step. After each operation
// View must be the slice's last min(Total, capacity) samples, Total its
// length, and the head offset Total mod capacity (0 when unbounded). The
// capacity is 0 (unbounded) to 64. The seeds under testdata/fuzz/FuzzRing
// cover capacities 0, 1, 7 and 40, runs longer than the window, and
// resets and restores of empty, partial and saturated windows.
func FuzzRing(f *testing.F) {
	f.Fuzz(func(t *testing.T, cb uint8, ops []byte) {
		capacity := int(cb) % 65
		r := New(capacity)
		var model []float64
		for step := 0; len(ops) >= 2 && step < 1<<12; ops, step = ops[2:], step+1 {
			op, x := ops[0], ops[1]
			v := float64(step) + float64(x)/256
			switch op % 4 {
			case 0:
				r.Push(v)
				model = append(model, v)
			case 1:
				n := 1 + int(x)%(3*max(capacity, 1))
				r.PushRun(v, n)
				for k := 0; k < n; k++ {
					model = append(model, v)
				}
			case 2:
				r.Reset()
				model = model[:0]
			case 3:
				fresh := New(capacity)
				if err := fresh.Restore(r.View(), r.Total()); err != nil {
					t.Fatalf("step %d: restore of a %d-sample window: %v", step, r.Total(), err)
				}
				r = fresh
			}
			want := model
			if capacity > 0 && len(want) > capacity {
				want = want[len(want)-capacity:]
			}
			if got := r.View(); !slices.Equal(got, want) {
				t.Fatalf("step %d (op %d): View %v, want %v", step, op%4, got, want)
			}
			if r.Total() != len(model) {
				t.Fatalf("step %d: Total %d, want %d", step, r.Total(), len(model))
			}
			head := 0
			if capacity > 0 {
				head = len(model) % capacity
			}
			if r.Head() != head {
				t.Fatalf("step %d: head %d, want %d (total %d, capacity %d)", step, r.Head(), head, len(model), capacity)
			}
		}
	})
}
