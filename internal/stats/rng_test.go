package stats

import "testing"

func TestRNGDeterminismAndRanges(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		if n := r.Intn(10); n < 0 || n >= 10 {
			t.Fatalf("Intn out of range: %v", n)
		}
		if v := r.Range(5, 7); v < 5 || v >= 7 {
			t.Fatalf("Range out of range: %v", v)
		}
	}
	// Zero seed must still work.
	z := NewRNG(0)
	if z.next() == 0 && z.next() == 0 {
		t.Error("zero-seeded RNG looks degenerate")
	}
}

func TestRNGNormFloat64Moments(t *testing.T) {
	r := NewRNG(1234)
	n := 50000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if mean < -0.05 || mean > 0.05 {
		t.Errorf("normal mean = %v, want ≈0", mean)
	}
	if variance < 0.9 || variance > 1.1 {
		t.Errorf("normal variance = %v, want ≈1", variance)
	}
}

func TestRNGLogUniform(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		v := r.LogUniform(-3, 3) // e^-3 .. e^3
		if v < 0.0497 || v > 20.1 {
			t.Fatalf("LogUniform out of range: %v", v)
		}
	}
}

func TestRNGFork(t *testing.T) {
	r := NewRNG(8)
	c1 := r.Fork()
	c2 := r.Fork()
	if c1.next() == c2.next() {
		t.Error("forked streams should differ")
	}
}
