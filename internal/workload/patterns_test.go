package workload

import (
	"math"
	"testing"
	"time"

	"caasper/internal/stats"
)

func TestRenderGridAndNonNegativity(t *testing.T) {
	p := func(m float64) float64 { return m - 5 } // negative for m<5
	tr := Render("r", p, 10*time.Minute)
	if tr.Len() != 10 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Interval != time.Minute {
		t.Errorf("Interval = %v", tr.Interval)
	}
	for i := 0; i < 5; i++ {
		if tr.Values[i] != 0 {
			t.Errorf("negative demand not floored at %d: %v", i, tr.Values[i])
		}
	}
	if tr.Values[9] != 4 {
		t.Errorf("Values[9] = %v", tr.Values[9])
	}
}

func TestConstantAndStep(t *testing.T) {
	c := Constant(3)
	if c(0) != 3 || c(1e6) != 3 {
		t.Error("Constant misbehaves")
	}
	s := Step(2, 7, 480) // 8h low, 8h high
	if s(0) != 2 || s(479) != 2 {
		t.Error("step low phase wrong")
	}
	if s(480) != 7 || s(959) != 7 {
		t.Error("step high phase wrong")
	}
	if s(960) != 2 {
		t.Error("step should repeat")
	}
}

func TestSineBounds(t *testing.T) {
	p := Sine(5, 2, 60)
	for m := 0.0; m < 240; m++ {
		v := p(m)
		if v < 3-1e-9 || v > 7+1e-9 {
			t.Fatalf("Sine out of [3,7] at %v: %v", m, v)
		}
	}
	if math.Abs(p(0)-5) > 1e-9 {
		t.Errorf("Sine(0) = %v, want 5", p(0))
	}
}

func TestDiurnalShape(t *testing.T) {
	p := Diurnal(2, 6, 13*60)
	peak := p(13 * 60)
	trough := p(1 * 60)
	if math.Abs(peak-6) > 1e-6 {
		t.Errorf("peak = %v, want 6", peak)
	}
	if trough > 2.5 {
		t.Errorf("trough = %v, want ≈2", trough)
	}
	// Daily periodicity.
	if math.Abs(p(13*60)-p(13*60+24*60)) > 1e-9 {
		t.Error("Diurnal should repeat daily")
	}
	// Base never undershoots.
	for m := 0.0; m < 24*60; m += 7 {
		if v := p(m); v < 2-1e-9 || v > 6+1e-9 {
			t.Fatalf("Diurnal out of [2,6] at %v: %v", m, v)
		}
	}
}

func TestSpikeAndRamp(t *testing.T) {
	s := Spike(Constant(1), 10, 5, 3)
	if s(9) != 1 || s(10) != 4 || s(14) != 4 || s(15) != 1 {
		t.Error("Spike window wrong")
	}
	r := Ramp(2, 6, 10, 20)
	if r(0) != 2 || r(9.99) != 2 {
		t.Error("Ramp before window wrong")
	}
	if r(30) != 6 || r(100) != 6 {
		t.Error("Ramp after window wrong")
	}
	if math.Abs(r(20)-4) > 1e-9 {
		t.Errorf("Ramp midpoint = %v, want 4", r(20))
	}
}

func TestPiecewiseAndRepeat(t *testing.T) {
	p := Piecewise(
		Segment{Pattern: Constant(1), Minutes: 10},
		Segment{Pattern: Constant(2), Minutes: 10},
	)
	if p(5) != 1 || p(15) != 2 {
		t.Error("Piecewise segments wrong")
	}
	// Last segment extends forever.
	if p(100) != 2 {
		t.Error("Piecewise should hold last segment")
	}
	// Time is rebased per segment.
	ramp := Piecewise(
		Segment{Pattern: Constant(0), Minutes: 10},
		Segment{Pattern: Ramp(0, 10, 0, 10), Minutes: 10},
	)
	if math.Abs(ramp(15)-5) > 1e-9 {
		t.Errorf("rebased ramp(15) = %v, want 5", ramp(15))
	}
	rep := Repeat(p, 20)
	if rep(25) != 1 || rep(35) != 2 {
		t.Error("Repeat wrong")
	}
}

func TestAddPattern(t *testing.T) {
	p := Add(Constant(1), Constant(2), Constant(3))
	if p(0) != 6 {
		t.Errorf("Add = %v", p(0))
	}
}

func TestWithNoiseDeterminismAndFloor(t *testing.T) {
	mk := func() []float64 {
		rng := stats.NewRNG(77)
		p := WithNoise(Constant(0.1), 1.0, rng)
		out := make([]float64, 100)
		for i := range out {
			out[i] = p(float64(i))
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed noise diverged")
		}
		if a[i] < 0 {
			t.Fatal("noise must be floored at 0")
		}
	}
	// Noise actually perturbs.
	var differs bool
	for _, v := range a {
		if v != 0.1 {
			differs = true
		}
	}
	if !differs {
		t.Error("noise had no effect")
	}
}

func TestWithJitterBounds(t *testing.T) {
	rng := stats.NewRNG(5)
	p := WithJitter(Constant(10), 0.2, rng)
	for i := 0; i < 200; i++ {
		v := p(float64(i))
		if v < 8-1e-9 || v > 12+1e-9 {
			t.Fatalf("jitter out of bounds: %v", v)
		}
	}
}

func TestPaperTraceShapes(t *testing.T) {
	t.Run("step62h", func(t *testing.T) {
		tr := StepTrace62h(1)
		if tr.Duration() != 62*time.Hour {
			t.Errorf("duration = %v", tr.Duration())
		}
		s := tr.Summarize()
		if s.Max > 9 || s.Max < 6.5 {
			t.Errorf("max = %v, want ≈7-8", s.Max)
		}
		// First 8 hours should hover near 2.5 cores.
		lowMean := stats.Mean(tr.Window(0, 8*60))
		if lowMean < 1.8 || lowMean > 3.2 {
			t.Errorf("low-phase mean = %v", lowMean)
		}
		highMean := stats.Mean(tr.Window(8*60, 16*60))
		if highMean < 6.3 || highMean > 7.7 {
			t.Errorf("high-phase mean = %v", highMean)
		}
	})
	t.Run("workday12h", func(t *testing.T) {
		tr := Workday12h(1)
		if tr.Duration() != 12*time.Hour {
			t.Errorf("duration = %v", tr.Duration())
		}
		light := stats.Mean(tr.Window(0, 3*60))
		heavy := stats.Mean(tr.Window(3*60, 9*60))
		if light < 1 || light > 3.4 {
			t.Errorf("light mean = %v, want ~1-3.3", light)
		}
		if heavy < 5 || heavy > 6 {
			t.Errorf("heavy mean = %v, want ~5.5", heavy)
		}
	})
	t.Run("cyclical3day", func(t *testing.T) {
		tr := Cyclical3Day(1)
		if tr.Duration() != 72*time.Hour {
			t.Errorf("duration = %v", tr.Duration())
		}
		s := tr.Summarize()
		if s.Max < 10 || s.Max > 14 {
			t.Errorf("max = %v, want ≈12 (Day-2 spike)", s.Max)
		}
		// Day 1 and Day 3 should be similar (cyclical), Day 2 has the spike.
		d1 := stats.Max(tr.Window(0, 24*60))
		d2 := stats.Max(tr.Window(24*60, 48*60))
		if d2 <= d1 {
			t.Errorf("day2 max %v should exceed day1 max %v", d2, d1)
		}
	})
	t.Run("throttled-capped", func(t *testing.T) {
		tr := ThrottledAt8(1)
		if stats.Max(tr.Values) > 8 {
			t.Error("ThrottledAt8 must be capped at 8")
		}
		// Most samples near the cap.
		atCap := 0
		for _, v := range tr.Values {
			if v > 7.5 {
				atCap++
			}
		}
		if frac := float64(atCap) / float64(tr.Len()); frac < 0.4 {
			t.Errorf("only %.0f%% of samples near cap", frac*100)
		}
	})
	t.Run("throttled3", func(t *testing.T) {
		tr := ThrottledAt3(1)
		if stats.Max(tr.Values) > 3 {
			t.Error("cap exceeded")
		}
		if stats.Mean(tr.Values) < 2.8 {
			t.Errorf("mean = %v, want pinned at cap", stats.Mean(tr.Values))
		}
	})
	t.Run("overprov12", func(t *testing.T) {
		tr := OverProvisionedAt12(1)
		if s := tr.Summarize(); s.Max > 4.5 {
			t.Errorf("max = %v, want ≲4 (deep over-provisioning vs 12)", s.Max)
		}
	})
	t.Run("customer", func(t *testing.T) {
		tr := CustomerTrace(1)
		s := tr.Summarize()
		if s.Max < 5.5 {
			t.Errorf("max = %v, want bursts ≥6", s.Max)
		}
		if s.Min > 2.5 {
			t.Errorf("min = %v, want light phases ≈2", s.Min)
		}
	})
}

func TestPaperTracesDeterministic(t *testing.T) {
	a := Cyclical3Day(42)
	b := Cyclical3Day(42)
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatal("same-seed trace diverged")
		}
	}
	c := Cyclical3Day(43)
	same := true
	for i := range a.Values {
		if a.Values[i] != c.Values[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}
