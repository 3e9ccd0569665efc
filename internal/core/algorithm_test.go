package core

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"caasper/internal/errs"
	"caasper/internal/pvp"
	"caasper/internal/stats"
)

func mustRecommender(t *testing.T, maxCores int) *Recommender {
	t.Helper()
	r, err := New(DefaultConfig(maxCores))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func cappedUsage(level, cap float64, n int, seed uint64) []float64 {
	rng := stats.NewRNG(seed)
	out := make([]float64, n)
	for i := range out {
		v := level + rng.NormFloat64()*0.3
		if v > cap {
			v = cap
		}
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(16)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.SKUs.MinCores = 0 },
		func(c *Config) { c.MinCores = 0 },
		func(c *Config) { c.MinCores = 99 },
		func(c *Config) { c.SlopeHigh, c.SlopeLow = 0.1, 5 },
		func(c *Config) { c.SlackHigh = 1.0 },
		func(c *Config) { c.SlackHigh = -0.1 },
		func(c *Config) { c.SlackLow = 1.5 },
		func(c *Config) { c.MaxStepUp = 0 },
		func(c *Config) { c.MaxStepDown = 0 },
		func(c *Config) { c.QuantileP = 0 },
		func(c *Config) { c.QuantileP = 1.1 },
		func(c *Config) { c.WalkDownPerfTarget = 0 },
		// NaN passes every range comparison; non-finite floats must not.
		func(c *Config) { c.SlopeHigh = math.NaN() },
		func(c *Config) { c.SlopeLow = math.NaN() },
		func(c *Config) { c.SlopeHigh = math.Inf(1) },
		func(c *Config) { c.SlopeLow = math.Inf(-1) },
		func(c *Config) { c.SlackHigh = math.NaN() },
		func(c *Config) { c.SlackLow = math.NaN() },
		func(c *Config) { c.QuantileP = math.NaN() },
		func(c *Config) { c.WalkDownPerfTarget = math.NaN() },
		func(c *Config) { c.SF.CMin = math.NaN() },
		func(c *Config) { c.SF.CMin = math.Inf(1) },
		func(c *Config) { c.SF.SkewWeight = math.NaN() },
		func(c *Config) { c.SF.SkewWeight = math.Inf(-1) },
	}
	for i, mutate := range mutations {
		c := DefaultConfig(16)
		mutate(&c)
		if err := c.Validate(); !errors.Is(err, errs.ErrInvalidConfig) {
			t.Errorf("mutation %d: Validate = %v, want errors.Is(ErrInvalidConfig)", i, err)
		}
	}
	if _, err := New(Config{}); err == nil {
		t.Error("zero config should be rejected")
	}
}

// TestPreprocess: line 2 drops NaN, ±Inf and negative samples, keeps the
// rest in order as the memo key, and leaves the input untouched.
func TestPreprocess(t *testing.T) {
	r := mustRecommender(t, 16)
	in := []float64{1, math.NaN(), -2, math.Inf(1), 3, math.Inf(-1)}
	var sc Scratch
	if _, err := r.DecideScratch(&sc, 4, in); err != nil {
		t.Fatal(err)
	}
	out := sc.MemoView().Window
	if len(out) != 2 || out[0] != 1 || out[1] != 3 {
		t.Errorf("preprocessed window = %v", out)
	}
	if !math.IsNaN(in[1]) || in[2] != -2 || !math.IsInf(in[3], 1) {
		t.Error("DecideScratch must not mutate its input")
	}
}

func TestDecideEmptyUsage(t *testing.T) {
	r := mustRecommender(t, 16)
	if _, err := r.Decide(4, nil); err != ErrNoUsage {
		t.Errorf("err = %v, want ErrNoUsage", err)
	}
	if _, err := r.Decide(4, []float64{math.NaN()}); err != ErrNoUsage {
		t.Errorf("all-invalid usage err = %v", err)
	}
}

func TestDecideScaleUpOnThrottling(t *testing.T) {
	// Usage pinned at a 3-core cap (Figure 4): must scale up decisively.
	r := mustRecommender(t, 16)
	usage := cappedUsage(6, 3, 120, 1)
	d, err := r.Decide(3, usage)
	if err != nil {
		t.Fatal(err)
	}
	if d.Branch != BranchScaleUp {
		t.Fatalf("branch = %s, want scale-up (%s)", d.Branch, d.Explanation)
	}
	if d.Delta < 1 {
		t.Errorf("delta = %d, want ≥ 1", d.Delta)
	}
	if d.Slope < r.cfg.SlopeHigh {
		t.Errorf("slope = %v, expected steep", d.Slope)
	}
	if d.Target.CPUCores > 3+r.cfg.MaxStepUp {
		t.Errorf("target %d exceeds max step", d.Target.CPUCores)
	}
	if !strings.Contains(d.Explanation, "scale-up") {
		t.Errorf("explanation = %q", d.Explanation)
	}
}

func TestDecideScaleUpRespectsMaxStep(t *testing.T) {
	cfg := DefaultConfig(64)
	cfg.MaxStepUp = 4
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	usage := cappedUsage(40, 6, 200, 2)
	d, err := r.Decide(6, usage)
	if err != nil {
		t.Fatal(err)
	}
	if d.Delta > 4 {
		t.Errorf("delta = %d, exceeds MaxStepUp 4", d.Delta)
	}
	if d.Branch != BranchScaleUp {
		t.Errorf("branch = %s", d.Branch)
	}
}

func TestDecideThinBufferTriggersScaleUpWithoutSteepSlope(t *testing.T) {
	// Usage hovering at 93% of capacity but not capped: quantile trigger.
	r := mustRecommender(t, 32)
	rng := stats.NewRNG(3)
	usage := make([]float64, 200)
	for i := range usage {
		usage[i] = 9.3 + rng.NormFloat64()*0.1 // of 10 cores
	}
	d, err := r.Decide(10, usage)
	if err != nil {
		t.Fatal(err)
	}
	if d.Branch != BranchScaleUp {
		t.Fatalf("branch = %s (%s)", d.Branch, d.Explanation)
	}
	// The buffered-quantile floor should lift capacity enough that the
	// quantile fits under (1-SlackHigh) of the new target.
	if float64(d.Target.CPUCores)*(1-r.cfg.SlackHigh) < d.Quantile {
		t.Errorf("target %d leaves quantile %v above buffer", d.Target.CPUCores, d.Quantile)
	}
}

func TestDecideWalkDownWhenOverProvisioned(t *testing.T) {
	// Figure 7b: using ~2.5-3.5 cores of 12 — flat tail, big step down.
	r := mustRecommender(t, 16)
	rng := stats.NewRNG(4)
	usage := make([]float64, 300)
	for i := range usage {
		usage[i] = 2.8 + rng.NormFloat64()*0.3
	}
	d, err := r.Decide(12, usage)
	if err != nil {
		t.Fatal(err)
	}
	if d.Branch != BranchWalkDown {
		t.Fatalf("branch = %s (%s)", d.Branch, d.Explanation)
	}
	// Should drop far more than MaxStepDown in one move (the paper's
	// "scaling down by almost 8 cores").
	if d.Delta > -5 {
		t.Errorf("delta = %d, want a large single-step drop", d.Delta)
	}
	if d.Target.CPUCores < r.cfg.MinCores {
		t.Errorf("target %d below floor", d.Target.CPUCores)
	}
	// New capacity still covers the peak.
	if float64(d.Target.CPUCores) < stats.Max(usage) {
		t.Errorf("target %d below peak %v", d.Target.CPUCores, stats.Max(usage))
	}
}

func TestDecideGradualScaleDown(t *testing.T) {
	// Moderately idle but not flat-tail (some samples near capacity):
	// uses the bounded scale-down arm.
	cfg := DefaultConfig(16)
	cfg.SlackLow = 0.5
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(5)
	usage := make([]float64, 300)
	for i := range usage {
		// Mostly ~2 cores with rare excursions just above the 10-core
		// allocation (forecast-extended windows can exceed the cap):
		// the slope at 10 is small but nonzero, so the tail is not
		// flat and the bounded scale-down arm fires instead of the
		// walk-down.
		usage[i] = 2 + rng.NormFloat64()*0.2
		if i%97 == 0 {
			usage[i] = 10.5
		}
	}
	d, err := r.Decide(10, usage)
	if err != nil {
		t.Fatal(err)
	}
	if d.Delta >= 0 {
		t.Fatalf("expected scale-down, got %s (%s)", d.Branch, d.Explanation)
	}
	if -d.Delta > cfg.MaxStepDown && d.Branch == BranchScaleDown {
		t.Errorf("gradual scale-down exceeded MaxStepDown: %d", -d.Delta)
	}
}

func TestDecideHoldInBand(t *testing.T) {
	// Right-sized workload with a moderate slope at the allocation:
	// ~3% of samples sit just above 10 cores (slope ≈ 0.3, between the
	// thresholds) while the P95 stays inside both slack bands — the
	// between-thresholds hold arm.
	r := mustRecommender(t, 32)
	usage := make([]float64, 300)
	for i := range usage {
		usage[i] = 5
		if i%33 == 0 {
			usage[i] = 10.5
		}
	}
	d, err := r.Decide(10, usage)
	if err != nil {
		t.Fatal(err)
	}
	if d.Branch != BranchHold || d.Delta != 0 {
		t.Errorf("branch = %s delta = %d (%s)", d.Branch, d.Delta, d.Explanation)
	}
	if !strings.Contains(d.Explanation, "within") {
		t.Errorf("expected the between-thresholds hold, got %q", d.Explanation)
	}
}

func TestDecideWalkDownHoldsWhenBufferForbids(t *testing.T) {
	// Flat tail at 4 cores, but the buffered peak (3.9/0.9 → 5) exceeds
	// the current allocation: the walk-down arm must refuse to move.
	r := mustRecommender(t, 16)
	usage := make([]float64, 200)
	for i := range usage {
		usage[i] = 1.0
		if i%50 == 0 {
			usage[i] = 3.9
		}
	}
	d, err := r.Decide(4, usage)
	if err != nil {
		t.Fatal(err)
	}
	if d.Branch != BranchHold || d.Delta != 0 {
		t.Errorf("branch = %s delta = %d (%s)", d.Branch, d.Delta, d.Explanation)
	}
	if !strings.Contains(d.Explanation, "flat PvP tail") {
		t.Errorf("expected the walk-down hold, got %q", d.Explanation)
	}
}

func TestDecideGradualScaleDownHoldWhenQuantileForbids(t *testing.T) {
	// Down-trigger fires on a small slope, but the buffered quantile
	// already needs the full allocation: the bounded scale-down arm
	// must hold rather than shrink below safety.
	cfg := DefaultConfig(16)
	cfg.SlackLow = 0.80 // extremely eager idle trigger
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	usage := make([]float64, 300)
	for i := range usage {
		// P95 = 5.5: below the up-trigger (0.9·7 = 6.3), inside the
		// idle trigger (0.8·7 = 5.6), and its buffer ceil(5.5/0.9) = 7
		// already needs all 7 cores.
		usage[i] = 5.5
		if i%90 == 0 {
			usage[i] = 7.4 // nonzero slope at 7 keeps the flat-tail arm out
		}
	}
	d, err := r.Decide(7, usage)
	if err != nil {
		t.Fatal(err)
	}
	if d.Branch != BranchHold || d.Delta != 0 {
		t.Errorf("branch = %s delta = %d (%s)", d.Branch, d.Delta, d.Explanation)
	}
	if !strings.Contains(d.Explanation, "forbids shrinking") {
		t.Errorf("expected the quantile-forbids hold, got %q", d.Explanation)
	}
}

func TestDecideNeverScalesBelowFloor(t *testing.T) {
	r := mustRecommender(t, 16)
	usage := []float64{0.01, 0.01, 0.02, 0.01}
	d, err := r.Decide(12, usage)
	if err != nil {
		t.Fatal(err)
	}
	if d.Target.CPUCores < 2 {
		t.Errorf("target %d below the 2-core floor", d.Target.CPUCores)
	}
}

func TestDecideNeverExceedsMaxCores(t *testing.T) {
	r := mustRecommender(t, 8)
	usage := cappedUsage(50, 8, 100, 7)
	d, err := r.Decide(8, usage)
	if err != nil {
		t.Fatal(err)
	}
	if d.Target.CPUCores > 8 {
		t.Errorf("target %d above ladder max 8", d.Target.CPUCores)
	}
}

func TestDecideClampsCurrentCores(t *testing.T) {
	r := mustRecommender(t, 16)
	usage := []float64{3, 3, 3}
	d, err := r.Decide(99, usage)
	if err != nil {
		t.Fatal(err)
	}
	if d.Current.CPUCores != 16 {
		t.Errorf("current clamped to %d, want 16", d.Current.CPUCores)
	}
	d, err = r.Decide(-3, usage)
	if err != nil {
		t.Fatal(err)
	}
	if d.Current.CPUCores != 1 {
		t.Errorf("current clamped to %d, want 1", d.Current.CPUCores)
	}
}

func TestDecideRoundingModes(t *testing.T) {
	down := DefaultConfig(32)
	up := DefaultConfig(32)
	up.RoundUp = true
	rDown, _ := New(down)
	rUp, _ := New(up)
	usage := cappedUsage(12, 5, 200, 8)
	dDown, err := rDown.Decide(5, usage)
	if err != nil {
		t.Fatal(err)
	}
	dUp, err := rUp.Decide(5, usage)
	if err != nil {
		t.Fatal(err)
	}
	if dUp.Target.CPUCores < dDown.Target.CPUCores {
		t.Errorf("round-up target %d < round-down target %d", dUp.Target.CPUCores, dDown.Target.CPUCores)
	}
}

func TestScalingNeeded(t *testing.T) {
	if (Decision{Delta: 0}).ScalingNeeded() {
		t.Error("zero delta should not need scaling")
	}
	if !(Decision{Delta: -2}).ScalingNeeded() {
		t.Error("nonzero delta should need scaling")
	}
}

func TestDecidePropertyTargetAlwaysWithinLadder(t *testing.T) {
	r := mustRecommender(t, 24)
	f := func(seed uint16, cur uint8) bool {
		rng := stats.NewRNG(uint64(seed))
		usage := make([]float64, 60)
		for i := range usage {
			usage[i] = rng.Float64() * 30
		}
		d, err := r.Decide(int(cur%30), usage)
		if err != nil {
			return false
		}
		return d.Target.CPUCores >= 2 && d.Target.CPUCores <= 24 &&
			d.Delta == d.Target.CPUCores-d.Current.CPUCores &&
			d.Explanation != ""
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecidePropertyThrottledAlwaysScalesUp(t *testing.T) {
	// Property: usage pinned at the current cap (≥98% of samples at cap)
	// must always trigger scale-up while below the ladder max.
	r := mustRecommender(t, 32)
	for cap := 2; cap <= 20; cap++ {
		usage := make([]float64, 100)
		for i := range usage {
			usage[i] = float64(cap)
		}
		d, err := r.Decide(cap, usage)
		if err != nil {
			t.Fatal(err)
		}
		if d.Delta < 1 {
			t.Errorf("cap %d: delta = %d, want scale-up (%s)", cap, d.Delta, d.Explanation)
		}
	}
}

func TestGuardrailFloorInteraction(t *testing.T) {
	// MinCores above ladder bottom dominates.
	cfg := DefaultConfig(16)
	cfg.MinCores = 4
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.Decide(10, []float64{0.1, 0.1, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Target.CPUCores < 4 {
		t.Errorf("target %d below MinCores 4", d.Target.CPUCores)
	}
}

func TestDefaultConfigSane(t *testing.T) {
	c := DefaultConfig(40)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.SKUs.MaxCores != 40 || c.MinCores != 2 {
		t.Errorf("defaults: %+v", c)
	}
	if c.floor() != 2 {
		t.Errorf("floor = %d", c.floor())
	}
	low := c
	low.SKUs.MinCores = 5
	if low.floor() != 5 {
		t.Errorf("floor with high ladder bottom = %d", low.floor())
	}
}

func TestSKURangeExposedThroughConfig(t *testing.T) {
	r := mustRecommender(t, 12)
	if got := r.Config().SKUs.MaxCores; got != 12 {
		t.Errorf("Config().SKUs.MaxCores = %d", got)
	}
	_ = pvp.SKURange{} // keep the import honest in minimal builds
}
