package baselines_test

import (
	"errors"
	"testing"

	"caasper/internal/errs"
	"caasper/internal/recommend"

	. "caasper/internal/baselines"
)

// Compile-time interface checks.
var (
	_ recommend.Recommender = (*Control)(nil)
	_ recommend.Recommender = (*KubernetesVPA)(nil)
	_ recommend.Recommender = (*OpenShiftVPA)(nil)
	_ recommend.Recommender = (*Autopilot)(nil)
)

func TestControl(t *testing.T) {
	c := NewControl(14)
	if c.Name() != "control(14)" {
		t.Errorf("name = %q", c.Name())
	}
	c.Observe(0, 100)
	if got := c.Recommend(3); got != 14 {
		t.Errorf("control recommends %d, want fixed 14", got)
	}
	c.Reset()
	if got := c.Recommend(3); got != 14 {
		t.Error("reset must not change the fixed allocation")
	}
}

func TestKubernetesVPAValidation(t *testing.T) {
	bad := []KubernetesVPAOptions{
		{Percentile: 0, MinCores: 2, MaxCores: 8, HalfLifeMinutes: 60},
		{Percentile: 1.5, MinCores: 2, MaxCores: 8, HalfLifeMinutes: 60},
		{Percentile: 0.9, MinCores: 0, MaxCores: 8, HalfLifeMinutes: 60},
		{Percentile: 0.9, MinCores: 9, MaxCores: 8, HalfLifeMinutes: 60},
		{Percentile: 0.9, MinCores: 2, MaxCores: 8, HalfLifeMinutes: 0},
	}
	for i, o := range bad {
		if _, err := NewKubernetesVPA(o); !errors.Is(err, errs.ErrInvalidConfig) {
			t.Errorf("case %d: got %v, want errors.Is(ErrInvalidConfig)", i, err)
		}
	}
}

func TestKubernetesVPAColdStartHolds(t *testing.T) {
	v, err := NewKubernetesVPA(DefaultKubernetesVPAOptions(16))
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Recommend(5); got != 5 {
		t.Errorf("cold start = %d, want hold 5", got)
	}
}

func TestKubernetesVPAScalesUpButNotDown(t *testing.T) {
	// The paper's Figure 3b behaviour: scales up to ~8 after traffic
	// rises, then does NOT scale down in the low phase because the
	// decayed P90 stays high.
	opts := DefaultKubernetesVPAOptions(16)
	opts.SafetyMargin = 0 // paper-matched: limits = ceil(P90)+1
	v, err := NewKubernetesVPA(opts)
	if err != nil {
		t.Fatal(err)
	}
	minute := 0
	// 8 hours at ~7 cores.
	for i := 0; i < 8*60; i++ {
		v.Observe(minute, 7)
		minute++
	}
	up := v.Recommend(3)
	if up < 8 || up > 9 {
		t.Errorf("after high phase: %d, want ≈8", up)
	}
	// 8 hours at ~2.5 cores: with the 24h half-life the histogram P90
	// still remembers the peak.
	for i := 0; i < 8*60; i++ {
		v.Observe(minute, 2.5)
		minute++
	}
	down := v.Recommend(up)
	if down < up-1 {
		t.Errorf("after low phase: %d, should stay near %d (no scale-down)", down, up)
	}
}

func TestKubernetesVPAClampsAndReset(t *testing.T) {
	opts := DefaultKubernetesVPAOptions(6)
	v, _ := NewKubernetesVPA(opts)
	for i := 0; i < 100; i++ {
		v.Observe(i, 40)
	}
	if got := v.Recommend(4); got != 6 {
		t.Errorf("clamp to max: %d", got)
	}
	v.Reset()
	if got := v.Recommend(4); got != 4 {
		t.Errorf("after reset should hold: %d", got)
	}
	for i := 0; i < 100; i++ {
		v.Observe(i, 0.01)
	}
	if got := v.Recommend(4); got != 2 {
		t.Errorf("clamp to min: %d", got)
	}
}

func TestOpenShiftVPAValidation(t *testing.T) {
	bad := []OpenShiftVPAOptions{
		{LookbackMinutes: 1, HorizonMinutes: 5, MinCores: 2, MaxCores: 8},
		{LookbackMinutes: 10, HorizonMinutes: 0, MinCores: 2, MaxCores: 8},
		{LookbackMinutes: 10, HorizonMinutes: 5, MinCores: 0, MaxCores: 8},
		{LookbackMinutes: 10, HorizonMinutes: 5, MinCores: 9, MaxCores: 8},
	}
	for i, o := range bad {
		if _, err := NewOpenShiftVPA(o); !errors.Is(err, errs.ErrInvalidConfig) {
			t.Errorf("case %d: got %v, want errors.Is(ErrInvalidConfig)", i, err)
		}
	}
}

func TestOpenShiftVPAColdStartPredictsLow(t *testing.T) {
	o, err := NewOpenShiftVPA(DefaultOpenShiftVPAOptions(14))
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Recommend(14); got != 2 {
		t.Errorf("cold start = %d, want MinCores 2 (the §3.3 low initial prediction)", got)
	}
}

func TestOpenShiftVPAThrottlingFeedbackLoop(t *testing.T) {
	// The §3.3 spiral: usage capped at the low limits keeps the
	// prediction low regardless of the true demand.
	o, _ := NewOpenShiftVPA(DefaultOpenShiftVPAOptions(14))
	limit := 2.0
	for i := 0; i < 240; i++ {
		// True demand is 7 cores but observation is capped.
		o.Observe(i, limit)
	}
	got := o.Recommend(2)
	if got > 3 {
		t.Errorf("capped history should keep the prediction low, got %d", got)
	}
}

func TestOpenShiftVPAFollowsUncappedTrend(t *testing.T) {
	o, _ := NewOpenShiftVPA(DefaultOpenShiftVPAOptions(14))
	// Rising usage 1 → 6 cores over 60 minutes, uncapped.
	for i := 0; i < 60; i++ {
		o.Observe(i, 1+float64(i)/12)
	}
	got := o.Recommend(6)
	if got < 6 {
		t.Errorf("rising trend extrapolation = %d, want ≥ 6", got)
	}
	o.Reset()
	if got := o.Recommend(6); got != 2 {
		t.Errorf("after reset = %d, want cold-start 2", got)
	}
}

func TestAutopilotValidation(t *testing.T) {
	bad := []AutopilotOptions{
		{WindowMinutes: 0, MinCores: 2, MaxCores: 8},
		{WindowMinutes: 10, MinCores: 0, MaxCores: 8},
		{WindowMinutes: 10, MinCores: 9, MaxCores: 8},
	}
	for i, o := range bad {
		if _, err := NewAutopilot(o); !errors.Is(err, errs.ErrInvalidConfig) {
			t.Errorf("case %d: got %v, want errors.Is(ErrInvalidConfig)", i, err)
		}
	}
}

func TestAutopilotTracksWindowMax(t *testing.T) {
	opts := DefaultAutopilotOptions(16)
	opts.WindowMinutes = 60
	a, err := NewAutopilot(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Recommend(5); got != 5 {
		t.Errorf("empty history should hold, got %d", got)
	}
	minute := 0
	for i := 0; i < 60; i++ {
		a.Observe(minute, 7)
		minute++
	}
	if got := a.Recommend(3); got != 8 { // ceil(7*1.1)
		t.Errorf("peak window = %d, want 8", got)
	}
	// After the peak leaves the window, it scales down (unlike VPA).
	for i := 0; i < 120; i++ {
		a.Observe(minute, 2)
		minute++
	}
	if got := a.Recommend(8); got != 3 { // ceil(2*1.1)
		t.Errorf("post-peak = %d, want 3", got)
	}
	a.Reset()
	if got := a.Recommend(4); got != 4 {
		t.Errorf("after reset = %d", got)
	}
}
