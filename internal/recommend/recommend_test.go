package recommend

import (
	"errors"
	"testing"
	"unsafe"

	"caasper/internal/core"
	"caasper/internal/errs"
	"caasper/internal/forecast"
)

var (
	_ Recommender = (*CaaSPERReactive)(nil)
	_ Recommender = (*CaaSPERProactive)(nil)
)

// TestCaaSPERReactiveSize keeps the reactive adapter, one per fleet or
// serve tenant, inside the 640 B allocation size class: state a tenant
// needs only on some decisions (the scratch's skew table) hangs off a
// pointer instead.
func TestCaaSPERReactiveSize(t *testing.T) {
	if size := unsafe.Sizeof(CaaSPERReactive{}); size > 640 {
		t.Fatalf("CaaSPERReactive is %d B, above the 640 B size class", size)
	}
}

func TestNewCaaSPERReactiveValidation(t *testing.T) {
	if _, err := NewCaaSPERReactive(core.DefaultConfig(16), 0); err == nil {
		t.Error("zero window should error")
	}
	if _, err := NewCaaSPERReactive(core.Config{}, 40); err == nil {
		t.Error("invalid config should error")
	}
}

func TestCaaSPERReactiveScalesUpOnCappedUsage(t *testing.T) {
	r, err := NewCaaSPERReactive(core.DefaultConfig(16), 40)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "caasper-reactive" {
		t.Errorf("name = %q", r.Name())
	}
	for i := 0; i < 60; i++ {
		r.Observe(i, 3) // pinned at a 3-core cap
	}
	got := r.Recommend(3)
	if got <= 3 {
		t.Errorf("capped usage should scale up, got %d", got)
	}
	if b := r.LastFullDecision().Branch; b != core.BranchScaleUp {
		t.Errorf("branch = %s", b)
	}
}

func TestCaaSPERReactiveUsesOnlyWindowTail(t *testing.T) {
	r, err := NewCaaSPERReactive(core.DefaultConfig(16), 10)
	if err != nil {
		t.Fatal(err)
	}
	// Old high usage followed by a long low period: with a 10-sample
	// window the old peak is out of scope and scale-down fires.
	for i := 0; i < 50; i++ {
		r.Observe(i, 11)
	}
	for i := 50; i < 100; i++ {
		r.Observe(i, 2)
	}
	got := r.Recommend(12)
	if got >= 12 {
		t.Errorf("stale peak outside window should allow scale-down, got %d", got)
	}
}

func TestCaaSPERReactiveHoldOnNoData(t *testing.T) {
	r, _ := NewCaaSPERReactive(core.DefaultConfig(16), 40)
	if got := r.Recommend(5); got != 5 {
		t.Errorf("no observations should hold, got %d", got)
	}
}

func TestCaaSPERReactiveReset(t *testing.T) {
	r, _ := NewCaaSPERReactive(core.DefaultConfig(16), 40)
	for i := 0; i < 50; i++ {
		r.Observe(i, 7.8)
	}
	_ = r.Recommend(8)
	r.Reset()
	if got := r.Recommend(8); got != 8 {
		t.Errorf("after reset should hold, got %d", got)
	}
	if r.Explain() != "" || r.LastFullDecision() != (core.Decision{}) {
		t.Error("reset should clear the last decision")
	}
}

func TestNewCaaSPERProactiveValidation(t *testing.T) {
	if _, err := NewCaaSPERProactive(core.Config{}, nil, 40, 20, 0); err == nil {
		t.Error("invalid config should error")
	}
	if _, err := NewCaaSPERProactive(core.DefaultConfig(16), nil, 0, 20, 0); err == nil {
		t.Error("zero window should error")
	}
}

func TestCaaSPERProactiveWarmupReactive(t *testing.T) {
	p, err := NewCaaSPERProactive(core.DefaultConfig(16), &forecast.SeasonalNaive{Season: 1440}, 40, 60, 1440)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "caasper-proactive" {
		t.Errorf("name = %q", p.Name())
	}
	for i := 0; i < 100; i++ {
		p.Observe(i, 3)
	}
	_ = p.Recommend(3)
	if p.LastUsedForecast {
		t.Error("warm-up period must be reactive")
	}
}

func TestCaaSPERProactiveAnticipatesSeasonalSpike(t *testing.T) {
	day := 1440
	p, err := NewCaaSPERProactive(core.DefaultConfig(16), &forecast.SeasonalNaive{Season: day}, 40, 30, day)
	if err != nil {
		t.Fatal(err)
	}
	minute := 0
	observe := func(v float64, n int) {
		for i := 0; i < n; i++ {
			p.Observe(minute, v)
			minute++
		}
	}
	// Day 1: low, spike at minute 700, low again.
	observe(2, 700)
	observe(10, 60)
	observe(2, day-760)
	// Day 2 up to just before the spike.
	observe(2, 690)

	got := p.Recommend(3)
	if !p.LastUsedForecast {
		t.Fatal("forecast should be active after a full season")
	}
	if got <= 3 {
		t.Errorf("proactive should pre-scale for the seasonal spike, got %d", got)
	}
	p.Reset()
	if got := p.Recommend(3); got != 3 {
		t.Errorf("after reset should hold, got %d", got)
	}
}

// TestNewByNameContract: an error always comes with a nil interface (the
// constructors behind it return typed nil pointers), every policy takes
// MaxCores in [2, CoresLimit] and refuses 1 with ErrInvalidConfig, and
// the control policy's fixed allocation must lie on the ladder, so it
// never recommends above MaxCores.
func TestNewByNameContract(t *testing.T) {
	for _, c := range []struct {
		name string
		s    Settings
	}{
		{"caasper", Settings{MaxCores: 1}},             // below the 2-core floor
		{"caasper-proactive", Settings{MaxCores: 1}},   // likewise
		{"caasper", Settings{MaxCores: 8, Window: -1}}, // bad window
		{"vpa", Settings{MaxCores: 1}},                 // below the default MinCores
		{"openshift", Settings{MaxCores: 1}},
		{"autopilot", Settings{MaxCores: 1}},
		{"control", Settings{MaxCores: 1}}, // one bound for every policy
	} {
		rec, err := NewByName(c.name, c.s)
		if err == nil {
			t.Fatalf("NewByName(%q, %+v) succeeded; the row needs a failing constructor", c.name, c.s)
		}
		if rec != nil {
			t.Errorf("NewByName(%q, %+v): error %v with a non-nil %T", c.name, c.s, err, rec)
		}
		if c.s.MaxCores == 1 && !errors.Is(err, errs.ErrInvalidConfig) {
			t.Errorf("NewByName(%q, MaxCores 1): %v, want ErrInvalidConfig", c.name, err)
		}
	}
	for _, name := range Names() {
		for _, mc := range []int{2, CoresLimit} {
			if _, err := NewByName(name, Settings{MaxCores: mc}); err != nil {
				t.Errorf("NewByName(%q, MaxCores %d): %v", name, mc, err)
			}
		}
	}

	rec, err := NewByName("control", Settings{MaxCores: 8, ControlCores: 20})
	if !errors.Is(err, errs.ErrInvalidConfig) || rec != nil {
		t.Errorf("control above MaxCores: got (%v, %v), want (nil, ErrInvalidConfig)", rec, err)
	}
	for _, cc := range []int{0, 1, 8} {
		rec, err := NewByName("control", Settings{MaxCores: 8, ControlCores: cc})
		if err != nil {
			t.Fatalf("ControlCores %d: %v", cc, err)
		}
		want := cc
		if cc == 0 {
			want = 8 // the default is MaxCores
		}
		if got := rec.Recommend(3); got != want {
			t.Errorf("ControlCores %d: recommends %d, want %d", cc, got, want)
		}
	}
}
