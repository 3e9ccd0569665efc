package caasper

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"caasper/internal/recommend"
)

// Tests for the sentinel-error contract: every public constructor and
// Validate method classifies its failures by wrapping one of the exported
// sentinels, so callers branch with errors.Is instead of matching
// message strings.

func TestSentinelBadWindow(t *testing.T) {
	cfg := DefaultConfig(16)
	if _, err := NewReactive(cfg, 0); !errors.Is(err, ErrBadWindow) {
		t.Errorf("NewReactive(window=0): got %v, want errors.Is(ErrBadWindow)", err)
	}
	if _, err := NewProactive(cfg, NewSeasonalNaive(60), 0, 10, 60); !errors.Is(err, ErrBadWindow) {
		t.Errorf("NewProactive(observedWindow=0): got %v, want errors.Is(ErrBadWindow)", err)
	}
	if _, err := NewProactive(cfg, NewSeasonalNaive(60), 40, -1, 60); !errors.Is(err, ErrBadWindow) {
		t.Errorf("NewProactive(horizon=-1): got %v, want errors.Is(ErrBadWindow)", err)
	}
}

func TestSentinelInvalidConfig(t *testing.T) {
	bad := DefaultConfig(16)
	bad.MinCores = 0
	if _, err := NewReactive(bad, 40); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("NewReactive(MinCores=0): got %v, want errors.Is(ErrInvalidConfig)", err)
	}

	// Non-finite floats pass every range comparison, so Validate screens
	// them first: unscreened, a NaN QuantileP panicked inside Decide and a
	// NaN SlackHigh held forever.
	usage := []float64{1, 2, 3, 4}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"NaN QuantileP", func(c *Config) { c.QuantileP = math.NaN() }},
		{"NaN SlackHigh", func(c *Config) { c.SlackHigh = math.NaN() }},
		{"NaN SlackLow", func(c *Config) { c.SlackLow = math.NaN() }},
		{"+Inf SlopeHigh", func(c *Config) { c.SlopeHigh = math.Inf(1) }},
		{"NaN SlopeLow", func(c *Config) { c.SlopeLow = math.NaN() }},
		{"NaN WalkDownPerfTarget", func(c *Config) { c.WalkDownPerfTarget = math.NaN() }},
		{"NaN SF.CMin", func(c *Config) { c.SF.CMin = math.NaN() }},
		{"-Inf SF.SkewWeight", func(c *Config) { c.SF.SkewWeight = math.Inf(-1) }},
	} {
		c := DefaultConfig(16)
		tc.mutate(&c)
		if _, err := Decide(c, 4, usage); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("Decide(%s): got %v, want errors.Is(ErrInvalidConfig)", tc.name, err)
		}
		if _, err := NewReactive(c, 40); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("NewReactive(%s): got %v, want errors.Is(ErrInvalidConfig)", tc.name, err)
		}
	}

	opts := DefaultSimOptions(4, 16)
	opts.DecisionEveryMinutes = 0
	if err := opts.Validate(); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("SimOptions.Validate: got %v, want errors.Is(ErrInvalidConfig)", err)
	}

	var fo FleetOptions // zero cadence
	if _, err := RunFleet(nil, fo); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("RunFleet(zero options): got %v, want errors.Is(ErrInvalidConfig)", err)
	}
	fo = DefaultFleetOptions()
	fo.WarmupMinutes = -10
	if err := fo.Validate(); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("FleetOptions.Validate(negative warm-up): got %v, want errors.Is(ErrInvalidConfig)", err)
	}

	if _, err := NewRecommenderByName("caasper", RecommenderSettings{}); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("NewRecommenderByName(MaxCores=0): got %v, want errors.Is(ErrInvalidConfig)", err)
	}
	// Every error comes with a nil interface, never a typed nil pointer
	// a caller checking rec != nil would call Observe on. The CaaSPER
	// policies refuse a negative window themselves.
	for _, name := range RecommenderNames() {
		for _, s := range []RecommenderSettings{{MaxCores: 1}, {MaxCores: 8, Window: -1}, {MaxCores: 8, ControlCores: 9}} {
			if rec, err := NewRecommenderByName(name, s); err != nil && rec != nil {
				t.Errorf("NewRecommenderByName(%q, %+v): error %v with a non-nil %T", name, s, err, rec)
			}
		}
	}
	// Settings past their bounds are refused, before anything is sized
	// by them: a recommender's history rings grow with the sample counts
	// and its PvP curve with the cores.
	const samples = recommend.SamplesLimit + 1
	for _, c := range []struct {
		name string
		s    RecommenderSettings
	}{
		{"caasper", RecommenderSettings{MaxCores: recommend.CoresLimit + 1}},
		{"caasper-proactive", RecommenderSettings{MaxCores: recommend.CoresLimit + 1}},
		{"caasper", RecommenderSettings{MaxCores: 8, Window: samples}},
		{"caasper-proactive", RecommenderSettings{MaxCores: 8, Window: samples}},
		{"caasper-proactive", RecommenderSettings{MaxCores: 8, Horizon: samples}},
		{"caasper-proactive", RecommenderSettings{MaxCores: 8, Season: samples}},
		{"control", RecommenderSettings{MaxCores: 8, ControlCores: -2}},
		{"control", RecommenderSettings{MaxCores: 8, ControlCores: 20}}, // above the ladder
		// Every policy's ladder has at least 2 cores.
		{"vpa", RecommenderSettings{MaxCores: 1}},
		{"openshift", RecommenderSettings{MaxCores: 1}},
		{"autopilot", RecommenderSettings{MaxCores: 1}},
		{"control", RecommenderSettings{MaxCores: 1}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := NewRecommenderByName(c.name, c.s)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("NewRecommenderByName(%q, %+v): got %v, want errors.Is(ErrInvalidConfig)", c.name, c.s, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 16<<10 {
			t.Errorf("NewRecommenderByName(%q, %+v): rejecting allocated %d B", c.name, c.s, n)
		}
	}

	// A billing period the sample interval does not divide is a
	// configuration error on every surface that meters.
	tr := Workloads["workday12h"](1)
	rec, err := NewReactive(DefaultConfig(8), 40)
	if err != nil {
		t.Fatal(err)
	}
	so := DefaultSimOptions(2, 8)
	so.BillingPeriod = 90 * time.Second
	if _, err := Simulate(tr, rec, so); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("Simulate(BillingPeriod=90s): got %v, want errors.Is(ErrInvalidConfig)", err)
	}

	// The simulator models one pod: a managed replica count has nowhere
	// to go, so SimulateVector refuses it instead of ignoring it.
	rr, err := ParseResourceSpec("replicas=1-4")
	if err != nil {
		t.Fatal(err)
	}
	vo := DefaultSimOptions(2, 8)
	vo.Resources = rr.OrCPU(vo.Resources)
	if _, err := SimulateVector(tr, rec, vo); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("SimulateVector(replicas=1-4): got %v, want errors.Is(ErrInvalidConfig)", err)
	}
	fo = DefaultFleetOptions()
	fo.BillingPeriod = 90 * time.Second
	tenants := []TenantSpec{{
		Name:           "t0",
		Trace:          tr,
		NewRecommender: func() (Recommender, error) { return NewReactive(DefaultConfig(8), 40) },
		Resources:      so.Resources,
	}}
	if _, err := RunFleet(tenants, fo); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("RunFleet(BillingPeriod=90s): got %v, want errors.Is(ErrInvalidConfig)", err)
	}
	sched, err := ScheduleForCores("sentinel", MixedOLTP(), TracePattern(tr), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	lo := DatabaseA(2, 8)
	lo.BillingPeriod = 1500 * time.Millisecond
	if _, err := RunLive(sched, rec, lo); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("RunLive(BillingPeriod=1500ms): got %v, want errors.Is(ErrInvalidConfig)", err)
	}
}

func TestSentinelEmptyTrace(t *testing.T) {
	rec, err := NewReactive(DefaultConfig(8), 40)
	if err != nil {
		t.Fatal(err)
	}
	empty := NewTrace("empty", time.Minute, nil)
	if _, err := Simulate(empty, rec, DefaultSimOptions(2, 8)); !errors.Is(err, ErrEmptyTrace) {
		t.Errorf("Simulate(empty trace): got %v, want errors.Is(ErrEmptyTrace)", err)
	}
	// A wrong-interval trace is a configuration mistake, not missing data:
	// it must wrap ErrInvalidConfig and NOT ErrEmptyTrace.
	coarse := NewTrace("coarse", time.Hour, []float64{1, 2, 3})
	if _, err := Simulate(coarse, rec, DefaultSimOptions(2, 8)); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("Simulate(hourly trace): got %v, want errors.Is(ErrInvalidConfig)", err)
	}
	if _, err := Simulate(coarse, rec, DefaultSimOptions(2, 8)); errors.Is(err, ErrEmptyTrace) {
		t.Errorf("Simulate(hourly trace): wrapped ErrEmptyTrace, want ErrInvalidConfig only")
	}
}

func TestSentinelUnknownRecommender(t *testing.T) {
	_, err := NewRecommenderByName("bogus", RecommenderSettings{MaxCores: 8})
	if !errors.Is(err, ErrUnknownRecommender) {
		t.Errorf("got %v, want errors.Is(ErrUnknownRecommender)", err)
	}
	for _, name := range RecommenderNames() {
		if _, err := NewRecommenderByName(name, RecommenderSettings{MaxCores: 8}); err != nil {
			t.Errorf("NewRecommenderByName(%q): %v", name, err)
		}
	}
}
