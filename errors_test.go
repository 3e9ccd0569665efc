package caasper

import (
	"errors"
	"testing"
	"time"
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

	opts := DefaultSimOptions(4, 16)
	opts.DecisionEveryMinutes = 0
	if err := opts.Validate(); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("SimOptions.Validate: got %v, want errors.Is(ErrInvalidConfig)", err)
	}

	var fo FleetOptions // zero cadence
	if _, err := RunFleet(nil, fo); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("RunFleet(zero options): got %v, want errors.Is(ErrInvalidConfig)", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*FleetOptions)
	}{
		{"negative core price", func(o *FleetOptions) { o.PricePerCorePeriod = -1 }},
		{"negative RAM price", func(o *FleetOptions) { o.RAMPricePerGBPeriod = -0.25 }},
		{"negative disk price", func(o *FleetOptions) { o.DiskPricePerGBPeriod = -0.02 }},
		{"negative warm-up", func(o *FleetOptions) { o.WarmupMinutes = -10 }},
	} {
		o := DefaultFleetOptions()
		tc.mutate(&o)
		if err := o.Validate(); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("FleetOptions.Validate(%s): got %v, want errors.Is(ErrInvalidConfig)", tc.name, err)
		}
	}

	if _, err := NewRecommenderByName("caasper", RecommenderSettings{}); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("NewRecommenderByName(MaxCores=0): got %v, want errors.Is(ErrInvalidConfig)", err)
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
