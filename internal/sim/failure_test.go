package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"caasper/internal/baselines"
	"caasper/internal/core"
	"caasper/internal/recommend"
	"caasper/internal/stats"
	"caasper/internal/trace"
)

// Failure-injection tests: metric pipelines drop samples and emit NaN/Inf
// artifacts around pod restarts; the simulator and recommenders must
// digest such traces without corrupting the accounting.

func corruptedTrace(seed uint64, minutes int) *trace.Trace {
	rng := stats.NewRNG(seed)
	vals := make([]float64, minutes)
	for i := range vals {
		switch rng.Intn(20) {
		case 0:
			vals[i] = math.NaN()
		case 1:
			vals[i] = math.Inf(1)
		case 2:
			vals[i] = -1
		default:
			vals[i] = 3 + rng.NormFloat64()
		}
	}
	return trace.New("corrupted", time.Minute, vals)
}

func TestRunSurvivesCorruptedTrace(t *testing.T) {
	tr := corruptedTrace(1, 600)
	rec, err := recommend.NewCaaSPERReactive(core.DefaultConfig(8), 40)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(tr, rec, DefaultOptions(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{res.SumSlack, res.SumInsufficient, res.BilledCorePeriods, res.ThrottledPct} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Fatalf("corrupted metrics leaked into accounting: %+v", res)
		}
	}
	for _, u := range res.Usage {
		if math.IsNaN(u) || u < 0 {
			t.Fatal("usage series corrupted")
		}
	}
}

func TestRunSurvivesAllInvalidTrace(t *testing.T) {
	vals := make([]float64, 120)
	for i := range vals {
		vals[i] = math.NaN()
	}
	tr := trace.New("all-nan", time.Minute, vals)
	rec, err := recommend.NewCaaSPERReactive(core.DefaultConfig(8), 40)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(tr, rec, DefaultOptions(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	// All-invalid demand reads as zero: full slack, zero throttling,
	// and the recommender (seeing only zeros) scales to the floor.
	if res.SumInsufficient != 0 {
		t.Errorf("C = %v", res.SumInsufficient)
	}
	if res.Limits[len(res.Limits)-1] != 2 {
		t.Errorf("final limit = %v, want floor 2", res.Limits[len(res.Limits)-1])
	}
}

func TestRunInvariantsProperty(t *testing.T) {
	// Properties over random traces and recommenders:
	//   usage[t] ≤ limits[t], limits within [min, max],
	//   K = Σ(limits − usage), C ≥ 0, billing ≥ per-hour peak of limits.
	f := func(seed uint16, initial uint8) bool {
		rng := stats.NewRNG(uint64(seed) + 1)
		vals := make([]float64, 180)
		for i := range vals {
			vals[i] = rng.Float64() * 12
		}
		tr := trace.New("prop", time.Minute, vals)
		opts := DefaultOptions(1+int(initial%10), 12)
		rec, err := recommend.NewCaaSPERReactive(core.DefaultConfig(12), 30)
		if err != nil {
			return false
		}
		res, err := Run(tr, rec, opts)
		if err != nil {
			return false
		}
		var k float64
		for t := 0; t < res.Minutes; t++ {
			if res.Usage[t] > res.Limits[t]+1e-9 {
				return false
			}
			if res.Limits[t] < float64(opts.Resources.Min.CPUCores)-1e-9 || res.Limits[t] > float64(opts.Resources.Max.CPUCores)+1e-9 {
				return false
			}
			k += res.Limits[t] - res.Usage[t]
		}
		if math.Abs(k-res.SumSlack) > 1e-6 {
			return false
		}
		return res.SumInsufficient >= 0 && res.BilledCorePeriods >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRunBillingNeverBelowPeakLimitHours(t *testing.T) {
	tr := corruptedTrace(9, 240)
	res, err := Run(tr, baselines.NewControl(5), DefaultOptions(5, 8))
	if err != nil {
		t.Fatal(err)
	}
	// 4 full hours at a constant 5-core limit bill exactly 20.
	if res.BilledCorePeriods != 20 {
		t.Errorf("billed = %v, want 20", res.BilledCorePeriods)
	}
}

func TestRunZeroResizeDelay(t *testing.T) {
	// Instant resizes (the in-place future) are a legal configuration.
	tr := flatTrace(6, 120)
	opts := DefaultOptions(2, 8)
	opts.ResizeDelayMinutes = 0
	rec, err := recommend.NewCaaSPERReactive(core.DefaultConfig(8), 20)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(tr, rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumScalings == 0 {
		t.Fatal("expected scalings")
	}
	d := res.Decisions[0]
	if d.EffectiveAt != d.Minute {
		t.Errorf("zero-delay resize effective at %d, decided at %d", d.EffectiveAt, d.Minute)
	}
}
