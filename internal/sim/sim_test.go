package sim

import (
	"strings"
	"testing"
	"time"

	"caasper/internal/baselines"
	"caasper/internal/core"
	"caasper/internal/recommend"
	"caasper/internal/trace"
	"caasper/internal/workload"
)

func minuteTrace(name string, values []float64) *trace.Trace {
	return trace.New(name, time.Minute, values)
}

func flatTrace(level float64, minutes int) *trace.Trace {
	vals := make([]float64, minutes)
	for i := range vals {
		vals[i] = level
	}
	return minuteTrace("flat", vals)
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{Resources: core.CPURange(-1, 1, 4), DecisionEveryMinutes: 10, BillingPeriod: time.Hour},
		{Resources: core.CPURange(2, 0, 4), DecisionEveryMinutes: 10, BillingPeriod: time.Hour},
		{Resources: core.CPURange(2, 5, 4), DecisionEveryMinutes: 10, BillingPeriod: time.Hour},
		{Resources: core.CPURange(2, 1, 4), DecisionEveryMinutes: 0, BillingPeriod: time.Hour},
		{Resources: core.CPURange(2, 1, 4), DecisionEveryMinutes: 10, ResizeDelayMinutes: -1, BillingPeriod: time.Hour},
		{Resources: core.CPURange(2, 1, 4), DecisionEveryMinutes: 10, BillingPeriod: 0},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	if err := DefaultOptions(6, 16).Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestZeroInitialResolvesToMin: an unset initial allocation starts the
// replay at the safety floor.
func TestZeroInitialResolvesToMin(t *testing.T) {
	opts := DefaultOptions(0, 8)
	if err := opts.Validate(); err != nil {
		t.Fatalf("zero initial cores should default to Min: %v", err)
	}
	res, err := Run(flatTrace(1, 30), baselines.NewControl(5), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Limits[0] != 2 {
		t.Fatalf("replay starts at %v cores, want Min 2", res.Limits[0])
	}
}

func TestRunInputValidation(t *testing.T) {
	rec := baselines.NewControl(4)
	if _, err := Run(nil, rec, DefaultOptions(4, 16)); err == nil {
		t.Error("nil trace should error")
	}
	if _, err := Run(minuteTrace("e", nil), rec, DefaultOptions(4, 16)); err == nil {
		t.Error("empty trace should error")
	}
	secTrace := trace.New("s", time.Second, []float64{1, 2})
	if _, err := Run(secTrace, rec, DefaultOptions(4, 16)); err == nil {
		t.Error("non-minute trace should error")
	}
	if _, err := Run(flatTrace(1, 10), rec, Options{}); err == nil {
		t.Error("invalid options should error")
	}
}

func TestControlRunMetrics(t *testing.T) {
	// Demand 3 cores, fixed limits 5: slack 2/min, no throttling.
	tr := flatTrace(3, 120)
	res, err := Run(tr, baselines.NewControl(5), DefaultOptions(5, 16))
	if err != nil {
		t.Fatal(err)
	}
	if res.Minutes != 120 {
		t.Errorf("minutes = %d", res.Minutes)
	}
	if res.SumSlack != 240 {
		t.Errorf("K = %v, want 240", res.SumSlack)
	}
	if res.SumInsufficient != 0 || res.ThrottledMinutes != 0 {
		t.Errorf("C = %v, throttled = %d", res.SumInsufficient, res.ThrottledMinutes)
	}
	if res.NumScalings != 0 {
		t.Errorf("N = %d, want 0 for control", res.NumScalings)
	}
	if res.AvgSlack != 2 {
		t.Errorf("avg slack = %v", res.AvgSlack)
	}
	// 2 hours at 5 cores = 10 billed core-hours.
	if res.BilledCorePeriods != 10 {
		t.Errorf("billed = %v, want 10", res.BilledCorePeriods)
	}
	if res.ThroughputProxy() != 1 {
		t.Errorf("throughput = %v", res.ThroughputProxy())
	}
}

func TestThrottlingAccounting(t *testing.T) {
	// Demand 8, limits 5: 3 cores insufficient every minute.
	tr := flatTrace(8, 60)
	res, err := Run(tr, baselines.NewControl(5), DefaultOptions(5, 16))
	if err != nil {
		t.Fatal(err)
	}
	if res.SumInsufficient != 180 {
		t.Errorf("C = %v, want 180", res.SumInsufficient)
	}
	if res.ThrottledPct != 1 {
		t.Errorf("throttled pct = %v", res.ThrottledPct)
	}
	// Usage is capped at limits.
	for _, u := range res.Usage {
		if u != 5 {
			t.Fatalf("usage = %v, want capped 5", u)
		}
	}
	want := 1 - 180.0/480.0
	if got := res.ThroughputProxy(); got != want {
		t.Errorf("throughput proxy = %v, want %v", got, want)
	}
}

func TestResizeDelayAndSerialization(t *testing.T) {
	// A recommender that always asks for 8 cores from a 4-core start:
	// the resize decided at the first tick must take effect only after
	// the delay, and only one scaling occurs.
	tr := flatTrace(2, 60)
	opts := DefaultOptions(4, 16)
	opts.DecisionEveryMinutes = 10
	opts.ResizeDelayMinutes = 15
	res, err := Run(tr, baselines.NewControl(8), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumScalings != 1 {
		t.Fatalf("N = %d, want 1", res.NumScalings)
	}
	d := res.Decisions[0]
	if d.Minute != 10 || d.From != 4 || d.To != 8 || d.EffectiveAt != 25 {
		t.Errorf("decision = %+v", d)
	}
	// Limits before minute 25 are 4, after are 8.
	if res.Limits[24] != 4 || res.Limits[25] != 8 {
		t.Errorf("limits around resize: %v, %v", res.Limits[24], res.Limits[25])
	}
}

func TestScalerClampsRecommendation(t *testing.T) {
	tr := flatTrace(2, 40)
	opts := DefaultOptions(4, 6)
	opts.Resources.Min.CPUCores = 3
	res, err := Run(tr, baselines.NewControl(99), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Limits {
		if l > 6 {
			t.Fatalf("limit %v exceeds safety max", l)
		}
	}
	res, err = Run(tr, baselines.NewControl(1), opts)
	if err != nil {
		t.Fatal(err)
	}
	final := res.Limits[len(res.Limits)-1]
	if final < 3 {
		t.Fatalf("limit %v below safety min", final)
	}
}

func TestDecisionSeriesRecordsHolds(t *testing.T) {
	tr := flatTrace(2, 61)
	opts := DefaultOptions(4, 16)
	opts.DecisionEveryMinutes = 10
	res, err := Run(tr, baselines.NewControl(4), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Ticks at minutes 10..60 = 6 decisions, all holds at 4.
	if len(res.DecisionSeries) != 6 {
		t.Fatalf("decision series length = %d", len(res.DecisionSeries))
	}
	for _, v := range res.DecisionSeries {
		if v != 4 {
			t.Errorf("decision = %v, want hold 4", v)
		}
	}
}

func TestCaaSPEREscapesThrottlingVPADoesNot(t *testing.T) {
	// Head-to-head on a demand trace that exceeds the initial limits:
	// CaaSPER must scale out of throttling, OpenShift-style prediction
	// must stay trapped (§3.3).
	demand := make([]float64, 6*60)
	for i := range demand {
		demand[i] = 7
	}
	tr := minuteTrace("trap", demand)
	opts := DefaultOptions(2, 14)

	ca, err := recommend.NewCaaSPERReactive(core.DefaultConfig(14), 40)
	if err != nil {
		t.Fatal(err)
	}
	caRes, err := Run(tr, ca, opts)
	if err != nil {
		t.Fatal(err)
	}
	os, err := baselines.NewOpenShiftVPA(baselines.DefaultOpenShiftVPAOptions(14))
	if err != nil {
		t.Fatal(err)
	}
	osRes, err := Run(tr, os, opts)
	if err != nil {
		t.Fatal(err)
	}

	if caRes.ThroughputProxy() < 0.85 {
		t.Errorf("CaaSPER throughput = %v, want ≥0.85", caRes.ThroughputProxy())
	}
	if osRes.ThroughputProxy() > 0.6 {
		t.Errorf("OpenShift throughput = %v, want trapped low", osRes.ThroughputProxy())
	}
	if caRes.SumInsufficient >= osRes.SumInsufficient {
		t.Errorf("CaaSPER C=%v should beat OpenShift C=%v", caRes.SumInsufficient, osRes.SumInsufficient)
	}
}

func TestCaaSPERReducesSlackVsControl(t *testing.T) {
	tr := workload.StepTrace62h(1)
	opts := DefaultOptions(14, 14)

	control, err := Run(tr, baselines.NewControl(14), opts)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := recommend.NewCaaSPERReactive(core.DefaultConfig(14), 40)
	if err != nil {
		t.Fatal(err)
	}
	caRes, err := Run(tr, ca, opts)
	if err != nil {
		t.Fatal(err)
	}
	red := caRes.SlackReductionVs(control)
	if red < 0.5 {
		t.Errorf("slack reduction = %.1f%%, want substantial (paper: 78.3%%)", red*100)
	}
	if caRes.ThroughputProxy() < 0.9 {
		t.Errorf("throughput = %v, want ≥0.9", caRes.ThroughputProxy())
	}
	if caRes.CostRatioVs(control) >= 1 {
		t.Errorf("cost ratio = %v, want < 1", caRes.CostRatioVs(control))
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{SumSlack: 50, BilledCorePeriods: 30, Demand: []float64{0}}
	b := &Result{SumSlack: 100, BilledCorePeriods: 60}
	if got := r.SlackReductionVs(b); got != 0.5 {
		t.Errorf("slack reduction = %v", got)
	}
	if got := r.CostRatioVs(b); got != 0.5 {
		t.Errorf("cost ratio = %v", got)
	}
	zero := &Result{}
	if r.SlackReductionVs(zero) != 0 || r.CostRatioVs(zero) != 0 {
		t.Error("zero baselines should yield 0")
	}
	if zero2 := (&Result{Demand: []float64{0, 0}}).ThroughputProxy(); zero2 != 1 {
		t.Errorf("zero-demand throughput = %v, want 1", zero2)
	}
	over := &Result{Demand: []float64{1}, SumInsufficient: 5}
	if got := over.ThroughputProxy(); got != 0 {
		t.Errorf("over-throttled proxy = %v, want floor 0", got)
	}
	if !strings.Contains(r.String(), "Result{") {
		t.Errorf("String = %q", r.String())
	}
}

func TestRunDeterminism(t *testing.T) {
	tr := workload.Workday12h(7)
	mk := func() *Result {
		ca, err := recommend.NewCaaSPERReactive(core.DefaultConfig(8), 40)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(tr, ca, DefaultOptions(6, 8))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	if a.SumSlack != b.SumSlack || a.NumScalings != b.NumScalings || a.BilledCorePeriods != b.BilledCorePeriods {
		t.Error("simulation must be deterministic")
	}
}

func TestWarmupDelaysFirstDecision(t *testing.T) {
	tr := flatTrace(2, 120)
	opts := DefaultOptions(4, 16)
	opts.DecisionEveryMinutes = 10
	opts.WarmupMinutes = 60
	res, err := Run(tr, baselines.NewControl(8), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decisions[0].Minute < 60 {
		t.Errorf("first decision at %d, want ≥ warmup 60", res.Decisions[0].Minute)
	}
}
