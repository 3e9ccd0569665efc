package k8s

import (
	"testing"

	"caasper/internal/baselines"
	"caasper/internal/core"
	"caasper/internal/recommend"
)

func TestMetricsServerBucketsMeans(t *testing.T) {
	ms := NewMetricsServer(60)
	// 60 seconds at 3 cores, then 60 at 5.
	for s := int64(0); s < 60; s++ {
		ms.RecordUsage("db-0", s, 3)
	}
	for s := int64(60); s < 120; s++ {
		ms.RecordUsage("db-0", s, 5)
	}
	// Trigger closing of the second bucket.
	ms.RecordUsage("db-0", 120, 1)
	series := ms.UsageSeries("db-0")
	if len(series) != 2 {
		t.Fatalf("series = %v", series)
	}
	if series[0] != 3 || series[1] != 5 {
		t.Errorf("series = %v, want [3 5]", series)
	}
}

func TestMetricsServerPartialBucketMean(t *testing.T) {
	ms := NewMetricsServer(60)
	// Only 30 of the 60 seconds recorded at 4 cores: the bucket mean is
	// cpu-seconds / interval = 120/60 = 2 (silence counts as idle).
	for s := int64(0); s < 30; s++ {
		ms.RecordUsage("p", s, 4)
	}
	ms.RecordUsage("p", 60, 0)
	series := ms.UsageSeries("p")
	if len(series) != 1 || series[0] != 2 {
		t.Errorf("series = %v, want [2]", series)
	}
}

func TestMetricsServerZeroFillsSilentBuckets(t *testing.T) {
	ms := NewMetricsServer(60)
	ms.RecordUsage("p", 0, 6)
	// Silence for buckets 1 and 2, then activity in bucket 3.
	ms.RecordUsage("p", 185, 6)
	series := ms.UsageSeries("p")
	if len(series) != 3 {
		t.Fatalf("series = %v", series)
	}
	if series[1] != 0 || series[2] != 0 {
		t.Errorf("silent buckets = %v, want zeros", series)
	}
}

func TestMetricsServerLateFirstSample(t *testing.T) {
	ms := NewMetricsServer(60)
	// First sample in bucket 2: earlier buckets backfill as zero.
	ms.RecordUsage("p", 130, 3)
	ms.RecordUsage("p", 190, 3)
	series := ms.UsageSeries("p")
	if len(series) != 3 || series[0] != 0 || series[1] != 0 {
		t.Errorf("series = %v", series)
	}
}

func TestMetricsServerPods(t *testing.T) {
	ms := NewMetricsServer(60)
	ms.RecordUsage("b", 0, 60)
	ms.RecordUsage("a", 0, 120)
	ms.RecordUsage("a", 60, 0)
	ms.RecordUsage("b", 60, 0)
	if a, b := ms.UsageSeries("a"), ms.UsageSeries("b"); len(a) != 1 || a[0] != 2 || len(b) != 1 || b[0] != 1 {
		t.Errorf("series a = %v, b = %v, want [2] and [1]: one series per pod", a, b)
	}
	if NewMetricsServer(0).IntervalSeconds != 60 {
		t.Error("zero interval should default to 60")
	}
}

func TestScalerValidation(t *testing.T) {
	c := SmallCluster()
	set, _ := NewStatefulSet("db", 2, 4, 16, c)
	op, _ := NewOperator(set, c, 10)
	ms := NewMetricsServer(60)
	rec := baselines.NewControl(4)
	if _, err := NewScaler(nil, op, ms, 600, 2, 8); err == nil {
		t.Error("nil recommender should fail")
	}
	if _, err := NewScaler(rec, nil, ms, 600, 2, 8); err == nil {
		t.Error("nil operator should fail")
	}
	if _, err := NewScaler(rec, op, nil, 600, 2, 8); err == nil {
		t.Error("nil metrics should fail")
	}
	if _, err := NewScaler(rec, op, ms, 0, 2, 8); err == nil {
		t.Error("zero cadence should fail")
	}
	if _, err := NewScaler(rec, op, ms, 600, 0, 8); err == nil {
		t.Error("bad bounds should fail")
	}
}

// scalerHarness runs a closed loop: demand → pods → metrics → scaler →
// operator, for the given number of seconds.
func scalerHarness(t *testing.T, rec recommend.Recommender, demand func(sec int64) float64, seconds int64, initialCores, minC, maxC int) (*StatefulSet, *Scaler, *Operator) {
	t.Helper()
	c := SmallCluster()
	set, err := NewStatefulSet("db", 3, initialCores, 16, c)
	if err != nil {
		t.Fatal(err)
	}
	op, err := NewOperator(set, c, 100)
	if err != nil {
		t.Fatal(err)
	}
	ms := NewMetricsServer(60)
	sc, err := NewScaler(rec, op, ms, 600, minC, maxC)
	if err != nil {
		t.Fatal(err)
	}
	for now := int64(0); now < seconds; now++ {
		op.Tick(now)
		// The primary receives the demand; secondaries idle at 10%.
		for _, p := range set.Pods {
			d := demand(now) * 0.1
			if p.Role == RolePrimary {
				d = demand(now)
			}
			used := p.ConsumeCPU(d, 1)
			ms.RecordUsage(p.Name, now, used)
		}
		sc.Tick(now)
	}
	return set, sc, op
}

func TestScalerClosedLoopScalesUpUnderThrottling(t *testing.T) {
	cfg := core.DefaultConfig(8)
	rec, err := recommend.NewCaaSPERReactive(cfg, 40)
	if err != nil {
		t.Fatal(err)
	}
	// Demand 6 cores against an initial 2-core limit for 2 hours.
	set, sc, op := scalerHarness(t, rec, func(int64) float64 { return 6 }, 7200, 2, 2, 8)
	if set.CPULimit() < 6 {
		t.Errorf("limit after loop = %d, want ≥6 (demand)", set.CPULimit())
	}
	if sc.ScalingsRequested == 0 {
		t.Error("no scalings requested")
	}
	if op.ResizeCount == 0 {
		t.Error("no resizes completed")
	}
}

func TestScalerClosedLoopScalesDownWhenIdle(t *testing.T) {
	cfg := core.DefaultConfig(8)
	rec, err := recommend.NewCaaSPERReactive(cfg, 40)
	if err != nil {
		t.Fatal(err)
	}
	set, _, _ := scalerHarness(t, rec, func(int64) float64 { return 1.2 }, 7200, 8, 2, 8)
	if set.CPULimit() > 3 {
		t.Errorf("limit after idle loop = %d, want scaled down toward 2", set.CPULimit())
	}
}

func TestScalerRespectsBoundsAndSerialization(t *testing.T) {
	// A recommender that always wants 99 cores: clamped to max, and
	// never re-requested mid-update.
	rec := baselines.NewControl(99)
	set, sc, _ := scalerHarness(t, rec, func(int64) float64 { return 1 }, 4000, 4, 2, 6)
	if set.CPULimit() != 6 {
		t.Errorf("limit = %d, want clamped 6", set.CPULimit())
	}
	if sc.ScalingsRequested != 1 {
		t.Errorf("scalings = %d, want exactly 1 (then target == max)", sc.ScalingsRequested)
	}
	for _, v := range sc.DecisionSeries {
		if v > 6 {
			t.Errorf("decision %v above clamp", v)
		}
	}
}

func TestScalerHoldRecordsDecision(t *testing.T) {
	rec := baselines.NewControl(4)
	_, sc, op := scalerHarness(t, rec, func(int64) float64 { return 2 }, 3000, 4, 2, 8)
	if len(sc.DecisionSeries) == 0 {
		t.Fatal("decision series empty")
	}
	if sc.ScalingsRequested != 0 || op.ResizeCount != 0 {
		t.Error("holds must not trigger resizes")
	}
}
