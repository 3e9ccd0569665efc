package dbsim

import (
	"math"
	"testing"
	"time"

	"caasper/internal/k8s"
	"caasper/internal/workload"
)

func testSchedule(rate float64, mix workload.Mix, d time.Duration) *workload.LoadSchedule {
	return &workload.LoadSchedule{
		Name:     "test",
		Mix:      mix,
		Rate:     workload.Constant(rate),
		Duration: d,
	}
}

func newTestDB(t *testing.T, replicas, cores int, sched *workload.LoadSchedule, opts Options) (*Database, *k8s.StatefulSet, *k8s.Cluster) {
	t.Helper()
	cluster := k8s.SmallCluster()
	set, err := k8s.NewStatefulSet("db", replicas, cores, 16, cluster)
	if err != nil {
		t.Fatal(err)
	}
	db, err := New(set, sched, opts)
	if err != nil {
		t.Fatal(err)
	}
	return db, set, cluster
}

func TestNewValidation(t *testing.T) {
	cluster := k8s.SmallCluster()
	set, _ := k8s.NewStatefulSet("db", 2, 2, 8, cluster)
	sched := testSchedule(10, workload.TPCCMix(), time.Hour)
	if _, err := New(nil, sched, DefaultOptions()); err == nil {
		t.Error("nil set should fail")
	}
	if _, err := New(set, nil, DefaultOptions()); err == nil {
		t.Error("nil schedule should fail")
	}
	if _, err := New(set, sched, Options{TimeoutSeconds: 0}); err == nil {
		t.Error("bad options should fail")
	}
	if _, err := New(set, &workload.LoadSchedule{Name: "bad"}, DefaultOptions()); err == nil {
		t.Error("invalid schedule should fail")
	}
	bad := DefaultOptions()
	bad.BaseLatencySeconds = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative base latency should fail")
	}
}

func TestUnderloadedDatabaseCompletesEverything(t *testing.T) {
	// 50 txn/s of TPC-C (~0.01 CPU-s each ≈ 0.5 cores) on 4-core pods.
	mix := workload.TPCCMix()
	sched := testSchedule(50, mix, time.Hour)
	db, _, _ := newTestDB(t, 3, 4, sched, DefaultOptions())
	for now := int64(0); now < 3600; now++ {
		db.Tick(now, nil)
	}
	s := db.Stats()
	want := 50.0 * 3600
	if math.Abs(s.CompletedTxns-want) > want*0.02 {
		t.Errorf("completed = %v, want ≈%v", s.CompletedTxns, want)
	}
	if s.DroppedTxns != 0 {
		t.Errorf("dropped = %v", s.DroppedTxns)
	}
	// Latency should be near base+service, with minimal queueing.
	if s.AvgLatencyMS > 100 {
		t.Errorf("avg latency = %v ms, want small", s.AvgLatencyMS)
	}
	if s.MedLatencyMS <= 0 || s.P99LatencyMS < s.MedLatencyMS {
		t.Errorf("latency stats inconsistent: %+v", s)
	}
	var backlog float64
	for _, rs := range db.replicas {
		backlog += rs.backlogWork
	}
	if backlog > 1 {
		t.Errorf("backlog = %v, want drained", backlog)
	}
}

func TestOverloadedDatabaseThrottlesAndDrops(t *testing.T) {
	// Demand ~8 cores of work on 2-core pods without retry: timeouts
	// shed transactions and completion rate ≈ capacity share.
	mix := workload.TPCCMix()
	rate, err := workload.RateForCores(mix, 8)
	if err != nil {
		t.Fatal(err)
	}
	sched := testSchedule(rate, mix, time.Hour)
	opts := DefaultOptions()
	opts.Retry = false
	db, set, _ := newTestDB(t, 1, 2, sched, opts)
	for now := int64(0); now < 3600; now++ {
		db.Tick(now, nil)
	}
	s := db.Stats()
	if s.DroppedTxns == 0 {
		t.Fatal("overload without retry must drop transactions")
	}
	// Completed work bounded by capacity: ≈ 2 cores of the 8 demanded.
	total := s.CompletedTxns + s.DroppedTxns
	frac := s.CompletedTxns / total
	if frac > 0.35 || frac < 0.15 {
		t.Errorf("completed fraction = %v, want ≈0.25", frac)
	}
	// The pod records heavy throttled time.
	if set.Pods[0].ThrottledCPUSeconds < 1000 {
		t.Errorf("throttled seconds = %v", set.Pods[0].ThrottledCPUSeconds)
	}
	// Queueing inflates latency toward the timeout bound.
	if s.AvgLatencyMS < 1000 {
		t.Errorf("avg latency = %v ms, want heavily queued", s.AvgLatencyMS)
	}
}

func TestWritesOnlyOnPrimary(t *testing.T) {
	// A write-only mix must leave secondaries nearly idle (only the
	// replication-apply overhead).
	mix := workload.Mix{{Class: workload.TxnClass{Name: "w", CPUSeconds: 0.01, Write: true}, Weight: 1}}
	sched := testSchedule(100, mix, time.Hour) // 1 core of writes
	db, set, _ := newTestDB(t, 3, 4, sched, DefaultOptions())
	for now := int64(0); now < 1800; now++ {
		db.Tick(now, nil)
	}
	primary := set.Primary()
	for _, p := range set.Pods {
		if p == primary {
			if p.UsedCPUSeconds < 1000 {
				t.Errorf("primary used = %v, want ≈1800", p.UsedCPUSeconds)
			}
			continue
		}
		// Secondaries only burn the idle replication load (0.2 cores).
		if p.UsedCPUSeconds > 0.25*1800 {
			t.Errorf("secondary %s used = %v, want ≈%v", p.Name, p.UsedCPUSeconds, 0.2*1800)
		}
	}
}

func TestReadsSpreadAcrossReplicas(t *testing.T) {
	mix := workload.Mix{{Class: workload.TxnClass{Name: "r", CPUSeconds: 0.01, Write: false}, Weight: 1}}
	sched := testSchedule(300, mix, time.Hour) // 3 cores of reads
	opts := DefaultOptions()
	opts.SecondaryReadFraction = 2.0 / 3.0 // even split across 3 replicas
	db, set, _ := newTestDB(t, 3, 4, sched, opts)
	for now := int64(0); now < 1800; now++ {
		db.Tick(now, nil)
	}
	// Each replica serves ~1 core of reads; usage should be comparable.
	var usages []float64
	for _, p := range set.Pods {
		usages = append(usages, p.UsedCPUSeconds)
	}
	for _, u := range usages {
		if u < 0.5*1800 || u > 1.6*1800 {
			t.Errorf("replica usage %v outside the balanced band", u)
		}
	}
}

func TestRestartDropsOrRetriesBacklog(t *testing.T) {
	mix := workload.TPCCMix()
	sched := testSchedule(100, mix, time.Hour)

	run := func(retry bool) Stats {
		opts := DefaultOptions()
		opts.Retry = retry
		db, set, _ := newTestDB(t, 2, 4, sched, opts)
		for now := int64(0); now < 60; now++ {
			db.Tick(now, nil)
		}
		// Simulate a restart of the primary.
		db.OnPodDown(set.Primary())
		for now := int64(60); now < 120; now++ {
			db.Tick(now, nil)
		}
		return db.Stats()
	}

	withRetry := run(true)
	if withRetry.RetriedTxns == 0 {
		t.Error("retry mode should record retried txns")
	}
	if withRetry.InterruptedTxns == 0 {
		t.Error("restart should interrupt txns")
	}
	noRetry := run(false)
	if noRetry.DroppedTxns == 0 {
		t.Error("no-retry mode should record dropped txns")
	}
}

func TestOnPodDownUnknownPodIsNoop(t *testing.T) {
	sched := testSchedule(10, workload.TPCCMix(), time.Hour)
	db, _, _ := newTestDB(t, 2, 4, sched, DefaultOptions())
	db.OnPodDown(&k8s.Pod{Name: "ghost"})
	if s := db.Stats(); s.DroppedTxns != 0 && s.RetriedTxns != 0 {
		t.Error("unknown pod should not affect stats")
	}
}

func TestWeightedQuantile(t *testing.T) {
	samples := []float64{1, 2, 3}
	weights := []float64{1, 1, 8}
	if got := weightedQuantile(samples, weights, 0.5); got != 3 {
		t.Errorf("weighted median = %v, want 3", got)
	}
	if got := weightedQuantile(samples, weights, 0.05); got != 1 {
		t.Errorf("low quantile = %v, want 1", got)
	}
	if got := weightedQuantile(nil, nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
	if got := weightedQuantile([]float64{5}, []float64{0}, 0.5); got != 0 {
		t.Errorf("zero-weight quantile = %v", got)
	}
}

func TestMetricsRecordedDuringTicks(t *testing.T) {
	sched := testSchedule(100, workload.TPCCMix(), time.Hour)
	db, set, _ := newTestDB(t, 2, 4, sched, DefaultOptions())
	ms := k8s.NewMetricsServer(60)
	for now := int64(0); now < 180; now++ {
		db.Tick(now, ms)
	}
	series := ms.UsageSeries(set.Primary().Name)
	if len(series) < 2 {
		t.Fatalf("series = %v", series)
	}
	if series[0] <= 0 {
		t.Error("primary usage should be positive")
	}
}
