package experiments

import (
	"errors"
	"strings"
	"testing"
)

func TestReplicateAggregates(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	metrics, err := ReplicateWorkers(seeds, 0, func(seed uint64) ([]MetricSample, error) {
		return []MetricSample{
			{Name: "a", Value: float64(seed)},      // 1, 2, 3
			{Name: "b", Value: float64(seed * 10)}, // 10, 20, 30
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(metrics) != 2 {
		t.Fatalf("metrics = %+v", metrics)
	}
	if metrics[0].Name != "a" || metrics[0].Mean != 2 || metrics[0].N != 3 {
		t.Errorf("a = %+v", metrics[0])
	}
	if metrics[1].Mean != 20 || metrics[1].Std != 10 {
		t.Errorf("b = %+v", metrics[1])
	}
	if s := metrics[1].String(); s != "20.0±10.0" {
		t.Errorf("String = %q", s)
	}
}

func TestReplicateValidation(t *testing.T) {
	if _, err := ReplicateWorkers(nil, 0, nil); err == nil {
		t.Error("no seeds should fail")
	}
	if _, err := ReplicateWorkers([]uint64{1}, 0, func(uint64) ([]MetricSample, error) {
		return nil, errors.New("boom")
	}); err == nil {
		t.Error("run error should propagate")
	}
	// Inconsistent metric sets across runs are rejected.
	call := 0
	_, err := ReplicateWorkers([]uint64{1, 2}, 0, func(uint64) ([]MetricSample, error) {
		call++
		if call == 1 {
			return []MetricSample{{Name: "x", Value: 1}}, nil
		}
		return []MetricSample{{Name: "y", Value: 1}}, nil
	})
	if err == nil {
		t.Error("mismatched metric sets should fail")
	}
}

func TestReplicatedFigure9Margins(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated live-loop experiment")
	}
	metrics, report, err := ReplicatedFigure9([]uint64{1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ReplicatedMetric{}
	for _, m := range metrics {
		byName[m.Name] = m
	}
	// The paper's latency margins are small relative to the mean; ours
	// must be too (stable substrate, different seeds = workload noise).
	lat := byName["caasper avg lat (ms)"]
	if lat.Mean <= 0 {
		t.Fatalf("latency = %+v", lat)
	}
	if lat.Std > lat.Mean*0.25 {
		t.Errorf("latency margin %v too wide for mean %v", lat.Std, lat.Mean)
	}
	// The cost ratio is tight across seeds.
	price := byName["caasper price (% of control)"]
	if price.Mean <= 0 || price.Mean >= 100 {
		t.Errorf("price = %+v", price)
	}
	if price.Std > 10 {
		t.Errorf("price margin = %v, want tight", price.Std)
	}
	if !strings.Contains(report, "±") {
		t.Errorf("report lacks margins:\n%s", report)
	}
}
