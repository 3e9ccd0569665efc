package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"caasper/internal/parallel"
	"caasper/internal/stats"
)

// The paper reports its live metrics with error margins ("141±4 ms",
// "measured by multiple runs in the same cluster", §6.2 / Table 1). This
// file provides the replication machinery: run an experiment across
// several seeds and summarise each metric as mean ± sample standard
// deviation.

// MetricSample is one named metric value from one replica run.
type MetricSample struct {
	Name  string
	Value float64
}

// ReplicatedMetric is a metric summarised across replicas.
type ReplicatedMetric struct {
	Name string
	// Mean and Std are across replicas.
	Mean, Std float64
	// N is the replica count.
	N int
}

// String renders the paper's "value±margin" form.
func (m ReplicatedMetric) String() string {
	return fmt.Sprintf("%.1f±%.1f", m.Mean, m.Std)
}

// ReplicateWorkers runs fn once per seed and aggregates the returned
// metrics by name. Every run must return the same metric set; mismatches
// error. It fans the seeds out across workers goroutines (values below 1
// select runtime.GOMAXPROCS(0)). fn must be safe for concurrent
// calls — every experiment here derives all state from its seed. Replica
// results are written by seed index and aggregated sequentially in seed
// order afterwards, so the output (including metric ordering and the
// floating-point mean/stddev accumulation order) is identical for every
// worker count; on failure the error of the earliest seed wins.
func ReplicateWorkers(seeds []uint64, workers int, fn func(seed uint64) ([]MetricSample, error)) ([]ReplicatedMetric, error) {
	if len(seeds) == 0 {
		return nil, errors.New("experiments: no seeds")
	}
	runs, err := parallel.Map(context.Background(), len(seeds), workers, func(i int) ([]MetricSample, error) {
		samples, err := fn(seeds[i])
		if err != nil {
			return nil, fmt.Errorf("experiments: seed %d: %w", seeds[i], err)
		}
		return samples, nil
	})
	if err != nil {
		return nil, err
	}
	values := map[string][]float64{}
	var order []string
	for _, samples := range runs {
		for _, s := range samples {
			if _, ok := values[s.Name]; !ok {
				order = append(order, s.Name)
			}
			values[s.Name] = append(values[s.Name], s.Value)
		}
	}
	out := make([]ReplicatedMetric, 0, len(order))
	for _, name := range order {
		vs := values[name]
		if len(vs) != len(seeds) {
			return nil, fmt.Errorf("experiments: metric %q present in %d of %d runs", name, len(vs), len(seeds))
		}
		out = append(out, ReplicatedMetric{
			Name: name,
			Mean: stats.Mean(vs),
			Std:  stats.StdDev(vs),
			N:    len(vs),
		})
	}
	return out, nil
}

// ReplicatedFigure9 runs the Figure 9 / Table 1 live experiment across
// the given seeds and reports each headline metric with its ± margin —
// the paper's presentation format for that table. Replicas run across
// workers goroutines (below 1: runtime.GOMAXPROCS(0)).
func ReplicatedFigure9(seeds []uint64, workers int) ([]ReplicatedMetric, string, error) {
	metrics, err := ReplicateWorkers(seeds, workers, func(seed uint64) ([]MetricSample, error) {
		r, err := Figure9Table1(seed)
		if err != nil {
			return nil, err
		}
		return []MetricSample{
			{Name: "control avg lat (ms)", Value: r.Control.DB.AvgLatencyMS},
			{Name: "control med lat (ms)", Value: r.Control.DB.MedLatencyMS},
			{Name: "caasper avg lat (ms)", Value: r.CaaSPER.DB.AvgLatencyMS},
			{Name: "caasper med lat (ms)", Value: r.CaaSPER.DB.MedLatencyMS},
			{Name: "caasper price (% of control)", Value: r.CostRatio * 100},
			{Name: "caasper slack reduction (%)", Value: r.SlackReduction * 100},
			{Name: "caasper resizes", Value: float64(r.Resizes)},
		}, nil
	})
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 (non-cyclical) across %d replica runs (mean±sd, paper form \"141±4\"):\n", len(seeds))
	for _, m := range metrics {
		fmt.Fprintf(&b, "  %-30s %s\n", m.Name, m.String())
	}
	return metrics, b.String(), nil
}
