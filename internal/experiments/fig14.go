package experiments

import (
	"fmt"
	"strings"

	"caasper/internal/sim"
	"caasper/internal/trace"
	"caasper/internal/tuning"
	"caasper/internal/workload"
)

// AlibabaRow is one Table 3 row: the per-trace autoscaling metrics after
// simulator-based parameter tuning.
type AlibabaRow struct {
	// Workload is the trace ID ("c_1", ...).
	Workload string
	// AvgSlack, NumScalings, AvgInsufficient and ThrottledPct are the
	// Table 3 columns.
	AvgSlack        float64
	NumScalings     int
	AvgInsufficient float64
	ThrottledPct    float64
	// Params is the tuned combination used.
	Params tuning.Params
	// Result is the full simulation outcome (the Figure 14 series live
	// in Result.Limits / Result.Usage).
	Result *sim.Result
}

// Figure14Result holds the §6.3 Alibaba-trace evaluation: Figure 14's
// decision series and Table 3's per-trace metric summary.
type Figure14Result struct {
	Rows   []AlibabaRow
	Report string
}

// Figure14Table3 reproduces the Alibaba evaluation. For each of the 11
// trace IDs the paper reports, a (synthetic stand-in) 8-day trace is
// generated, parameters are tuned with a random search on the simulator
// (tuneSamples combinations; the paper uses 5000), the α-balanced
// G-optimum is selected, and the tuned configuration is re-simulated to
// produce the Table 3 metrics.
func Figure14Table3(seed uint64, tuneSamples int) (*Figure14Result, error) {
	res := &Figure14Result{}
	tb := NewTable("Figure 14 / Table 3 — Alibaba workloads under tuned CaaSPER",
		"workload", "avg slack", "num scalings", "avg insuff. cpu", "throttling obs %")
	for _, id := range workload.AlibabaIDs {
		tr, err := workload.AlibabaTrace(id, seed)
		if err != nil {
			return nil, err
		}
		// §6.3: traces recorded in millicores are scaled into integer
		// core ranges ("for a range of 0.000-3.000 cores in a trace, we
		// scaled to 0-30 cores") since the prototype works whole-core.
		// Small traces get the same ×10 treatment here.
		scale := 1.0
		if tr.Summarize().Max < 5 {
			tr.Scale(10)
			scale = 10
		}
		row, err := tuneAndRun(tr, seed, tuneSamples)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		// "To visualize, we converted the values back to the original":
		// per-core metrics are reported in the trace's native scale.
		row.AvgSlack /= scale
		row.AvgInsufficient /= scale
		res.Rows = append(res.Rows, row)
		tb.AddRow(row.Workload, row.AvgSlack, row.NumScalings, row.AvgInsufficient, pct(row.ThrottledPct))
	}
	var b strings.Builder
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "paper Table 3 ranges: avg slack 0.15-3.94, scalings 38-443, avg insuff 0.000-0.005, throttled obs 0-1.21%%\n")
	res.Report = b.String()
	return res, nil
}

// tuneAndRun tunes parameters for one trace and re-simulates the chosen
// combination.
func tuneAndRun(tr *trace.Trace, seed uint64, tuneSamples int) (AlibabaRow, error) {
	peak := tr.Summarize().Max
	maxCores := int(peak*1.3) + 2
	initial := int(peak) + 1
	if initial > maxCores {
		initial = maxCores
	}
	simOpts := sim.DefaultOptions(initial, maxCores)
	// The §6.3 simulation applies decisions at trace resolution: Table 3
	// reports up to 443 scalings over ~11.5k minutes (one per ~26 min),
	// which requires a much faster loop than the live system's rolling
	// updates. Decisions every 5 minutes, effective the next minute.
	simOpts.DecisionEveryMinutes = 5
	simOpts.ResizeDelayMinutes = 1

	evals, err := tuning.RandomSearch(tr, tuning.SearchOptions{
		Samples:       tuneSamples,
		Seed:          seed + 7,
		Sim:           &simOpts,
		SeasonMinutes: 24 * 60,
	})
	if err != nil {
		return AlibabaRow{}, err
	}
	// The paper picks per-trace parameters "based on desired slack and
	// throttling": Table 3 shows sub-2% throttled observations across
	// every trace, so the selection first filters to combinations within
	// that throttling budget, then minimises slack (with the R3
	// scaling-frequency tie-break inside BestForAlpha).
	const throttleBudget = 0.02
	candidates := make([]tuning.Evaluation, 0, len(evals))
	for _, e := range evals {
		if e.ThrottledPct <= throttleBudget {
			candidates = append(candidates, e)
		}
	}
	if len(candidates) == 0 {
		// No combination meets the budget: fall back to the least
		// throttled ones.
		bestPct := evals[0].ThrottledPct
		for _, e := range evals[1:] {
			if e.ThrottledPct < bestPct {
				bestPct = e.ThrottledPct
			}
		}
		for _, e := range evals {
			if e.ThrottledPct <= bestPct*1.25 {
				candidates = append(candidates, e)
			}
		}
	}
	best, err := tuning.BestForAlpha(1.0, candidates)
	if err != nil {
		return AlibabaRow{}, err
	}
	// Re-simulate the chosen combination keeping the full series for the
	// Figure 14 plots (Evaluate discards them).
	rec, err := tuning.NewRecommender(best.Params, simOpts.Resources.Max.CPUCores, 24*60)
	if err != nil {
		return AlibabaRow{}, err
	}
	full, err := sim.Run(tr, rec, simOpts)
	if err != nil {
		return AlibabaRow{}, err
	}
	if full.SumSlack != best.K || full.NumScalings != best.N {
		return AlibabaRow{}, fmt.Errorf("experiments: nondeterministic evaluation (K %v vs %v, N %d vs %d)",
			best.K, full.SumSlack, best.N, full.NumScalings)
	}
	return AlibabaRow{
		Workload:        tr.Name,
		AvgSlack:        full.AvgSlack,
		NumScalings:     full.NumScalings,
		AvgInsufficient: full.AvgInsufficient,
		ThrottledPct:    full.ThrottledPct,
		Params:          best.Params,
		Result:          full,
	}, nil
}
