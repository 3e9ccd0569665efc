package experiments

import (
	"context"
	"fmt"
	"strings"

	"caasper/internal/core"
	"caasper/internal/dbsim"
	"caasper/internal/forecast"
	"caasper/internal/parallel"
	"caasper/internal/recommend"
	"caasper/internal/sim"
	"caasper/internal/workload"
)

// This file contains the ablation studies DESIGN.md calls out for the
// repository's design choices — they correspond to the paper's future-work
// items (§8) and to the knobs §5 identifies as dominant.

// AblationInPlaceResult compares rolling-update resizes with the K8s
// in-place pod resize feature the paper plans to adopt (§2.2 footnote 4,
// §6.2 footnote 10): the paper reports that with in-place resize "neither
// the scale-up lag nor failed transactions occur".
type AblationInPlaceResult struct {
	Rolling, InPlace *dbsim.LiveResult
	Report           string
}

// AblationInPlace runs the Figure 9 workday on Database A twice: with the
// rolling-update resize path and with in-place resizes.
func AblationInPlace(seed uint64) (*AblationInPlaceResult, error) {
	sched := workload.WorkdaySchedule(seed)
	const cores = 6

	mkRec := func() (recommend.Recommender, error) {
		return recommend.NewCaaSPERReactive(core.DefaultConfig(cores), 40)
	}

	rec, err := mkRec()
	if err != nil {
		return nil, err
	}
	rolling, err := dbsim.RunLive(sched, rec, dbsim.DatabaseAOptions(cores, cores))
	if err != nil {
		return nil, fmt.Errorf("rolling: %w", err)
	}

	rec, err = mkRec()
	if err != nil {
		return nil, err
	}
	ipOpts := dbsim.DatabaseAOptions(cores, cores)
	ipOpts.InPlaceResize = true
	inPlace, err := dbsim.RunLive(sched, rec, ipOpts)
	if err != nil {
		return nil, fmt.Errorf("in-place: %w", err)
	}

	res := &AblationInPlaceResult{Rolling: rolling, InPlace: inPlace}
	tb := NewTable("Ablation — rolling-update vs in-place resize (workday, Database A)",
		"resize mode", "completed txns", "interrupted txns", "failovers", "sum insufficient", "billed core-h")
	tb.AddRow("rolling update", rolling.DB.CompletedTxns, rolling.DB.InterruptedTxns,
		rolling.Failovers, rolling.SumInsufficient, rolling.BilledCorePeriods)
	tb.AddRow("in-place", inPlace.DB.CompletedTxns, inPlace.DB.InterruptedTxns,
		inPlace.Failovers, inPlace.SumInsufficient, inPlace.BilledCorePeriods)
	var b strings.Builder
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "paper (§6.2 fn.10): with in-place resize neither the scale-up lag nor failed transactions occur\n")
	res.Report = b.String()
	return res, nil
}

// AblationHorizonRow is one proactive-horizon setting's outcome.
type AblationHorizonRow struct {
	HorizonMinutes  int
	SumSlack        float64
	SumInsufficient float64
	NumScalings     int
}

// AblationHorizonResult sweeps the proactive scale-ahead window — the
// knob §6.2 mentions tuning ("we set the scale-ahead window gap to 1 hour
// to display on the graph more clearly; in practice we set this smaller
// to increase savings").
type AblationHorizonResult struct {
	Rows   []AblationHorizonRow
	Report string
}

// AblationHorizon evaluates horizons 0 (pure reactive), 15, 60 and 120
// minutes on the cyclical trace. The four horizon runs are independent
// simulations, so they fan out across workers goroutines (below 1:
// runtime.GOMAXPROCS(0)); rows are written by horizon index, keeping the
// table order and values identical for every worker count.
func AblationHorizon(seed uint64, workers int) (*AblationHorizonResult, error) {
	tr := workload.Cyclical3Day(seed)
	opts := sim.DefaultOptions(14, 14)
	opts.ResizeDelayMinutes = 4
	const season = 24 * 60

	horizons := []int{0, 15, 60, 120}
	rows, err := parallel.Map(context.Background(), len(horizons), workers, func(i int) (AblationHorizonRow, error) {
		horizon := horizons[i]
		var rec recommend.Recommender
		var err error
		if horizon == 0 {
			rec, err = recommend.NewCaaSPERReactive(core.DefaultConfig(14), 40)
		} else {
			rec, err = recommend.NewCaaSPERProactive(core.DefaultConfig(14),
				&forecast.SeasonalNaive{Season: season}, 40, horizon, season)
		}
		if err != nil {
			return AblationHorizonRow{}, err
		}
		r, err := sim.Run(tr, rec, opts)
		if err != nil {
			return AblationHorizonRow{}, err
		}
		return AblationHorizonRow{
			HorizonMinutes:  horizon,
			SumSlack:        r.SumSlack,
			SumInsufficient: r.SumInsufficient,
			NumScalings:     r.NumScalings,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	res := &AblationHorizonResult{Rows: rows}
	tb := NewTable("Ablation — proactive scale-ahead horizon on the cyclical workload",
		"horizon (min)", "sum slack K", "sum insufficient C", "scalings N")
	for _, row := range rows {
		tb.AddRow(row.HorizonMinutes, row.SumSlack, row.SumInsufficient, row.NumScalings)
	}
	var b strings.Builder
	b.WriteString(tb.String())
	b.WriteString("longer horizons buy earlier scale-ups (less throttling) at the cost of extra slack\n")
	res.Report = b.String()
	return res, nil
}

// AblationPrefilterResult compares the proactive mode with and without
// the §4.3-planned confidence prefilter on a trace whose forecast is
// poisoned by a one-off outlier spike (the c_29247 situation the paper
// discusses: "the lower accuracy of the naïve forecasting ... caused by
// the huge outlier spike is then projected onto future days").
type AblationPrefilterResult struct {
	Without, With *sim.Result
	Report        string
}

// AblationPrefilter runs the c_29247-style trace through the proactive
// recommender with the uncertainty prefilter off and on.
func AblationPrefilter(seed uint64) (*AblationPrefilterResult, error) {
	tr, err := workload.AlibabaTrace("c_29247", seed)
	if err != nil {
		return nil, err
	}
	peak := tr.Summarize().Max
	maxCores := int(peak*1.3) + 2
	opts := sim.DefaultOptions(int(peak)+1, maxCores)
	opts.DecisionEveryMinutes = 5
	opts.ResizeDelayMinutes = 1
	const season = 24 * 60

	run := func(maxUncertainty float64) (*sim.Result, error) {
		algo, err := core.New(core.DefaultConfig(maxCores))
		if err != nil {
			return nil, err
		}
		pro, err := core.NewProactive(algo, forecast.NewIntervalSeasonalNaive(season), 40, 60, season)
		if err != nil {
			return nil, err
		}
		pro.MaxRelativeUncertainty = maxUncertainty
		rec := &proactiveAdapter{pro: pro}
		return sim.Run(tr, rec, opts)
	}

	without, err := run(0) // prefilter disabled
	if err != nil {
		return nil, err
	}
	with, err := run(0.8)
	if err != nil {
		return nil, err
	}

	res := &AblationPrefilterResult{Without: without, With: with}
	tb := NewTable("Ablation — forecast-confidence prefilter on the outlier-spike trace (c_29247)",
		"prefilter", "sum slack K", "sum insufficient C", "scalings N")
	tb.AddRow("off (paper's current system)", without.SumSlack, without.SumInsufficient, without.NumScalings)
	tb.AddRow("on (§4.3 planned)", with.SumSlack, with.SumInsufficient, with.NumScalings)
	var b strings.Builder
	b.WriteString(tb.String())
	b.WriteString("the prefilter discards post-outlier forecasts whose intervals ballooned, trimming the projected slack\n")
	res.Report = b.String()
	return res, nil
}

// proactiveAdapter exposes a core.Proactive with prefilter settings as a
// recommend.Recommender (the standard adapter does not surface the
// prefilter knob).
type proactiveAdapter struct {
	pro     *core.Proactive
	history []float64
}

func (a *proactiveAdapter) Name() string { return "caasper-proactive-prefilter" }

func (a *proactiveAdapter) Observe(_ int, usage float64) {
	a.history = append(a.history, usage)
}

func (a *proactiveAdapter) Recommend(current int) int {
	d, _, err := a.pro.Decide(current, a.history)
	if err != nil {
		return current
	}
	return d.Target.CPUCores
}

func (a *proactiveAdapter) Reset() { a.history = a.history[:0] }
