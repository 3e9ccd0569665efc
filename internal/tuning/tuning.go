// Package tuning implements the paper's §5 parameter-tuning methodology:
// a random search over CaaSPER's reactive parameters (the "Require:"
// inputs of Algorithm 1) and the proactive window sizes of Figure 8,
// evaluated in the trace-driven simulator; the objective function
// G(α, p) = α·K(p) + C(p) of Eq. 5 balancing slack against throttling;
// the log-uniform α sampling of Eq. 6; and Pareto-frontier extraction over
// the (K, C) plane (Figure 12).
package tuning

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"caasper/internal/core"
	"caasper/internal/forecast"
	"caasper/internal/obs"
	"caasper/internal/parallel"
	"caasper/internal/pvp"
	"caasper/internal/recommend"
	"caasper/internal/sim"
	"caasper/internal/stats"
	"caasper/internal/trace"
)

// Params is one tunable parameter combination: the Algorithm 1 inputs
// (s_h, s_l, m_h, m_l, SF_h, SF_l, c_min) plus the window sizes of the
// proactive mode. HorizonMinutes == 0 selects the purely reactive
// algorithm.
type Params struct {
	SlopeHigh      float64
	SlopeLow       float64
	SlackHigh      float64
	SlackLow       float64
	MaxStepUp      int
	MaxStepDown    int
	MinCores       int
	QuantileP      float64
	WindowMinutes  int
	HorizonMinutes int
}

// Proactive reports whether the combination uses forecasting.
func (p Params) Proactive() bool { return p.HorizonMinutes > 0 }

// ToConfig converts the combination into a core.Config over the given SKU
// ladder.
func (p Params) ToConfig(maxCores int) core.Config {
	cfg := core.DefaultConfig(maxCores)
	cfg.SlopeHigh = p.SlopeHigh
	cfg.SlopeLow = p.SlopeLow
	cfg.SlackHigh = p.SlackHigh
	cfg.SlackLow = p.SlackLow
	cfg.MaxStepUp = p.MaxStepUp
	cfg.MaxStepDown = p.MaxStepDown
	cfg.MinCores = p.MinCores
	cfg.QuantileP = p.QuantileP
	cfg.SF = pvp.ScalingFactorParams{CMin: float64(p.MinCores), SkewWeight: 4}
	return cfg
}

// String renders the combination compactly.
func (p Params) String() string {
	mode := "reactive"
	if p.Proactive() {
		mode = fmt.Sprintf("proactive(+%dm)", p.HorizonMinutes)
	}
	return fmt.Sprintf("Params{sh=%.2f sl=%.2f mh=%.2f ml=%.2f SFh=%d SFl=%d cmin=%d q=%.2f w=%dm %s}",
		p.SlopeHigh, p.SlopeLow, p.SlackHigh, p.SlackLow,
		p.MaxStepUp, p.MaxStepDown, p.MinCores, p.QuantileP, p.WindowMinutes, mode)
}

// SearchSpace bounds the random search. All ranges are inclusive.
type SearchSpace struct {
	SlopeHigh      [2]float64
	SlopeLow       [2]float64
	SlackHigh      [2]float64
	SlackLow       [2]float64
	MaxStepUp      [2]int
	MaxStepDown    [2]int
	MinCores       [2]int
	QuantileP      [2]float64
	WindowMinutes  [2]int
	HorizonMinutes [2]int
	// ProactiveFraction is the share of sampled combinations that use
	// forecasting (the paper's Figure 12 mixes green reactive and blue
	// predictive runs).
	ProactiveFraction float64
}

// DefaultSearchSpace mirrors the spread of behaviours visible in the
// paper's Figure 12 scatter.
func DefaultSearchSpace() SearchSpace {
	return SearchSpace{
		SlopeHigh:         [2]float64{0.5, 5},
		SlopeLow:          [2]float64{0.01, 0.5},
		SlackHigh:         [2]float64{0.02, 0.30},
		SlackLow:          [2]float64{0.10, 0.60},
		MaxStepUp:         [2]int{2, 12},
		MaxStepDown:       [2]int{1, 4},
		MinCores:          [2]int{2, 4},
		QuantileP:         [2]float64{0.90, 1.00},
		WindowMinutes:     [2]int{10, 120},
		HorizonMinutes:    [2]int{10, 120},
		ProactiveFraction: 0.5,
	}
}

// Sample draws one combination uniformly from the space.
func (s SearchSpace) Sample(rng *stats.RNG) Params {
	intIn := func(b [2]int) int {
		if b[1] <= b[0] {
			return b[0]
		}
		return b[0] + rng.Intn(b[1]-b[0]+1)
	}
	p := Params{
		SlopeHigh:     rng.Range(s.SlopeHigh[0], s.SlopeHigh[1]),
		SlopeLow:      rng.Range(s.SlopeLow[0], s.SlopeLow[1]),
		SlackHigh:     rng.Range(s.SlackHigh[0], s.SlackHigh[1]),
		SlackLow:      rng.Range(s.SlackLow[0], s.SlackLow[1]),
		MaxStepUp:     intIn(s.MaxStepUp),
		MaxStepDown:   intIn(s.MaxStepDown),
		MinCores:      intIn(s.MinCores),
		QuantileP:     rng.Range(s.QuantileP[0], s.QuantileP[1]),
		WindowMinutes: intIn(s.WindowMinutes),
	}
	if rng.Float64() < s.ProactiveFraction {
		p.HorizonMinutes = intIn(s.HorizonMinutes)
	}
	// Maintain the SlopeHigh ≥ SlopeLow invariant by construction.
	if p.SlopeLow > p.SlopeHigh {
		p.SlopeLow, p.SlopeHigh = p.SlopeHigh, p.SlopeLow
	}
	return p
}

// Evaluation is one simulated run of one combination.
type Evaluation struct {
	// Params is the combination evaluated.
	Params Params
	// K is the total slack, C the total insufficient CPU, N the number
	// of scalings (the §5 metrics).
	K, C float64
	N    int
	// ThrottledPct is the throttled-observation share.
	ThrottledPct float64
	// Cost is the billed core-periods.
	Cost float64
}

// SearchOptions configures RandomSearch.
type SearchOptions struct {
	// Samples is the number of combinations (the paper uses 5000).
	Samples int
	// Seed drives the deterministic sampler.
	Seed uint64
	// Space bounds the sampling; zero value uses DefaultSearchSpace.
	Space *SearchSpace
	// Sim configures the simulator; zero value uses sim.DefaultOptions
	// sized from the trace.
	Sim *sim.Options
	// SeasonMinutes is the seasonal-naive period for proactive
	// combinations (1440 for daily workloads).
	SeasonMinutes int
	// Workers bounds the evaluation fan-out; values below 1 select
	// runtime.GOMAXPROCS(0). The result is identical for every worker
	// count: combinations are sampled sequentially from the single RNG
	// stream before any evaluation starts, and evaluations land in
	// index-addressed slots.
	Workers int
	// Events, when non-nil and enabled, receives one "tuning.skip" event
	// per rejected combination, emitted in sampling order during the
	// sequential compaction phase — deterministic for every worker count.
	Events obs.Sink
	// Metrics, when non-nil, receives the search's runtime counters
	// (tuning.sampled / tuning.evaluated / tuning.skipped).
	Metrics *obs.Registry
}

// SearchReport summarises a RandomSearch run: how many combinations were
// drawn, how many evaluated cleanly, and how many were skipped as invalid.
// A large Skipped count means the SearchSpace is mis-bounded (its edges
// produce configurations Config.Validate rejects) and the effective sample
// is silently thinner than requested — exactly the failure mode this
// report exists to surface.
type SearchReport struct {
	// Sampled is the number of combinations drawn (== SearchOptions.Samples).
	Sampled int
	// Evaluated is the number of combinations simulated successfully.
	Evaluated int
	// Skipped is Sampled − Evaluated.
	Skipped int
	// FirstSkip describes the first skipped combination (by sampling
	// order) — "" when nothing was skipped.
	FirstSkip string
	// SkipReasons tallies skips by validation message, so a mis-bounded
	// space shows *which* edge is wrong, not just how often.
	SkipReasons map[string]int

	// Evaluation-pool runtime stats (wall-clock; not deterministic).
	// PoolTasks is the number of evaluations the pool executed,
	// PoolWorkers its size, PoolMaxQueue the deepest backlog observed,
	// PoolUtilization the busy÷capacity fraction in [0, 1].
	PoolTasks       int
	PoolWorkers     int
	PoolMaxQueue    int
	PoolUtilization float64
	// EvalLatencyP50 / EvalLatencyP99 are per-evaluation wall-latency
	// quantiles in milliseconds.
	EvalLatencyP50 float64
	EvalLatencyP99 float64
}

// String renders the report compactly.
func (r SearchReport) String() string {
	if r.Skipped == 0 {
		return fmt.Sprintf("SearchReport{%d/%d evaluated}", r.Evaluated, r.Sampled)
	}
	return fmt.Sprintf("SearchReport{%d/%d evaluated, %d skipped; first skip: %s}",
		r.Evaluated, r.Sampled, r.Skipped, r.FirstSkip)
}

// PoolSummary renders the evaluation pool's runtime behaviour on one line.
func (r SearchReport) PoolSummary() string {
	return fmt.Sprintf("pool: %d tasks on %d workers, max queue %d, utilization %.0f%%, eval latency p50 %.1fms p99 %.1fms",
		r.PoolTasks, r.PoolWorkers, r.PoolMaxQueue, 100*r.PoolUtilization,
		r.EvalLatencyP50, r.EvalLatencyP99)
}

// RandomSearch evaluates Samples random combinations on the trace. The
// returned slice preserves sampling order (deterministic per seed and
// worker count). Invalid combinations at the space edges are skipped; use
// RandomSearchReport to see how many.
func RandomSearch(tr *trace.Trace, opts SearchOptions) ([]Evaluation, error) {
	evals, _, err := RandomSearchReport(tr, opts)
	return evals, err
}

// RandomSearchReport is RandomSearch plus the skip accounting. The
// evaluations are computed across a bounded worker pool (opts.Workers):
// every combination is pre-sampled sequentially from the seeded RNG — so
// the sampled set is bit-identical to the historical sequential
// implementation — and evaluated into its own result slot.
func RandomSearchReport(tr *trace.Trace, opts SearchOptions) ([]Evaluation, SearchReport, error) {
	var report SearchReport
	if tr == nil || tr.Len() == 0 {
		return nil, report, errors.New("tuning: empty trace")
	}
	if opts.Samples < 1 {
		return nil, report, errors.New("tuning: Samples must be ≥ 1")
	}
	space := DefaultSearchSpace()
	if opts.Space != nil {
		space = *opts.Space
	}
	maxCores := maxCoresForTrace(tr)
	simOpts := sim.DefaultOptions(maxCores, maxCores)
	if opts.Sim != nil {
		simOpts = *opts.Sim
	}
	season := opts.SeasonMinutes
	if season <= 0 {
		season = 1440
	}

	// Phase 1 — sequential sampling: the single RNG stream is consumed in
	// sampling order only, keeping the drawn set independent of the
	// evaluation schedule.
	rng := stats.NewRNG(opts.Seed)
	params := make([]Params, opts.Samples)
	for i := range params {
		params[i] = space.Sample(rng)
	}

	// Phase 2 — parallel evaluation into index-addressed slots, with the
	// pool's runtime behaviour (latency quantiles, queue depth,
	// utilization) captured for the report.
	type outcome struct {
		ev  Evaluation
		err error
	}
	outcomes := make([]outcome, len(params))
	poolStats := parallel.NewStats()
	_ = parallel.ForEachStats(context.Background(), len(params), opts.Workers, poolStats, func(i int) error {
		ev, err := Evaluate(tr, params[i], simOpts, season)
		outcomes[i] = outcome{ev: ev, err: err}
		return nil // individual invalid combinations are skips, not failures
	})

	// Phase 3 — sequential compaction in sampling order. Skip events are
	// emitted here, not from the workers, so the stream is deterministic
	// for every worker count.
	report.Sampled = len(params)
	emitSkips := obs.Enabled(opts.Events)
	evals := make([]Evaluation, 0, len(params))
	for i, o := range outcomes {
		if o.err != nil {
			report.Skipped++
			if report.FirstSkip == "" {
				report.FirstSkip = fmt.Sprintf("sample %d %s: %v", i, params[i], o.err)
			}
			if report.SkipReasons == nil {
				report.SkipReasons = make(map[string]int)
			}
			report.SkipReasons[o.err.Error()]++
			if emitSkips {
				opts.Events.Emit(obs.Event{T: int64(i), Type: "tuning.skip", Fields: []obs.Field{
					obs.I("sample", int64(i)),
					obs.S("params", params[i].String()),
					obs.S("reason", o.err.Error()),
				}})
			}
			continue
		}
		evals = append(evals, o.ev)
	}
	report.Evaluated = len(evals)
	report.PoolTasks = int(poolStats.Tasks())
	report.PoolWorkers = poolStats.Workers()
	report.PoolMaxQueue = int(poolStats.MaxQueueDepth())
	report.PoolUtilization = poolStats.Utilization()
	report.EvalLatencyP50 = poolStats.Latency().Quantile(0.5) / 1e6
	report.EvalLatencyP99 = poolStats.Latency().Quantile(0.99) / 1e6
	if m := opts.Metrics; m != nil {
		m.Counter("tuning.sampled").Add(int64(report.Sampled))
		m.Counter("tuning.evaluated").Add(int64(report.Evaluated))
		m.Counter("tuning.skipped").Add(int64(report.Skipped))
		m.Gauge("tuning.pool_utilization").Set(report.PoolUtilization)
	}
	if len(evals) == 0 {
		return nil, report, fmt.Errorf("tuning: no valid combinations (%d/%d skipped, first: %s)",
			report.Skipped, report.Sampled, report.FirstSkip)
	}
	return evals, report, nil
}

// NewRecommender builds the CaaSPER recommender a combination describes:
// the proactive adapter with a seasonal-naive forecaster when a horizon is
// set, the reactive adapter otherwise.
func NewRecommender(p Params, maxCores, seasonMinutes int) (recommend.Recommender, error) {
	cfg := p.ToConfig(maxCores)
	if p.Proactive() {
		return recommend.NewCaaSPERProactive(
			cfg,
			&forecast.SeasonalNaive{Season: seasonMinutes},
			p.WindowMinutes, p.HorizonMinutes, seasonMinutes)
	}
	return recommend.NewCaaSPERReactive(cfg, p.WindowMinutes)
}

// Evaluate runs one combination through the simulator.
func Evaluate(tr *trace.Trace, p Params, simOpts sim.Options, seasonMinutes int) (Evaluation, error) {
	rec, err := NewRecommender(p, simOpts.Resources.Max.CPUCores, seasonMinutes)
	if err != nil {
		return Evaluation{}, err
	}
	res, err := sim.Run(tr, rec, simOpts)
	if err != nil {
		return Evaluation{}, err
	}
	return Evaluation{
		Params:       p,
		K:            res.SumSlack,
		C:            res.SumInsufficient,
		N:            res.NumScalings,
		ThrottledPct: res.ThrottledPct,
		Cost:         res.BilledCorePeriods,
	}, nil
}

func maxCoresForTrace(tr *trace.Trace) int {
	m := int(tr.Peak()*1.5) + 2
	if m < 4 {
		m = 4
	}
	return m
}

// Objective computes G(α, p) = α·K + C (Eq. 5).
func Objective(alpha float64, e Evaluation) float64 {
	return alpha*e.K + e.C
}

// BestForAlpha returns the evaluation minimising G(α, ·). Ties break
// toward fewer scalings, then lower cost (R3's frequency penalty).
func BestForAlpha(alpha float64, evals []Evaluation) (Evaluation, error) {
	if len(evals) == 0 {
		return Evaluation{}, errors.New("tuning: no evaluations")
	}
	best := evals[0]
	bestG := Objective(alpha, best)
	for _, e := range evals[1:] {
		g := Objective(alpha, e)
		switch {
		case g < bestG:
			best, bestG = e, g
		case g == bestG && (e.N < best.N || (e.N == best.N && e.Cost < best.Cost)):
			best = e
		}
	}
	return best, nil
}

// SampleAlphas draws n coefficients from the log-uniform distribution of
// Eq. 6. The paper samples ln(D) ~ U(−100, 100); those extremes degenerate
// to pure-K or pure-C optimisation, so callers typically pass a narrower
// range such as (−5, 5). The result is sorted ascending.
func SampleAlphas(n int, lnLo, lnHi float64, seed uint64) []float64 {
	rng := stats.NewRNG(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.LogUniform(lnLo, lnHi)
	}
	sort.Float64s(out)
	return out
}

// OptimalSet implements Eq. 6: the set of G-minimising combinations over
// all sampled α values, deduplicated, ordered by ascending α of first
// appearance.
func OptimalSet(evals []Evaluation, alphas []float64) ([]Evaluation, error) {
	if len(alphas) == 0 {
		return nil, errors.New("tuning: no alphas")
	}
	seen := map[Params]bool{}
	var out []Evaluation
	for _, a := range alphas {
		best, err := BestForAlpha(a, evals)
		if err != nil {
			return nil, err
		}
		if !seen[best.Params] {
			seen[best.Params] = true
			out = append(out, best)
		}
	}
	return out, nil
}

// ParetoFrontier returns the evaluations not dominated in the (K, C)
// plane: no other evaluation is at least as good on both metrics and
// strictly better on one. The result is sorted by ascending K.
func ParetoFrontier(evals []Evaluation) []Evaluation {
	if len(evals) == 0 {
		return nil
	}
	sorted := append([]Evaluation(nil), evals...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].K != sorted[j].K {
			return sorted[i].K < sorted[j].K
		}
		return sorted[i].C < sorted[j].C
	})
	var frontier []Evaluation
	bestC := 0.0
	first := true
	for _, e := range sorted {
		if first || e.C < bestC {
			frontier = append(frontier, e)
			bestC = e.C
			first = false
		}
	}
	return frontier
}
