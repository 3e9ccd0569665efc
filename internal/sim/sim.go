// Package sim implements the paper's §5 trace-driven autoscaling
// simulator: it replays a CPU *demand* trace against a pluggable
// recommender, models the resize latency of rolling updates, distinguishes
// demand from the capped usage the recommender is allowed to observe, and
// captures the three tuning metrics of §5 — total slack K(·), total
// insufficient CPU C(·) and number of scalings N(·) — plus the billing
// cost under the pay-as-you-go model.
//
// The central modelling decision (DESIGN.md §4): recommenders never see
// demand. They see usage = min(demand, limits), exactly what a metrics
// server reports for a cgroup-capped container. Throttling-blind policies
// therefore under-scale on capped history, which is the §3.3 failure mode
// the paper builds CaaSPER to escape.
package sim

import (
	"fmt"
	"math"
	"time"

	"caasper/internal/billing"
	"caasper/internal/core"
	"caasper/internal/errs"
	"caasper/internal/faults"
	"caasper/internal/hooks"
	"caasper/internal/obs"
	"caasper/internal/recommend"
	"caasper/internal/stats"
	"caasper/internal/trace"
)

// Options configures a simulation run.
type Options struct {
	// RunHooks carries the telemetry/fault knobs shared with LiveOptions
	// and FleetOptions. In the simulator every fault time in FaultSpec is
	// in minutes, its tick: metrics-gap makes the recommender observe the
	// previous minute's usage (a lost scrape; ground-truth accounting is
	// unaffected), restart-stuck extends an in-flight resize,
	// restart-fail rolls an in-flight resize back at enactment time
	// ("sim.resize-aborted"), and sched-pressure transiently lowers the
	// reachable core ceiling. Events receives "sim.resize" per enacted
	// resize, "sim.throttle" per throttled minute, "sim.slack" per
	// decision tick, the injector's "fault.*" records and the
	// recommender's "core.decision" audits, keyed on the simulated
	// minute in replay order, so the stream is byte-identical across runs
	// and worker counts. Metrics receives end-of-run counters.
	hooks.RunHooks
	// Resources holds the run's initial allocation and the scaler's
	// safety clamps (Figure 1, step 5 performs "health and resource
	// safety checks"). Run reads the CPU entries: Initial.CPUCores is the
	// allocation at trace start (0 defaults to Min.CPUCores, and Run
	// clamps it into [Min, Max]). Managing RAM or disk (non-zero
	// Max.RAMGB or Max.DiskGB) is meaningful only to RunVector, which
	// rejects a managed replica count.
	Resources core.ResourceRange
	// RAMTrace / DiskTrace are the per-minute RAM demand and disk usage
	// series in GB for RunVector; nil derives them deterministically
	// from the CPU trace (workload.DeriveRAM / DeriveDisk).
	RAMTrace, DiskTrace *trace.Trace
	// DecisionEveryMinutes is the recommender polling cadence.
	DecisionEveryMinutes int
	// ResizeDelayMinutes models the rolling-update latency: a decision
	// made at minute t takes effect at t+delay (5–15 min for Database A,
	// 3–5 min for Database B, §6.1). While a resize is in flight no new
	// decision is taken, mirroring the operator's serialization.
	ResizeDelayMinutes int
	// BillingPeriod is the pay-as-you-go metering period (default 1h).
	// Cost is reported at unit price (Result.BilledCorePeriods).
	BillingPeriod time.Duration
	// WarmupMinutes delays the first decision, letting window-based
	// recommenders accumulate signal. Defaults to DecisionEveryMinutes.
	WarmupMinutes int
	// Workers bounds the fan-out of multi-run drivers (RunMatrix and the
	// CLIs); values below 1 select runtime.GOMAXPROCS(0). A single Run is
	// always one sequential replay — the parallelism is across runs, so
	// results stay deterministic for every worker count.
	Workers int
}

// DefaultOptions returns the configuration used across the experiments:
// 10-minute decisions, 10-minute resizes, hourly billing.
func DefaultOptions(initial, maxCores int) Options {
	return Options{
		Resources:            core.CPURange(initial, 2, maxCores),
		DecisionEveryMinutes: 10,
		ResizeDelayMinutes:   10,
		BillingPeriod:        time.Hour,
	}
}

// Validate checks option invariants. Every failure wraps
// errs.ErrInvalidConfig, so callers can branch with errors.Is.
func (o Options) Validate() error {
	rr := o.Resources.WithDefaults()
	if rr.Initial.CPUCores < 1 {
		return fmt.Errorf("sim: initial cores must be ≥ 1: %w", errs.ErrInvalidConfig)
	}
	if rr.Min.CPUCores < 1 || rr.Max.CPUCores < rr.Min.CPUCores {
		return fmt.Errorf("sim: bad core bounds [%d, %d]: %w", rr.Min.CPUCores, rr.Max.CPUCores, errs.ErrInvalidConfig)
	}
	if o.DecisionEveryMinutes < 1 {
		return fmt.Errorf("sim: DecisionEveryMinutes must be ≥ 1: %w", errs.ErrInvalidConfig)
	}
	if o.ResizeDelayMinutes < 0 {
		return fmt.Errorf("sim: ResizeDelayMinutes must be ≥ 0: %w", errs.ErrInvalidConfig)
	}
	if o.BillingPeriod <= 0 {
		return fmt.Errorf("sim: BillingPeriod must be positive: %w", errs.ErrInvalidConfig)
	}
	return nil
}

// DecisionRecord captures one scaling decision for audit and for the §5
// simulator-correctness t-tests.
type DecisionRecord struct {
	// Minute is when the decision was taken.
	Minute int
	// From and To are the allocations before and after.
	From, To int
	// EffectiveAt is when the new allocation took effect.
	EffectiveAt int
	// Explanation carries the recommender's prose account when it
	// implements recommend.Explainer (R6); empty otherwise.
	Explanation string
}

// Result aggregates a simulation run.
type Result struct {
	// TraceName and Recommender identify the run.
	TraceName   string
	Recommender string

	// Minutes is the number of simulated one-minute steps.
	Minutes int

	// Limits, Usage and Demand are the per-minute series (cores).
	Limits []float64
	Usage  []float64
	Demand []float64

	// SumSlack is K(·): Σ max(0, limits − usage).
	SumSlack float64
	// SumInsufficient is C(·): Σ max(0, demand − limits).
	SumInsufficient float64
	// NumScalings is N(·): the number of enacted resizes.
	NumScalings int

	// ThrottledMinutes counts minutes with any insufficient CPU;
	// ThrottledPct is their share of all minutes (Table 3's
	// "Throttling Obvsns. %").
	ThrottledMinutes int
	ThrottledPct     float64

	// AvgSlack and AvgInsufficient are per-minute means (Table 3).
	AvgSlack        float64
	AvgInsufficient float64

	// BilledCorePeriods is the pay-as-you-go cost at unit price.
	BilledCorePeriods float64

	// Decisions records every enacted scaling.
	Decisions []DecisionRecord

	// DecisionSeries is the recommended target at every decision tick
	// (including holds) — the series the §5 t-test compares.
	DecisionSeries []float64

	// AbortedScalings counts resizes that failed at enactment (injected
	// restart failures; 0 without faults).
	AbortedScalings int
	// FaultCounts tallies injected faults (zero without faults).
	FaultCounts faults.Counts
}

// ThroughputProxy estimates the fraction of demanded work the allocation
// served: 1 − C/Σdemand. It is the simulator's stand-in for relative
// throughput (the paper's OpenShift run throttled throughput to ~27%).
func (r *Result) ThroughputProxy() float64 {
	total := stats.Sum(r.Demand)
	if total == 0 {
		return 1
	}
	p := 1 - r.SumInsufficient/total
	if p < 0 {
		return 0
	}
	return p
}

// SlackReductionVs returns the fractional slack reduction of this run
// against a baseline run (e.g. 0.783 for the paper's "reduced it by
// 78.3%"). A zero-slack baseline yields 0.
func (r *Result) SlackReductionVs(baseline *Result) float64 {
	if baseline.SumSlack == 0 {
		return 0
	}
	return 1 - r.SumSlack/baseline.SumSlack
}

// CostRatioVs returns cost(this)/cost(baseline), the paper's price form.
func (r *Result) CostRatioVs(baseline *Result) float64 {
	if baseline.BilledCorePeriods == 0 {
		return 0
	}
	return r.BilledCorePeriods / baseline.BilledCorePeriods
}

// String renders the headline metrics.
func (r *Result) String() string {
	return fmt.Sprintf("Result{%s/%s: K=%.0f C=%.1f N=%d throttled=%.2f%% cost=%.0f}",
		r.TraceName, r.Recommender, r.SumSlack, r.SumInsufficient, r.NumScalings,
		r.ThrottledPct*100, r.BilledCorePeriods)
}

// Run replays the demand trace through the recommender. The trace must be
// on a one-minute grid (call Trace.Resample first otherwise).
func Run(tr *trace.Trace, rec recommend.Recommender, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if tr == nil || tr.Len() == 0 {
		return nil, fmt.Errorf("sim: empty trace: %w", errs.ErrEmptyTrace)
	}
	if tr.Interval != time.Minute {
		// A trace on the wrong grid is a configuration mistake (the caller
		// forgot to resample), not an absence of data — wrap the sentinel
		// that actually describes it.
		return nil, fmt.Errorf("sim: trace interval %v, want 1m (resample first): %w", tr.Interval, errs.ErrInvalidConfig)
	}
	h := opts.RunHooks
	rr := opts.Resources.WithDefaults()
	minCores, maxCores := rr.Min.CPUCores, rr.Max.CPUCores

	meter, err := billing.NewMeter(opts.BillingPeriod, time.Minute)
	if err != nil {
		return nil, err
	}
	led := billing.Ledger{Meter: *meter} // K, C, throttled minutes, bill

	warmup := opts.WarmupMinutes
	if warmup <= 0 {
		warmup = opts.DecisionEveryMinutes
	}

	n := tr.Len()
	// Decision ticks are spaced DecisionEveryMinutes apart, so the
	// decision series can be sized exactly once instead of growing by
	// repeated append in the minute loop.
	ticks := n/opts.DecisionEveryMinutes + 1
	res := &Result{
		TraceName:      tr.Name,
		Recommender:    rec.Name(),
		Minutes:        n,
		Limits:         make([]float64, n),
		Usage:          make([]float64, n),
		Demand:         make([]float64, n),
		DecisionSeries: make([]float64, 0, ticks),
		Decisions:      make([]DecisionRecord, 0, ticks),
	}

	limit := stats.ClampInt(rr.Initial.CPUCores, minCores, maxCores)
	pendingTarget := -1
	pendingAt := -1

	// Defensive copy + sanitisation, written straight into the result's
	// demand series (it is rewritten sample-for-sample below anyway):
	// real metric pipelines emit NaN/Inf gaps around restarts; the
	// accounting must never propagate them into K/C or the billing meter.
	demandSeries := res.Demand
	copy(demandSeries, tr.Values)
	for i, v := range demandSeries {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			demandSeries[i] = 0
		}
	}

	// Event emission is guarded once: with the sink disabled (the
	// default) the replay loop pays one branch per minute and allocates
	// nothing for telemetry.
	events := obs.Enabled(h.Events)
	// evf is the reusable event-field buffer: Sink.Emit lets emitters
	// reclaim the backing once it returns (retaining sinks copy), so the
	// per-event composite literals below stop costing one allocation each.
	var evf []obs.Field
	if events {
		if in, ok := rec.(recommend.Instrumentable); ok {
			in.SetEventSink(h.Events)
		}
	}

	// The fault injector is built per run so its events land in this
	// run's sink (RunMatrix gives each cell its own buffered sink) and
	// its counts belong to this result. Nil without a spec: every hook
	// below is then a nil-receiver no-op. The simulated "pod" is the
	// primary, named like the live set's first replica.
	inj := h.Injector()
	const simPod = "db-0"

	var pendingExplanation string
	enact := func(t int) {
		if pendingTarget != limit {
			res.Decisions = append(res.Decisions, DecisionRecord{
				Minute:      pendingAt - opts.ResizeDelayMinutes,
				From:        limit,
				To:          pendingTarget,
				EffectiveAt: t,
				Explanation: pendingExplanation,
			})
			res.NumScalings++
			if events {
				evf = append(evf[:0],
					obs.I("from", int64(limit)),
					obs.I("to", int64(pendingTarget)),
					obs.I("decided", int64(pendingAt-opts.ResizeDelayMinutes)),
					obs.I("effective", int64(t)),
				)
				h.Events.Emit(obs.Event{T: int64(t), Type: "sim.resize", Fields: evf})
			}
			limit = pendingTarget
		}
		pendingTarget, pendingAt = -1, -1
		pendingExplanation = ""
	}

	// slackSinceTick accumulates slack between decision ticks for the
	// per-tick "sim.slack" event; lastTick is the previous tick's minute.
	var slackSinceTick float64
	lastTick := 0
	// lastObserved carries the previous minute's observation forward over
	// injected metric gaps.
	var lastObserved float64

	for t := 0; t < n; t++ {
		// Enact a completed resize before metering the minute.
		if pendingTarget >= 0 && t >= pendingAt {
			if inj.RestartFails(simPod, int64(t)) {
				// The rolling update failed at enactment and rolled
				// back: the limit stays, the decision is abandoned.
				res.AbortedScalings++
				if events {
					evf = append(evf[:0],
						obs.I("from", int64(limit)),
						obs.I("to", int64(pendingTarget)),
					)
					h.Events.Emit(obs.Event{T: int64(t), Type: "sim.resize-aborted", Fields: evf})
				}
				pendingTarget, pendingAt = -1, -1
				pendingExplanation = ""
			} else {
				enact(t)
			}
		}

		demand := demandSeries[t] // == res.Demand[t], sanitised above
		capf := float64(limit)
		usage := math.Min(demand, capf)

		res.Usage[t] = usage
		res.Limits[t] = capf
		slackSinceTick += capf - usage
		if insuff := led.Add(capf, demand); insuff > 0 && events {
			evf = append(evf[:0],
				obs.F("demand", demand),
				obs.F("limit", capf),
				obs.F("insufficient", insuff),
			)
			h.Events.Emit(obs.Event{T: int64(t), Type: "sim.throttle", Fields: evf})
		}

		// The recommender sees the capped usage — unless the scrape for
		// this minute was lost, in which case the pipeline reports the
		// previous sample (ground-truth accounting above is unaffected).
		observed := usage
		if inj.DropSample(simPod, int64(t)) {
			observed = lastObserved
		} else {
			lastObserved = usage
		}
		rec.Observe(t, observed)

		// Decision tick: only when idle (no resize in flight).
		if t >= warmup && t%opts.DecisionEveryMinutes == 0 && pendingTarget < 0 {
			if events {
				evf = append(evf[:0],
					obs.F("limit", capf),
					obs.F("slack", slackSinceTick),
					obs.I("window", int64(t-lastTick)),
				)
				h.Events.Emit(obs.Event{T: int64(t), Type: "sim.slack", Fields: evf})
			}
			slackSinceTick, lastTick = 0, t
			target := stats.ClampInt(rec.Recommend(limit), minCores, maxCores)
			// Transient scheduling pressure lowers the reachable core
			// ceiling: a scale-up beyond it would not place right now.
			if pc := inj.PressureCores(int64(t)); pc > 0 {
				ceiling := maxCores - int(pc)
				if ceiling < minCores {
					ceiling = minCores
				}
				if target > ceiling {
					target = ceiling
				}
			}
			res.DecisionSeries = append(res.DecisionSeries, float64(target))
			if target != limit {
				pendingTarget = target
				pendingAt = t + opts.ResizeDelayMinutes
				// A stuck restart stretches the rolling update: the new
				// limit lands late (per-pod retries modeled in aggregate).
				// Instant (in-place) resizes restart nothing to get stuck.
				if opts.ResizeDelayMinutes > 0 {
					if d := inj.RestartStuck(simPod, int64(t)); d > 0 {
						pendingAt += int(d)
					}
				}
				if ex, ok := rec.(recommend.Explainer); ok {
					pendingExplanation = ex.Explain()
				}
				if opts.ResizeDelayMinutes == 0 {
					// Instant (in-place-style) resizes take effect at
					// the decision tick itself.
					enact(t)
				}
			}
		}
	}

	res.SumSlack, res.SumInsufficient, res.ThrottledMinutes, res.BilledCorePeriods = led.Close()
	res.FaultCounts = inj.Counts()
	res.ThrottledPct = float64(res.ThrottledMinutes) / float64(n)
	res.AvgSlack = res.SumSlack / float64(n)
	res.AvgInsufficient = res.SumInsufficient / float64(n)
	if m := h.Metrics; m != nil {
		m.Counter("sim.runs").Inc()
		m.Counter("sim.minutes").Add(int64(n))
		m.Counter("sim.decisions").Add(int64(len(res.DecisionSeries)))
		m.Counter("sim.resizes").Add(int64(res.NumScalings))
		m.Counter("sim.throttled_minutes").Add(int64(res.ThrottledMinutes))
	}
	return res, nil
}
