package dbsim

import (
	"fmt"
	"time"

	"caasper/internal/billing"
	"caasper/internal/core"
	"caasper/internal/errs"
	"caasper/internal/faults"
	"caasper/internal/hooks"
	"caasper/internal/k8s"
	"caasper/internal/obs"
	"caasper/internal/recommend"
	"caasper/internal/workload"
)

// HarnessOptions configures an end-to-end live-system run: the cluster,
// the stateful set, the autoscaling loop cadence and the billing model.
type HarnessOptions struct {
	// RunHooks carries the telemetry/fault knobs shared with SimOptions
	// and FleetOptions. FaultSpec injects failed and stuck pod restarts
	// (operator), scheduling pressure (cluster) and metric sample loss
	// (metrics server). Events receives the scaler's decision and
	// suppressed-decision records, the operator's resize, rolling-update
	// and failover lifecycle, the injector's "fault.*" records and the
	// recommender's decision audits, all keyed on simulated seconds.
	// Metrics receives the loop's runtime counters.
	hooks.RunHooks
	// Cluster hosts the set; nil defaults to the paper's small cluster.
	Cluster *k8s.Cluster
	// Replicas is the stateful-set size (3 for Database A, 2 for
	// Database B in the paper).
	Replicas int
	// Resources holds the starting whole-core limit (Initial.CPUCores;
	// 0 defaults to Min.CPUCores) and the scaler's safety bounds
	// (Min/Max.CPUCores), the same spelling sim.Options and
	// fleet.TenantSpec use. The live harness scales only the CPU entries
	// today; Max.Replicas bounds RunHorizontal's scale-out when
	// HorizontalOptions.MaxReplicas is 0.
	Resources core.ResourceRange
	// MemGiBPerPod sizes pod memory (scheduling only; not billed).
	MemGiBPerPod float64
	// RestartSecondsPerPod is the per-pod rolling-update restart time
	// (≈300 s for Database A's strict HA flow, ≈120 s for Database B).
	RestartSecondsPerPod int64
	// InPlaceResize enables the K8s in-place pod resize feature (paper
	// §8 future work): resizes apply instantly with no restarts, no
	// dropped connections and no failovers.
	InPlaceResize bool
	// DecisionEverySeconds is the scaler cadence (600 s in the paper's
	// experiments).
	DecisionEverySeconds int64
	// BillingPeriod is the pay-as-you-go metering period.
	BillingPeriod time.Duration
	// DB configures the database service model.
	DB Options
}

// DatabaseAOptions returns the paper's Database A setup: 3 replicas with
// strict HA (5–15 minute resizes) on the small cluster.
func DatabaseAOptions(initial, maxCores int) HarnessOptions {
	return HarnessOptions{
		Replicas:             3,
		Resources:            core.CPURange(initial, 2, maxCores),
		MemGiBPerPod:         16,
		RestartSecondsPerPod: 300,
		DecisionEverySeconds: 600,
		BillingPeriod:        time.Hour,
		DB:                   DefaultOptions(),
	}
}

// DatabaseBOptions returns the paper's Database B setup: 2 read-only
// replicas with faster (3–5 minute) resizes.
func DatabaseBOptions(initial, maxCores int) HarnessOptions {
	o := DatabaseAOptions(initial, maxCores)
	o.Replicas = 2
	o.RestartSecondsPerPod = 120
	// "we set it up read-only across the 2 replicas" (§6.1): reads are
	// spread evenly, so half of them land on the secondary.
	o.DB.SecondaryReadFraction = 0.5
	return o
}

// LiveResult aggregates an end-to-end run: the database-level metrics of
// Tables 1–2 plus the autoscaling metrics the simulator also reports,
// enabling the §5 simulator-vs-live comparison.
type LiveResult struct {
	// DB is the transaction-level outcome.
	DB Stats
	// LimitsPerMinute is the set's whole-core limit each minute.
	LimitsPerMinute []float64
	// PrimaryUsagePerMinute is the primary's mean used cores per minute.
	PrimaryUsagePerMinute []float64
	// SumSlack / SumInsufficient are core-minutes of slack and clipped
	// demand on the primary (K and C in the paper's metric terms).
	SumSlack        float64
	SumInsufficient float64
	// NumScalings is the count of completed rolling updates.
	NumScalings int
	// Failovers is the count of primary hand-offs.
	Failovers int
	// DecisionsSuppressed counts decision ticks that landed during an
	// in-flight rolling update (recorded, never enacted).
	DecisionsSuppressed int
	// RestartRetries / ResizesAborted count the operator's backed-off
	// restart retries and abandoned rolling updates (0 without faults).
	RestartRetries int
	ResizesAborted int
	// FaultCounts tallies injected faults (zero without faults).
	FaultCounts faults.Counts
	// BilledCorePeriods is the pay-as-you-go cost at unit price.
	BilledCorePeriods float64
	// DecisionSeries is the scaler's recommendation at each tick.
	DecisionSeries []float64
}

// CostRatioVs returns cost(this)/cost(baseline).
func (r *LiveResult) CostRatioVs(baseline *LiveResult) float64 {
	if baseline.BilledCorePeriods == 0 {
		return 0
	}
	return r.BilledCorePeriods / baseline.BilledCorePeriods
}

// SlackReductionVs returns the fractional slack reduction vs a baseline.
func (r *LiveResult) SlackReductionVs(baseline *LiveResult) float64 {
	if baseline.SumSlack == 0 {
		return 0
	}
	return 1 - r.SumSlack/baseline.SumSlack
}

// RunLive executes the full Figure 1 loop for the schedule: load
// generator → database pods → cgroup capping → metrics server →
// recommender → scaler → operator rolling updates, with billing metered
// on the set's limits. One tick is one second.
func RunLive(sched *workload.LoadSchedule, rec recommend.Recommender, opts HarnessOptions) (*LiveResult, error) {
	if sched == nil {
		return nil, fmt.Errorf("dbsim: nil schedule: %w", errs.ErrInvalidConfig)
	}
	if rec == nil {
		return nil, fmt.Errorf("dbsim: nil recommender: %w", errs.ErrInvalidConfig)
	}
	// Nil injector without a fault spec: the fault-free fast path.
	h := opts.RunHooks
	inj := h.Injector()
	rr := opts.Resources.WithDefaults()
	cluster := opts.Cluster
	if cluster == nil {
		cluster = k8s.SmallCluster()
	}
	set, err := k8s.NewStatefulSet("db", opts.Replicas, rr.Initial.CPUCores, opts.MemGiBPerPod, cluster)
	if err != nil {
		return nil, err
	}
	op, err := k8s.NewOperator(set, cluster, opts.RestartSecondsPerPod)
	if err != nil {
		return nil, err
	}
	op.InPlace = opts.InPlaceResize
	ms := k8s.NewMetricsServer(60)
	scaler, err := k8s.NewScaler(rec, op, ms, opts.DecisionEverySeconds, rr.Min.CPUCores, rr.Max.CPUCores)
	if err != nil {
		return nil, err
	}
	op.Events, op.Stats = h.Events, h.Metrics
	scaler.Events, scaler.Stats = h.Events, h.Metrics
	if inj != nil {
		op.Faults = inj
		ms.Faults = inj
	}
	if obs.Enabled(h.Events) {
		if in, ok := rec.(recommend.Instrumentable); ok {
			in.SetEventSink(h.Events)
		}
	}
	db, err := New(set, sched, opts.DB)
	if err != nil {
		return nil, err
	}
	op.OnPodDown = db.OnPodDown

	period := opts.BillingPeriod
	if period == 0 {
		period = time.Hour
	}
	meter, err := billing.NewMeter(1, period, time.Second)
	if err != nil {
		return nil, err
	}

	seconds := int64(sched.Duration / time.Second)
	res := &LiveResult{}
	var minuteLimit, minuteUsage float64
	var lastThrottled, lastUsed float64

	for now := int64(0); now < seconds; now++ {
		op.Tick(now)
		db.Tick(now, ms)
		scaler.Tick(now)

		limit := float64(set.CPULimit())
		meter.Record(limit)

		// Primary-side slack/insufficiency accounting (core-seconds).
		if p := set.Primary(); p != nil {
			dThrottled := p.ThrottledCPUSeconds - lastThrottled
			dUsed := p.UsedCPUSeconds - lastUsed
			// A failover switches pods; re-baseline on role change by
			// detecting negative deltas.
			if dThrottled < 0 || dUsed < 0 {
				dThrottled, dUsed = 0, 0
			}
			lastThrottled = p.ThrottledCPUSeconds
			lastUsed = p.UsedCPUSeconds
			res.SumInsufficient += dThrottled / 60 // core-minutes
			if slack := limit - dUsed; slack > 0 {
				res.SumSlack += slack / 60
			}
			minuteUsage += dUsed
		}
		minuteLimit += limit

		if (now+1)%60 == 0 {
			res.LimitsPerMinute = append(res.LimitsPerMinute, minuteLimit/60)
			res.PrimaryUsagePerMinute = append(res.PrimaryUsagePerMinute, minuteUsage/60)
			minuteLimit, minuteUsage = 0, 0
		}
	}

	meter.Flush()
	res.DB = db.Stats()
	res.NumScalings = op.ResizeCount
	res.Failovers = op.FailoverCount
	res.DecisionsSuppressed = scaler.DecisionsSuppressed
	res.RestartRetries = op.RestartRetries
	res.ResizesAborted = op.ResizesAborted
	res.FaultCounts = inj.Counts()
	res.BilledCorePeriods = meter.BilledCorePeriods()
	res.DecisionSeries = append([]float64(nil), scaler.DecisionSeries...)
	if m := h.Metrics; m != nil {
		m.Counter("live.seconds").Add(seconds)
		m.Counter("live.resizes").Add(int64(op.ResizeCount))
		m.Counter("live.failovers").Add(int64(op.FailoverCount))
	}
	return res, nil
}
