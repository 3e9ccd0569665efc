package dbsim

import (
	"fmt"
	"time"

	"caasper/internal/errs"
	"caasper/internal/k8s"
	"caasper/internal/workload"
)

// This file implements the horizontal-autoscaling contrast of the paper's
// motivation (§1, §3.1): a replica-count autoscaler in the style of the
// Kubernetes HPA. For stateful single-primary databases it is structurally
// handicapped — new replicas need a size-of-data copy before they can
// serve, and they can never serve write-transaction load — which is
// precisely why the paper builds a *vertical* autoscaler. The
// MotivationHorizontal experiment replays a write-heavy workload through
// this scaler and through CaaSPER to reproduce that argument
// quantitatively.

// HorizontalOptions configures the HPA-style run.
type HorizontalOptions struct {
	// Harness carries the shared cluster/database setup. The scaler
	// never changes CPU per pod: Harness.Resources.Initial.CPUCores is
	// the fixed vertical size of every replica.
	Harness HarnessOptions
	// MaxReplicas bounds the scale-out; 0 means unbounded (the cluster's
	// capacity is then the only limit). When 0 and the harness carries a
	// resource vector, Harness.Resources.Max.Replicas applies instead.
	MaxReplicas int
	// SeedSeconds is the size-of-data-copy time for a new replica
	// before it can serve (§3.1).
	SeedSeconds int64
	// UtilizationHigh triggers a scale-out when the primary's mean
	// utilization over a decision window exceeds it (the HPA's target
	// metric, defaulting to the classic 80%).
	UtilizationHigh float64
	// DecisionEverySeconds is the scaler cadence.
	DecisionEverySeconds int64
}

// DefaultHorizontalOptions mirrors a standard HPA setup on Database A.
func DefaultHorizontalOptions(cpuPerPod, maxReplicas int) HorizontalOptions {
	return HorizontalOptions{
		Harness:              DatabaseAOptions(cpuPerPod, cpuPerPod),
		MaxReplicas:          maxReplicas,
		SeedSeconds:          900, // 15-minute data copy
		UtilizationHigh:      0.8,
		DecisionEverySeconds: 600,
	}
}

// RunHorizontal executes the load against a stateful set managed by the
// HPA-style replica scaler: pod CPU stays fixed, replicas are added (up
// to MaxReplicas) whenever the primary runs hot, and each new replica
// seeds for SeedSeconds before serving reads. Billing meters the sum of
// all replicas' limits — horizontal growth is not free.
func RunHorizontal(sched *workload.LoadSchedule, opts HorizontalOptions) (*LiveResult, error) {
	if sched == nil {
		return nil, fmt.Errorf("dbsim: nil schedule: %w", errs.ErrInvalidConfig)
	}
	rr := opts.Harness.Resources.WithDefaults()
	maxReplicas := opts.MaxReplicas
	if maxReplicas == 0 {
		// 0 is unbounded, not "never scale": the old strict comparison
		// below silently froze the set at its initial size. A vector
		// bound on the harness supplies the ceiling when present.
		maxReplicas = rr.Max.Replicas
	}
	if maxReplicas != 0 && maxReplicas < opts.Harness.Replicas {
		return nil, fmt.Errorf("dbsim: MaxReplicas below initial replicas: %w", errs.ErrInvalidConfig)
	}
	if opts.UtilizationHigh <= 0 || opts.UtilizationHigh > 1 {
		return nil, fmt.Errorf("dbsim: UtilizationHigh out of (0,1]: %w", errs.ErrInvalidConfig)
	}
	if opts.DecisionEverySeconds < 1 || opts.SeedSeconds < 0 {
		return nil, fmt.Errorf("dbsim: bad cadences: %w", errs.ErrInvalidConfig)
	}
	h := opts.Harness
	cluster := h.Cluster
	if cluster == nil {
		cluster = k8s.SmallCluster()
	}
	set, err := k8s.NewStatefulSet("db", h.Replicas, rr.Initial.CPUCores, h.MemGiBPerPod, cluster)
	if err != nil {
		return nil, err
	}
	db, err := New(set, sched, h.DB)
	if err != nil {
		return nil, err
	}

	res := &LiveResult{}
	tl, err := newTally(res, h.BillingPeriod)
	if err != nil {
		return nil, err
	}

	seconds := int64(sched.Duration / time.Second)
	var windowUsed float64 // primary cpu-seconds since last decision
	nextDecision := opts.DecisionEverySeconds
	var seeding *k8s.Pod

	for now := int64(0); now < seconds; now++ {
		// Complete a seeding replica.
		if seeding != nil && now >= seeding.RestartingUntil {
			seeding.Phase = k8s.PhaseRunning
			db.TrackReplica(seeding)
			seeding = nil
			res.NumScalings++
		}

		db.Tick(now, nil)

		// Billing: the sum of every replica's limits (each pod is a
		// billed resource).
		var totalLimit float64
		for _, p := range set.Pods {
			totalLimit += p.CPULimit()
		}
		windowUsed += tl.second(now, totalLimit, set.Primary())

		// HPA decision: scale out when the primary ran hot on average.
		if now >= nextDecision {
			primary := set.Primary()
			if primary != nil && seeding == nil && (maxReplicas == 0 || len(set.Pods) < maxReplicas) {
				util := windowUsed / (float64(opts.DecisionEverySeconds) * primary.CPULimit())
				res.DecisionSeries = append(res.DecisionSeries, util)
				if util >= opts.UtilizationHigh {
					p, err := set.AddReplica(cluster, rr.Initial.CPUCores, now+opts.SeedSeconds)
					if err == nil {
						seeding = p
					}
					// A full cluster simply stops the scale-out — the
					// HPA's pending-pod situation.
				}
			}
			windowUsed = 0
			nextDecision = now + opts.DecisionEverySeconds
		}
	}

	tl.close()
	res.DB = db.Stats()
	return res, nil
}
