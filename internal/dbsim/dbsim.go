// Package dbsim is the transaction-level database simulator behind the
// paper's live-system evaluation (§6.2): a replicated RDBMS ("Database A"
// / "Database B") running inside the internal/k8s substrate, driven by a
// BenchBase-style load schedule, reporting the metrics of Tables 1–2 —
// total throughput, average and median latency, dropped transactions, and
// (through internal/billing) price.
//
// The service model is a fluid-flow queue per replica, advanced in
// one-second ticks:
//
//   - arrivals: the schedule's rate (txn/s) split by the transaction
//     mix's write fraction — writes go to the primary only (§3.1), reads
//     spread across all running replicas;
//   - service: each replica processes up to limit·1 s CPU-seconds of
//     queued work per tick (the cgroup cap enforced by k8s.Pod);
//   - latency: completed work experiences the replica's queueing delay
//     (backlog/capacity) plus its base service time;
//   - timeouts: queued work older than the timeout is abandoned and, per
//     the §6.2 customer-trace experiment, *not* retried when Retry is
//     false ("we did not retry throttled transactions after a timeout
//     window");
//   - restarts: a pod restart drops its queued work and redirects its
//     arrivals (retried or dropped), matching "user connections are
//     interrupted when a pod instance restarts".
package dbsim

import (
	"cmp"
	"errors"
	"math"
	"slices"

	"caasper/internal/k8s"
	"caasper/internal/workload"
)

// Options configures the database service model.
type Options struct {
	// TimeoutSeconds is how long work may queue before abandonment.
	TimeoutSeconds float64
	// Retry controls whether dropped/timed-out transactions are
	// resubmitted ("in practice, customer applications would typically
	// retry transactions", §6.2 footnote).
	Retry bool
	// BaseLatencySeconds is the fixed non-CPU component of transaction
	// latency (parse/commit/network).
	BaseLatencySeconds float64
	// SecondaryIdleCores is the background CPU each secondary burns for
	// replication apply, independent of user traffic.
	SecondaryIdleCores float64
	// SecondaryReadFraction is the share of read transactions offloaded
	// to secondary replicas (spread evenly among them). The paper's
	// primary "handles most user requests" (§3.1), so the default is 0:
	// everything lands on the primary. The Database B read-scale setup
	// spreads reads across its replicas.
	SecondaryReadFraction float64
}

// DefaultOptions returns service parameters matching the paper's setup:
// a 30-second timeout, retries on, 20 ms base latency, and a light
// replication-apply load on secondaries.
func DefaultOptions() Options {
	return Options{
		TimeoutSeconds:     30,
		Retry:              true,
		BaseLatencySeconds: 0.020,
		SecondaryIdleCores: 0.2,
	}
}

// Validate checks option invariants.
func (o Options) Validate() error {
	if o.TimeoutSeconds <= 0 {
		return errors.New("dbsim: TimeoutSeconds must be positive")
	}
	if o.BaseLatencySeconds < 0 || o.SecondaryIdleCores < 0 {
		return errors.New("dbsim: negative latency or idle load")
	}
	if o.SecondaryReadFraction < 0 || o.SecondaryReadFraction > 1 {
		return errors.New("dbsim: SecondaryReadFraction out of [0,1]")
	}
	return nil
}

// replicaState is the per-replica fluid queue.
type replicaState struct {
	pod *k8s.Pod
	// backlogWork is queued work in CPU-seconds.
	backlogWork float64
	// backlogTxns is the matching transaction count (kept separately so
	// mixed-cost phases account correctly).
	backlogTxns float64
	// lastArrivalTxns holds the previous tick's arrivals: the
	// connections considered in flight when the pod restarts.
	lastArrivalTxns float64
}

// Database is the replicated database instance.
type Database struct {
	// Set is the underlying stateful set.
	Set *k8s.StatefulSet
	// Schedule drives arrivals.
	Schedule *workload.LoadSchedule
	// Opts is the service model configuration.
	Opts Options

	replicas map[string]*replicaState

	// Totals.
	CompletedTxns float64
	DroppedTxns   float64
	RetriedTxns   float64

	// latSum accumulates txn-weighted latency; latWeighted holds
	// (latency, txns) samples for the median.
	latSum      float64
	latSamples  []float64
	latWeights  []float64
	totalOff    float64 // txns shed due to restarts (subset of dropped/retried)
	pendingWork map[string]float64
}

// New builds a database over the stateful set.
func New(set *k8s.StatefulSet, sched *workload.LoadSchedule, opts Options) (*Database, error) {
	if set == nil {
		return nil, errors.New("dbsim: nil stateful set")
	}
	if sched == nil {
		return nil, errors.New("dbsim: nil schedule")
	}
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	db := &Database{Set: set, Schedule: sched, Opts: opts, replicas: map[string]*replicaState{}}
	for _, p := range set.Pods {
		db.replicas[p.Name] = &replicaState{pod: p}
	}
	return db, nil
}

// TrackReplica registers a pod added after construction (horizontal
// scale-out). Tracking an already-known pod is a no-op.
func (d *Database) TrackReplica(p *k8s.Pod) {
	if _, ok := d.replicas[p.Name]; !ok {
		d.replicas[p.Name] = &replicaState{pod: p}
	}
}

// OnPodDown implements the connection-drop semantics of a rolling-update
// restart: the replica's queued work is shed. Wire it to
// k8s.Operator.OnPodDown.
func (d *Database) OnPodDown(p *k8s.Pod) {
	rs, ok := d.replicas[p.Name]
	if !ok {
		return
	}
	// Interrupted work: the queued backlog plus the connections that
	// were mid-flight (approximated by the previous tick's arrivals) —
	// this is the paper's "one transaction is dropped and retried"
	// during each resize.
	txns := rs.backlogTxns + rs.lastArrivalTxns
	rs.backlogWork = 0
	rs.backlogTxns = 0
	rs.lastArrivalTxns = 0
	d.totalOff += txns
	if d.Opts.Retry {
		// Connections reconnect and the transactions are retried on the
		// surviving replicas next tick.
		d.RetriedTxns += txns
		d.carryover(txns)
	} else {
		d.DroppedTxns += txns
	}
}

// carryover re-enqueues retried transactions onto running replicas.
func (d *Database) carryover(txns float64) {
	running := d.Set.RunningPods()
	if len(running) == 0 || txns <= 0 {
		return
	}
	mean := d.Schedule.Mix.MeanCPUSeconds()
	per := txns / float64(len(running))
	for _, p := range running {
		rs := d.replicas[p.Name]
		rs.backlogTxns += per
		rs.backlogWork += per * mean
	}
}

// Tick advances the database one second at time now, consuming CPU from
// the pods and recording usage into the metrics server (ms may be nil).
func (d *Database) Tick(now int64, ms *k8s.MetricsServer) {
	// Pick up replicas added by horizontal scale-out since construction.
	for _, p := range d.Set.Pods {
		if _, ok := d.replicas[p.Name]; !ok {
			d.replicas[p.Name] = &replicaState{pod: p}
		}
	}

	minute := float64(now) / 60
	mix := d.Schedule.MixAt(minute)
	rate := d.Schedule.Rate(minute)
	if rate < 0 {
		rate = 0
	}
	meanCPU := mix.MeanCPUSeconds()
	writeFrac := mix.WriteFraction()

	primary := d.Set.Primary()
	running := d.Set.RunningPods()
	secondaries := d.Set.RunningSecondaries()

	// --- Route arrivals -------------------------------------------------
	// Writes must reach the primary; reads go to the primary by default
	// with an optional fraction offloaded to secondaries (§3.1).
	writeTxns := rate * writeFrac
	readTxns := rate * (1 - writeFrac)
	secReadTxns := 0.0
	if len(secondaries) > 0 {
		secReadTxns = readTxns * d.Opts.SecondaryReadFraction
	}
	primaryTxns := writeTxns + (readTxns - secReadTxns)

	// Clear the previous in-flight markers before recording this tick's.
	for _, rs := range d.replicas {
		rs.lastArrivalTxns = 0
	}

	if primary != nil && primary.Running() {
		rs := d.replicas[primary.Name]
		rs.backlogTxns += primaryTxns
		rs.backlogWork += primaryTxns * meanCPU
		rs.lastArrivalTxns = primaryTxns
	} else if primaryTxns > 0 {
		// No writable primary (failover instant): connections break.
		d.totalOff += primaryTxns
		if d.Opts.Retry && len(running) > 0 {
			d.RetriedTxns += primaryTxns
			d.carryover(primaryTxns)
		} else {
			d.DroppedTxns += primaryTxns
		}
	}
	if secReadTxns > 0 {
		per := secReadTxns / float64(len(secondaries))
		for _, p := range secondaries {
			rs := d.replicas[p.Name]
			rs.backlogTxns += per
			rs.backlogWork += per * meanCPU
			rs.lastArrivalTxns += per
		}
	}

	// --- Serve ----------------------------------------------------------
	for _, p := range d.Set.Pods {
		rs := d.replicas[p.Name]
		demand := rs.backlogWork // offer the whole queue; the cgroup caps it
		if p.Role == k8s.RoleSecondary {
			demand += d.Opts.SecondaryIdleCores
		}
		used := p.ConsumeCPU(demand, 1)
		if !p.Running() {
			// No kubelet scrape exists for a down pod: recording a zero
			// here would turn the restart gap into *measured* idleness.
			// Skipping instead closes those buckets as silent, which the
			// scaler carries over rather than feeding to the recommender.
			continue
		}
		if ms != nil {
			ms.RecordUsage(p.Name, now, used)
		}
		// Replication-apply overhead is served first on secondaries.
		avail := used
		if p.Role == k8s.RoleSecondary {
			overhead := math.Min(avail, d.Opts.SecondaryIdleCores)
			avail -= overhead
		}
		if avail <= 0 {
			continue
		}
		processedWork := math.Min(avail, rs.backlogWork)
		if processedWork <= 0 {
			continue
		}
		waitBefore := 0.0
		if cap := p.CPULimit(); cap > 0 {
			waitBefore = rs.backlogWork / cap
		}
		frac := processedWork / rs.backlogWork
		doneTxns := rs.backlogTxns * frac
		rs.backlogWork -= processedWork
		rs.backlogTxns -= doneTxns

		lat := d.Opts.BaseLatencySeconds + meanCPU + waitBefore/2
		d.CompletedTxns += doneTxns
		d.latSum += lat * doneTxns
		d.latSamples = append(d.latSamples, lat)
		d.latWeights = append(d.latWeights, doneTxns)

		// --- Timeouts ----------------------------------------------------
		cap := p.CPULimit()
		if cap > 0 {
			maxQueue := d.Opts.TimeoutSeconds * cap
			if rs.backlogWork > maxQueue {
				excess := rs.backlogWork - maxQueue
				exFrac := excess / rs.backlogWork
				exTxns := rs.backlogTxns * exFrac
				rs.backlogWork -= excess
				rs.backlogTxns -= exTxns
				if d.Opts.Retry {
					d.RetriedTxns += exTxns
					d.carryover(exTxns)
				} else {
					d.DroppedTxns += exTxns
				}
			}
		}
	}
}

// Stats summarises the run so far.
type Stats struct {
	// CompletedTxns, DroppedTxns and RetriedTxns are transaction counts.
	CompletedTxns, DroppedTxns, RetriedTxns float64
	// AvgLatencyMS and MedLatencyMS are txn-weighted latency statistics
	// in milliseconds.
	AvgLatencyMS, MedLatencyMS float64
	// P99LatencyMS is the txn-weighted 99th-percentile latency.
	P99LatencyMS float64
	// InterruptedTxns counts transactions shed by restarts/failovers.
	InterruptedTxns float64
}

// Stats computes the current statistics.
func (d *Database) Stats() Stats {
	s := Stats{
		CompletedTxns:   d.CompletedTxns,
		DroppedTxns:     d.DroppedTxns,
		RetriedTxns:     d.RetriedTxns,
		InterruptedTxns: d.totalOff,
	}
	if d.CompletedTxns > 0 {
		s.AvgLatencyMS = d.latSum / d.CompletedTxns * 1000
	}
	s.MedLatencyMS = weightedQuantile(d.latSamples, d.latWeights, 0.5) * 1000
	s.P99LatencyMS = weightedQuantile(d.latSamples, d.latWeights, 0.99) * 1000
	return s
}

// weightedQuantile computes the weighted q-quantile of samples.
func weightedQuantile(samples, weights []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	// Sort indices by sample value, leaving the inputs untouched. The
	// index tie-break makes the order total, so it does not depend on
	// the sort algorithm.
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		return cmp.Or(cmp.Compare(samples[a], samples[b]), cmp.Compare(a, b))
	})
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return 0
	}
	target := q * total
	var cum float64
	for _, i := range idx {
		cum += weights[i]
		if cum >= target {
			return samples[i]
		}
	}
	return samples[idx[len(idx)-1]]
}
