package k8s

import (
	"caasper/internal/faults"
)

// MetricsServer aggregates per-pod CPU usage into fixed-interval samples
// (paper Figure 1, step 2). The live system samples at one-minute
// intervals; the server accumulates second-level usage and closes a
// bucket every IntervalSeconds.
//
// A bucket that saw no samples at all — the pod was restarting, or every
// scrape in the interval was lost — closes as a *silent* zero rather than
// a measured one. Consumers that would misread silence as idleness (the
// scaler feeding the recommender) must check IsSilent: observing 0.0 for
// a restart gap drags recommendations down right after every resize,
// the opposite of the paper's capped-usage correction.
type MetricsServer struct {
	// IntervalSeconds is the sample width (60 for one-minute samples).
	IntervalSeconds int64

	// Faults, when non-nil, drops samples before they are recorded
	// (metrics-gap injection). Nil is the fault-free fast path.
	Faults *faults.Injector

	series map[string][]float64 // pod → closed per-interval mean cores
	silent map[string][]bool    // pod → bucket closed with no samples
	acc    map[string]float64   // pod → cpu-seconds in the open bucket
	opened map[string]int64     // pod → open bucket index
	last   map[string]int64     // pod → time of the last accepted sample
}

// NewMetricsServer builds a server with the given sample interval.
func NewMetricsServer(intervalSeconds int64) *MetricsServer {
	if intervalSeconds < 1 {
		intervalSeconds = 60
	}
	return &MetricsServer{
		IntervalSeconds: intervalSeconds,
		series:          make(map[string][]float64),
		silent:          make(map[string][]bool),
		acc:             make(map[string]float64),
		opened:          make(map[string]int64),
		last:            make(map[string]int64),
	}
}

// RecordUsage registers that the pod consumed usedCores during the
// one-second tick at time now. Buckets close automatically; a pod that
// records nothing in a bucket (e.g. while restarting) reports a silent
// zero for it (see IsSilent).
func (m *MetricsServer) RecordUsage(pod string, now int64, usedCores float64) {
	if m.Faults.DropSample(pod, now) {
		return
	}
	bucket := now / m.IntervalSeconds
	if open, ok := m.opened[pod]; ok && bucket != open {
		m.closeThrough(pod, bucket)
	}
	if _, ok := m.opened[pod]; !ok {
		// First sample for this pod: backfill zeros for skipped buckets.
		m.closeThrough(pod, bucket)
	}
	m.opened[pod] = bucket
	m.acc[pod] += usedCores
	m.last[pod] = now
}

// closeThrough closes buckets for pod up to (but excluding) bucket.
func (m *MetricsServer) closeThrough(pod string, bucket int64) {
	open, ok := m.opened[pod]
	if !ok {
		// Never recorded: create empty (silent) history up to the
		// target bucket.
		for int64(len(m.series[pod])) < bucket {
			m.series[pod] = append(m.series[pod], 0)
			m.silent[pod] = append(m.silent[pod], true)
		}
		return
	}
	// Close the open bucket: it held at least one real sample.
	m.series[pod] = append(m.series[pod], m.acc[pod]/float64(m.IntervalSeconds))
	m.silent[pod] = append(m.silent[pod], false)
	m.acc[pod] = 0
	// Zero-fill wholly silent buckets in between, marked as such.
	for b := open + 1; b < bucket; b++ {
		m.series[pod] = append(m.series[pod], 0)
		m.silent[pod] = append(m.silent[pod], true)
	}
	delete(m.opened, pod)
}

// UsageSeries returns the closed per-interval mean-cores series for the
// pod. The returned slice is shared; callers must not mutate it.
func (m *MetricsServer) UsageSeries(pod string) []float64 {
	return m.series[pod]
}

// IsSilent reports whether the pod's closed bucket i contains no
// recorded samples — a restart gap or total scrape loss, not measured
// idleness. Out-of-range indices report false.
func (m *MetricsServer) IsSilent(pod string, i int) bool {
	s := m.silent[pod]
	return i >= 0 && i < len(s) && s[i]
}

// LastSampleAt returns the time of the pod's most recent accepted sample
// and whether any sample was ever accepted — the scaler's staleness
// signal. Synthesized silent buckets do not count as samples.
func (m *MetricsServer) LastSampleAt(pod string) (int64, bool) {
	t, ok := m.last[pod]
	return t, ok
}
