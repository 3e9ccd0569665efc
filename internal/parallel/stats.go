package parallel

import (
	"context"
	"sync/atomic"
	"time"

	"caasper/internal/obs"
)

// Stats accumulates the runtime behaviour of pool runs: how many tasks
// ran, across how many workers, how deep the backlog got, and the
// wall-clock latency distribution of individual tasks. All measurements
// are wall-clock and therefore outside the determinism contract — they
// describe how fast the engine ran, never what it computed.
//
// A Stats value may be reused across several ForEachStats calls; the
// counters and the latency histogram accumulate. All methods are safe for
// concurrent use.
type Stats struct {
	tasks    atomic.Int64
	maxQueue atomic.Int64
	busy     atomic.Int64 // summed nanoseconds inside task fns
	elapsed  atomic.Int64 // summed nanoseconds of whole runs
	workers  atomic.Int64 // pool size of the most recent run
	latency  *obs.Histogram
}

// NewStats builds an empty accumulator with a duration-bucketed latency
// histogram.
func NewStats() *Stats {
	return &Stats{latency: obs.NewDurationHistogram()}
}

// Tasks returns the number of tasks executed.
func (s *Stats) Tasks() int64 { return s.tasks.Load() }

// Workers returns the pool size of the most recent run (1 means the
// sequential fast path).
func (s *Stats) Workers() int { return int(s.workers.Load()) }

// MaxQueueDepth returns the largest backlog (tasks not yet handed to a
// worker) observed at any claim.
func (s *Stats) MaxQueueDepth() int64 { return s.maxQueue.Load() }

// Latency returns the per-task wall-latency histogram (nanoseconds).
func (s *Stats) Latency() *obs.Histogram { return s.latency }

// Utilization returns busy ÷ (workers × elapsed): the fraction of the
// pool's available worker-time spent inside task functions, in [0, 1].
// Values well below 1 on a saturated pool point at claim contention or
// wildly uneven task sizes.
func (s *Stats) Utilization() float64 {
	w, e := s.workers.Load(), s.elapsed.Load()
	if w <= 0 || e <= 0 {
		return 0
	}
	u := float64(s.busy.Load()) / (float64(w) * float64(e))
	if u > 1 {
		u = 1 // scheduling jitter can nudge the ratio past 1
	}
	return u
}

// observeQueueDepth records the backlog after the claim that just issued.
func (s *Stats) observeQueueDepth(pending int64) {
	for {
		old := s.maxQueue.Load()
		if pending <= old {
			return
		}
		if s.maxQueue.CompareAndSwap(old, pending) {
			return
		}
	}
}

// ForEachStats is ForEach with runtime accounting: identical semantics,
// determinism contract and error selection, plus per-task latency, busy
// time, queue depth and utilization recorded into st. A nil st degrades
// to plain ForEach with zero overhead.
func ForEachStats(ctx context.Context, n, workers int, st *Stats, fn func(i int) error) error {
	if st == nil {
		return ForEach(ctx, n, workers, fn)
	}
	if n <= 0 {
		return nil
	}
	st.workers.Store(int64(Workers(workers, n)))
	var issued atomic.Int64
	start := time.Now()
	err := ForEach(ctx, n, workers, func(i int) error {
		st.observeQueueDepth(int64(n) - issued.Add(1))
		t0 := time.Now()
		taskErr := fn(i)
		d := time.Since(t0)
		st.latency.Observe(float64(d.Nanoseconds()))
		st.busy.Add(d.Nanoseconds())
		st.tasks.Add(1)
		return taskErr
	})
	st.elapsed.Add(time.Since(start).Nanoseconds())
	return err
}
