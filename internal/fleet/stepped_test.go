package fleet

import (
	"context"

	"caasper/internal/parallel"
)

// runSteppedOracle replays a fleet minute by minute — the reference the
// tick loop is tested bit-equal against. It shares onboarding (newRun),
// phase 2 (enactTick) and the epilogue (finish) with Run and replaces
// only the loop.
func runSteppedOracle(tenants []TenantSpec, opts Options) (*Result, error) {
	s, err := newRun(tenants, opts)
	if err != nil {
		return nil, err
	}
	if err := s.runStepped(); err != nil {
		return nil, err
	}
	return s.finish(), nil
}

// runStepped advances in decision-cadence segments: limits only change
// in phase 2, which only runs at decision ticks, so every minute in
// between is tenant-local observation. Each tenant executes the exact
// per-minute observe/account/meter sequence, with no catch-up arithmetic
// and no sleeping.
func (s *runState) runStepped() error {
	ts, minutes, warmup := s.ts, s.minutes, s.warmup
	ctx := context.Background()

	// The sequential phase walks every tenant index each tick.
	all := make([]int, len(ts))
	for i := range all {
		all[i] = i
	}

	for segStart := 0; segStart < minutes; {
		// The segment ends just after the next decision minute (the first
		// now ≥ segStart with now ≥ warmup and (now−warmup)%D == 0), or at
		// the horizon when no further decision happens.
		segEnd := minutes // exclusive
		decision := -1    // the decision minute, -1 when the replay ends first
		nd := warmup
		if segStart > warmup {
			nd = warmup + (segStart-warmup+s.d-1)/s.d*s.d
		}
		if nd < minutes {
			segEnd = nd + 1
			decision = nd
		}

		// Poll the fleet-level scheduling pressure for every minute in
		// order, keeping the decision minute's value for this tick's
		// arbitration.
		pressure := 0.0
		if s.finj != nil {
			for now := segStart; now < segEnd; now++ {
				pressure = s.finj.PressureCores(int64(now))
			}
			s.cluster.SetPressure(pressure)
		}

		// Phase 1 — parallel observe/decide over the whole segment.
		err := parallel.ForEach(ctx, len(ts), s.workers, func(i int) error {
			t := ts[i]
			limit := t.set.CPULimit() // constant within the segment
			t.lim = limit             // phase 2 reads the cache (proposal.grows)
			t.hasProp = false
			if t.mr != nil {
				t.steppedMulti(segStart, segEnd)
			} else {
				limf := float64(limit)
				for now := segStart; now < segEnd; now++ {
					demand := t.spec.Trace.Values[now]
					usage := demand
					if usage > limf {
						usage = limf
					}
					// A metrics-gap fault loses this minute's sample, so the
					// recommender observes the previous one.
					observed := usage
					if t.inj.DropSample(t.pod, int64(now)) {
						observed = t.prevUsage
					}
					t.prevUsage = usage
					t.rec.Observe(now, observed)

					if slack := limf - usage; slack > 0 {
						t.acct.Slack += slack
					}
					if short := demand - limf; short > 0 {
						t.acct.Short += short
						t.severity += short
						t.acct.Throttled++
					}
					t.acct.Record(limf)
				}
			}
			if decision >= 0 {
				t.decide(limit)
			}
			return nil
		})
		if err != nil {
			return err
		}
		segStart = segEnd
		if decision >= 0 {
			s.enactTick(all, pressure, decision)
		}
	}
	return nil
}

// steppedMulti is the oracle's multi-resource walk over minutes
// [segStart, segEnd), one minute at a time: the CPU trace is total demand
// spread across the serving replicas, RAM and disk traces are per pod,
// and every pod is billed.
func (t *tenant) steppedMulti(segStart, segEnd int) {
	m := t.mr
	limf := float64(t.set.CPULimit()) // constant within the segment
	for now := segStart; now < segEnd; now++ {
		serving := 0
		for _, p := range t.set.Pods {
			if p.Running() {
				serving++
			}
		}
		if serving < 1 {
			serving = 1 // the primary always serves in this model
		}
		capf := limf * float64(serving)

		demand := t.spec.Trace.Values[now]
		if demand > m.peak.TotalCPU {
			m.peak.TotalCPU = demand
		}
		usage := demand
		if usage > capf {
			usage = capf
		}

		// The recommender sees the per-replica average.
		perPod := usage / float64(serving)
		observed := perPod
		if t.inj.DropSample(t.pod, int64(now)) {
			observed = t.prevUsage
		}
		t.prevUsage = perPod
		t.rec.Observe(now, observed)

		// Ground-truth accounting in total core-minutes.
		if slack := capf - usage; slack > 0 {
			t.acct.Slack += slack
		}
		if short := demand - capf; short > 0 {
			t.acct.Short += short
			t.severity += short
			t.acct.Throttled++
		}
		pods := float64(len(t.set.Pods))
		t.acct.Record(limf * pods)

		if m.ram != nil {
			rdemand := m.ram[now] + t.inj.MemPressureGB(t.pod, int64(now))
			if rdemand > m.peak.RAMGB {
				m.peak.RAMGB = rdemand
			}
			if short := rdemand - float64(m.ramAlloc); short > 0 {
				m.ramShort += short
				t.res.RAMShortGBMin += short
				t.res.OOMMinutes++
			}
			m.ramMeter.Record(float64(m.ramAlloc) * pods)
		}
		if m.dsk != nil {
			used := m.dsk[now]
			if used > float64(m.diskAlloc) {
				t.res.DiskFullMinutes++
				used = float64(m.diskAlloc) // writes beyond the volume fail
			}
			if used > m.peak.DiskGB {
				m.peak.DiskGB = used
			}
			m.diskMeter.Record(float64(m.diskAlloc) * pods)
		}
	}
}
