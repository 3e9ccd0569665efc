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
			t.hasProp = false
			if t.mr != nil {
				t.observeMultiSegment(segStart, segEnd)
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
						t.res.SumSlack += slack
					}
					if short := demand - limf; short > 0 {
						t.res.SumInsufficient += short
						t.severity += short
						t.res.ThrottledMinutes++
					}
					t.meter.Record(limf)
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
