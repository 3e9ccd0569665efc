package fleet

import "testing"

// TestCachedLimitCurrentAtPhase2 pins the cache proposal.grows reads: a
// contended, fault-injected fleet (the chaos configuration: restart
// failures abort resizes, scheduling pressure defers scale-ups) is driven
// through the tick loop one decision tick at a time, as one group, and
// after each tick every tenant's cached limit t.lim must equal its
// StatefulSet's. Limits change only in phase 2, so a cache current after
// one tick is current when the next tick's phase 2 classifies its
// proposals. The fleet must grant, defer and abort resizes at least once
// each, or the cache was never put to the test.
func TestCachedLimitCurrentAtPhase2(t *testing.T) {
	s, err := newRun(mixedFleet(t, 16), chaos16Opts(t))
	if err != nil {
		t.Fatal(err)
	}
	s.prepTenants()
	n := len(s.ts)
	g := &group{runState: *s, one: true}
	g.idxs = make([]int32, n)
	g.next = make([]int, 0, n)
	g.heap = make(wakeHeap, 0, n)
	g.awake = make([]int, 0, n)
	g.ups = make([]int, 0, n)
	for i := range g.idxs {
		g.idxs[i] = int32(i)
	}
	g.nextAt = s.nextDecisionAt(0)
	for i := 0; i < n; i++ {
		g.next = append(g.next, i)
	}

	proposers, resized := 0, 0
	for tick := g.nextAt; tick >= 0; tick = s.nextDecisionAt(tick + 1) {
		before := make([]int, n)
		for i, tn := range s.ts {
			before[i] = tn.set.CPULimit()
		}
		if err := g.run(tick + 1); err != nil {
			t.Fatal(err)
		}
		for i, tn := range s.ts {
			if lim := tn.set.CPULimit(); tn.lim != lim {
				t.Fatalf("tick %d: tenant %s caches limit %d, its set has %d (proposal %v)", tick, tn.spec.Name, tn.lim, lim, tn.hasProp)
			}
			if tn.hasProp {
				proposers++
			}
			if tn.lim != before[i] {
				resized++
			}
		}
	}
	var deferrals, aborted int
	for _, tn := range s.ts {
		deferrals += tn.res.Deferrals
		aborted += tn.res.ResizesAborted
	}
	if proposers == 0 || resized == 0 || deferrals == 0 || aborted == 0 {
		t.Fatalf("%d proposals, %d resizes, %d deferrals, %d aborted resizes: the fleet did not exercise the cache", proposers, resized, deferrals, aborted)
	}
}
