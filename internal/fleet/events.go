// The fleet's tick loop: a discrete-event engine.
//
// A minute-stepped replay costs O(minutes × tenants): every tenant would
// execute every simulated minute even when nothing about it can change.
// But a tenant's observable behaviour only changes at a handful of
// instants — its decision ticks, its trace's inflection points (the
// starts of constant-demand runs), and pressure-window boundaries of the
// fleet-level fault injector. Between those instants the demand, the
// limit, the observed usage and therefore every accumulator update are
// all constant, which makes the in-between minutes pure arithmetic.
//
// The loop (shard.go) exploits that: a virtual clock jumps from decision
// tick to decision tick through a two-part wake queue. Tenants due at
// the very next decision tick wait on a plain list, appended in
// ascending index order; only sleepers, due later, wait on a binary heap
// keyed on (minute, tenant index). A tick's awake set is the list merged
// with the heap's entries at that tick, so it comes out in ascending
// index order with no sort, and a tenant awake at every tick never pays
// for the heap. A tenant woken at tick d first catches up
// analytically — its trace is walked run by run (trace.RunStarts, or a
// scan of the values for traces whose runs do not compress), observation
// windows are advanced with one bulk ring append per run
// (recommend.RunObserver), and K, C and the bill advance one run at a time
// (billing.Ledger.AddRun, keeping the per-minute replay's float rounding).
// It then decides exactly as a per-minute replay would and computes its next
// wake-up:
//
//   - a tenant that filed a proposal, or whose recommender cannot prove
//     steadiness, wakes at the very next decision tick;
//   - a tenant that filed nothing and whose recommender reports
//     SteadyObserving(u) — a saturated window of nothing but the current
//     usage u, with a pure Recommend — provably re-decides "hold" at every
//     tick until its demand next changes, so it sleeps until the first
//     decision tick at or after its trace's next inflection point;
//   - a multi-resource tenant catches up on the same run-by-run walk
//     (its RAM and disk per run, see advanceTo) but never sleeps: no
//     sleep rule covers its non-CPU dimensions yet.
//
// Fault draws are (seed, kind, pod, time)-keyed and stateless, so skipped
// minutes draw identically when caught up later: metrics-gap minutes are
// pre-scheduled with a pure probe (faults.Injector.NextGap) so gap-heavy
// tenants keep the bulk catch-up path between the minutes that actually
// drop, and the fleet-level scheduling pressure advances one poll per
// window (faults.Injector.AdvancePressure). Per-tenant fault events land
// in per-tenant buffers replayed after the loop, so the NDJSON stream is
// byte-identical to a minute-stepped replay (the test oracle in
// stepped_test.go), at every worker count.
package fleet

import (
	"caasper/internal/faults"
	"caasper/internal/recommend"
	"caasper/internal/stats"
	"caasper/internal/trace"
)

// wakeEntry is one pending wake-up: tenant idx runs at minute at.
type wakeEntry struct {
	at  int32
	idx int32
}

// wakeHeap is the sleepers' binary min-heap of wake-ups ordered by
// (at, idx). The secondary key makes same-tick pops emerge in ascending
// tenant order, so merging them with the next-tick list keeps phase 2's
// index-ordered walk without a sort.
type wakeHeap []wakeEntry

func wakeLess(a, b wakeEntry) bool {
	return a.at < b.at || (a.at == b.at && a.idx < b.idx)
}

func (h *wakeHeap) push(e wakeEntry) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !wakeLess(q[i], q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *wakeHeap) pop() wakeEntry {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	*h = q[:n]
	q = q[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && wakeLess(q[l], q[m]) {
			m = l
		}
		if r < n && wakeLess(q[r], q[m]) {
			m = r
		}
		if m == i {
			return top
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
}

// nextDecisionAt returns the first decision minute ≥ m within the horizon,
// or −1 when the replay ends first: the first minute ≥ max(m, warmup)
// with (minute − warmup) divisible by the cadence.
func (s *runState) nextDecisionAt(m int) int {
	nd := s.warmup
	if m > s.warmup {
		nd = s.warmup + (m-s.warmup+s.d-1)/s.d*s.d
	}
	if nd >= s.minutes {
		return -1
	}
	return nd
}

// prepTenants initializes the per-tenant tick-loop state.
func (s *runState) prepTenants() {
	// Trace run starts are shared: fleets commonly replay a few workload
	// shapes across many tenants, so the inflection scan runs once per
	// distinct trace, not once per tenant.
	runsByTrace := make(map[*trace.Trace][]int32)
	for _, t := range s.ts {
		// The limit is cached on the tenant: chasing set → pod → spec is
		// two dependent cache misses per wake at fleet scale, and only a
		// phase-2 enactment — which requires a proposal from an awake
		// tenant — can change it.
		t.lim = t.set.CPULimit()
		r, ok := runsByTrace[t.spec.Trace]
		if !ok {
			r = t.spec.Trace.RunStarts()
			runsByTrace[t.spec.Trace] = r
		}
		t.runs = r
		t.gap = t.inj.Has(faults.MetricsGap)
		t.bulk, _ = t.rec.(recommend.RunObserver)
		if t.mr == nil {
			// No sleep rule covers RAM, disk and replicas yet, so a
			// multi-resource tenant wakes at every decision tick.
			t.steady, _ = t.rec.(recommend.SteadyObserver)
		}
	}
}

// advanceTo replays the tenant's minutes [done, end) analytically, run by
// run. It is the only catch-up: CPU-only and multi-resource tenants take
// the same walk. Within one constant-demand run the limit and replica
// count (only phase 2 changes them, and this tenant filed no proposals
// since it last woke), the usage and every per-minute arithmetic operand
// are constant, so:
//
//   - the observation window advances with one bulk append (RunObserver) —
//     metrics-gap tenants first fire their pre-scheduled gap draws
//     (NextGap probe, then DropSample per gap minute for counts and
//     events) and split the append around a first-minute gap, which is
//     the only minute whose observed value a gap can change; only a
//     recommender without the bulk form runs the per-minute scrape loop;
//   - K, C, throttled minutes and the bill advance in one ledger call per
//     run, and severity in one stats.AddN call: both jump a binade at a
//     time (billing.Ledger.AddRun), yet return the very float sums a
//     per-minute replay's additions give, bit for bit.
//
// A multi-resource tenant's CPU trace is its total demand across its
// replicas: its capacity and bill are limit × replicas, and the
// recommender sees usage / replicas, the per-pod signal a scrape of any
// one replica would show. A CPU-only tenant's trace is per pod, so its
// multiplier is 1. Its RAM and disk are accounted per run by
// advanceMulti, and its runs are also cut at every metrics-gap minute, so
// a gap fires before that minute's mem-pressure draw and the tenant's
// fault events stay in minute order.
//
// Severity accumulates only for minutes ≥ sevFrom (the minute after the
// previous decision tick): severity resets at every tick, including ones
// this tenant slept through.
func (t *tenant) advanceTo(end, sevFrom int) {
	if t.done >= end {
		return
	}
	m := t.mr
	limf := float64(t.lim)
	capf, reps := limf, 1.0
	if m != nil {
		reps = float64(m.replicas)
		capf = limf * reps
	}
	vs := t.spec.Trace.Values
	for t.done < end {
		now := t.done
		re := t.runEnd(now, end)
		if m != nil && t.gap {
			if g := t.inj.NextGap(t.pod, int64(now+1), int64(re)); g >= 0 {
				re = int(g)
			}
		}
		n := re - now
		demand := vs[now]
		usage := demand
		if usage > capf {
			usage = capf
		}
		perPod := usage
		if m != nil {
			perPod = usage / reps
		}

		if t.bulk == nil {
			// Per-minute scrape: a recommender without ObserveRun needs its
			// per-minute calls (and its per-minute gap draws with them).
			for k := now; k < re; k++ {
				observed := perPod
				if t.inj.DropSample(t.pod, int64(k)) {
					observed = t.prevUsage
				}
				t.prevUsage = perPod
				t.rec.Observe(k, observed)
			}
		} else if t.gap {
			// Pre-scheduled gaps: within this walk the usage is constant, so
			// after its first minute prevUsage == perPod and a dropped
			// sample observes the very value an intact one would — only a
			// gap at the first minute (where prevUsage may still hold the
			// previous run's usage) changes an observation. Probe the exact
			// gap minutes (NextGap), fire DropSample at each so counts and
			// events land per minute exactly as the per-minute loop's, and
			// advance the window in at most two bulk appends.
			first := int64(-1)
			for g := t.inj.NextGap(t.pod, int64(now), int64(re)); g >= 0; g = t.inj.NextGap(t.pod, g+1, int64(re)) {
				t.inj.DropSample(t.pod, g)
				if first < 0 {
					first = g
				}
			}
			if first == int64(now) && t.prevUsage != perPod {
				t.rec.Observe(now, t.prevUsage)
				if n > 1 {
					t.bulk.ObserveRun(now+1, perPod, n-1)
				}
			} else {
				t.bulk.ObserveRun(now, perPod, n)
			}
			t.prevUsage = perPod
		} else {
			t.prevUsage = perPod
			t.bulk.ObserveRun(now, perPod, n)
		}

		if short := t.acct.AddRun(capf, demand, n); short > 0 {
			t.severity = stats.AddN(t.severity, short, re-max(now, sevFrom))
		}
		if m != nil {
			t.advanceMulti(now, re, demand)
		}
		t.done = re
	}
}

// runEnd returns the end (exclusive) of the constant-demand run holding
// minute m, clipped to limit. Calls must not decrease m: the run cursor
// only moves forward. Traces without a run index (their runs do not
// compress) are scanned instead.
func (t *tenant) runEnd(m, limit int) int {
	vs := t.spec.Trace.Values
	if t.runs == nil {
		e := m + 1
		for e < limit && vs[e] == vs[m] {
			e++
		}
		return e
	}
	for t.runCur+1 < len(t.runs) && int(t.runs[t.runCur+1]) <= m {
		t.runCur++
	}
	e := len(vs)
	if t.runCur+1 < len(t.runs) {
		e = int(t.runs[t.runCur+1])
	}
	return min(e, limit)
}

// computeWake sets the tenant's next wake minute after deciding at tick d.
// The default is the next decision tick. The tenant may sleep past it only
// when every skipped tick provably replays "hold": it filed no proposal at
// d (so the limit stays put), its recommender asserts SteadyObserving(u)
// for the current usage u (pure Recommend over a saturated all-u window),
// and its demand — hence u — is constant until the trace's next inflection
// point. Under those three facts each skipped tick sees the identical
// (window, limit) input and yields the identical "hold", so the first tick
// at which anything can differ is the first one at or after the next
// inflection.
func (t *tenant) computeWake(s *runState, d int) {
	t.wakeAt = s.nextDecisionAt(d + 1)
	if t.wakeAt < 0 || t.hasProp || t.steady == nil {
		return
	}
	u := min(t.spec.Trace.Values[d], float64(t.lim))
	if !t.steady.SteadyObserving(u) {
		return
	}
	// No further inflection (runEnd returns the trace length): sleep forever.
	t.wakeAt = s.nextDecisionAt(t.runEnd(d, len(t.spec.Trace.Values)))
}
