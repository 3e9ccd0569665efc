// Tenant groups and the tick loop.
//
// The tick loop's only cross-tenant coupling is phase 2: the capacity
// arbiter compares a proposal's resize deltas against the free capacity
// of the nodes hosting the proposer's pods. Tenants whose pods touch
// disjoint node sets therefore cannot affect each other's grants — one
// tenant's in-place resize changes only its own nodes' allocations, which
// the other's feasibility check never reads. Partitioning the fleet into
// the connected components of the tenant–node placement graph
// (union-find over pod placements) yields groups that are independent for
// the whole run: placements are fixed at onboarding, so the partition
// never changes mid-run.
//
// The fleet runs as ONE group when any of these holds:
//
//   - an event sink is attached: the stream interleaves every group's
//     phase-2 events tick by tick, and reproducing that order from
//     separate groups means buffering every event of the run and merging
//     them afterwards — memory that grows with the event count;
//   - the placement graph is connected (there is only one group);
//   - a stateless multi-resource tenant can scale out: AddReplica
//     schedules the new pod on any node and reads the live cluster
//     pressure, so it couples tenants across node boundaries.
//
// The one group owns the real fleet-level injector, the cluster pressure
// and the sink, and fans phase 1 out over the awake tenants at every tick.
// Otherwise each node-disjoint group runs the same loop with its own wake
// heap, virtual clock, arbitration scratch and silent fault-injector
// clone (draws are (seed, kind, pod, time)-keyed, so a clone replays the
// exact values the shared injector would have produced); phase 1 runs
// sequentially inside a group and the groups fan out instead. Only
// counters cross groups: every tenant writes its own TenantResult, the
// deferral-tick bitmap is a commutative OR, and the authoritative
// injector sweeps the pressure windows once after the join (coverage is
// batching-independent: draws and edge dedupe are window-keyed).
package fleet

import (
	"context"

	"caasper/internal/parallel"
)

// shardPartition groups tenant indices into node-disjoint shard groups:
// the connected components of the bipartite tenant–node placement graph,
// computed with a union-find whose roots stay the smallest member index.
// It returns the group members concatenated (idxs) plus the group
// boundary offsets (group g spans idxs[offsets[g]:offsets[g+1]]).
// Members are ascending within a group and groups are ordered by their
// smallest member, so walking idxs visits every tenant exactly once.
func shardPartition(ts []*tenant) (idxs, offsets []int32) {
	parent := make([]int32, len(ts))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	byNode := make(map[string]int32)
	for i, t := range ts {
		for _, p := range t.set.Pods {
			if p.NodeName == "" {
				continue
			}
			j, ok := byNode[p.NodeName]
			if !ok {
				byNode[p.NodeName] = int32(i)
				continue
			}
			ra, rb := find(int32(i)), find(j)
			if ra == rb {
				continue
			}
			if ra < rb {
				parent[rb] = ra
			} else {
				parent[ra] = rb
			}
		}
	}
	root := make([]int32, len(ts))
	ng := int32(0)
	gid := make([]int32, len(ts)) // root index → group id
	for i := range ts {
		r := find(int32(i))
		root[i] = r
		if r == int32(i) {
			gid[i] = ng
			ng++
		}
	}
	offsets = make([]int32, ng+1)
	for i := range ts {
		offsets[gid[root[i]]+1]++
	}
	for g := int32(0); g < ng; g++ {
		offsets[g+1] += offsets[g]
	}
	idxs = make([]int32, len(ts))
	pos := make([]int32, ng)
	copy(pos, offsets[:ng])
	for i := range ts { // ascending i keeps members sorted within groups
		g := gid[root[i]]
		idxs[pos[g]] = int32(i)
		pos[g]++
	}
	return idxs, offsets
}

// group is one tenant group's tick loop: a copy of the run's state with,
// for split runs, the shared mutable machinery swapped for group-local
// equivalents, plus the group's wake heap and bookkeeping.
type group struct {
	runState
	idxs  []int32 // global tenant indices, ascending
	one   bool    // the whole fleet: owns the cluster pressure
	heap  wakeHeap
	awake []int
	clock int // pressure coverage: windows overlapping [0, clock) are polled

	// The tick being processed, read by step.
	tick, sevFrom int
}

// runGroups partitions the fleet into groups (see the file comment), runs
// every group's tick loop and finishes the pressure coverage.
func (s *runState) runGroups() error {
	s.prepTenants()
	n := len(s.ts)
	idxs, offsets := s.partition()
	heapBack := make([]wakeEntry, n)
	awakeBack := make([]int, n)
	upsBack := make([]int, n)
	groups := make([]group, len(offsets)-1)
	arbs := make([]arbScratch, len(groups))
	for k := range groups {
		// Carved three-index slices: a tenant holds at most one pending
		// wake, so no group's heap, awake list or scale-up list outgrows
		// its tenant count.
		lo, hi := offsets[k], offsets[k+1]
		g := &groups[k]
		g.runState = *s
		g.idxs = idxs[lo:hi]
		g.heap = heapBack[lo:lo:hi]
		g.awake = awakeBack[lo:lo:hi]
		g.ups = upsBack[lo:lo:hi]
		g.one = len(groups) == 1
		if !g.one {
			// The groups fan out instead of each group's phase 1.
			g.finj = s.finj.Clone()
			g.arb = &arbs[k]
			g.workers = 1
		}
	}
	err := parallel.ForEach(context.Background(), len(groups), s.workers, func(k int) error {
		return groups[k].run()
	})
	if err != nil {
		return err
	}
	clock := 0
	if len(groups) == 1 {
		clock = groups[0].clock
	}
	if s.finj != nil && clock < s.minutes {
		s.cluster.SetPressure(s.finj.AdvancePressure(int64(clock), int64(s.minutes)))
	}
	return nil
}

// partition returns the run's tenant groups in shardPartition's layout:
// one group holding every tenant when the fleet must run as one (see the
// file comment), the node-disjoint groups otherwise.
func (s *runState) partition() (idxs, offsets []int32) {
	one := s.events
	for _, t := range s.ts {
		one = one || (t.mr != nil && t.spec.Stateless)
	}
	if !one {
		return shardPartition(s.ts)
	}
	idxs = make([]int32, len(s.ts))
	for i := range idxs {
		idxs[i] = int32(i)
	}
	return idxs, []int32{0, int32(len(s.ts))}
}

// run executes the group's tick loop. See events.go for the catch-up and
// sleep rules, and the file comment for what one group owns.
func (g *group) run() error {
	ts := g.ts
	ctx := context.Background()
	heap := g.heap
	if d0 := g.nextDecisionAt(0); d0 >= 0 {
		// Every tenant's first wake is the first decision tick. Equal keys
		// in index order are already a valid min-heap.
		for _, i := range g.idxs {
			heap = append(heap, wakeEntry{at: int32(d0), idx: i})
		}
	}
	pressure := 0.0
	step := g.step // one method value for the run, not one per tick
	for len(heap) > 0 {
		d := int(heap[0].at)
		g.awake = g.awake[:0]
		for len(heap) > 0 && int(heap[0].at) == d {
			g.awake = append(g.awake, int(heap.pop().idx))
		}

		for {
			// Catch the fleet-level scheduling pressure up through the
			// decision minute: one draw per window, so pressure edges for
			// minutes ≤ d precede this tick's phase-2 events. A clone polls
			// silently and leaves the shared cluster alone.
			if g.finj != nil {
				pressure = g.finj.AdvancePressure(int64(g.clock), int64(d+1))
				if g.one {
					g.cluster.SetPressure(pressure)
				}
			}
			g.clock = d + 1

			// Severity is defined as the insufficiency since the previous
			// decision tick — even for tenants that slept through it — so
			// catch-up accumulates it only from sevFrom on.
			g.tick, g.sevFrom = d, d-g.d+1
			if d == g.warmup {
				g.sevFrom = 0 // first decision: severity covers the warm-up
			}

			// Phase 1 — catch-up + decide over the awake tenants only. Each
			// step touches one tenant's state; sleeping tenants are
			// untouched and, by the sleep contract, unchanged.
			if err := parallel.ForEach(ctx, len(g.awake), g.workers, step); err != nil {
				return err
			}

			// Phase 2 — sequential, over the awake subset (ascending index,
			// courtesy of the heap's secondary key).
			g.enactTick(g.awake, pressure, d)
			for _, i := range g.awake {
				if t := ts[i]; t.hasProp {
					// Only proposers can have been resized (granted, deferred
					// or fault-aborted — re-read either way).
					t.lim = t.set.CPULimit()
				}
			}

			if len(heap) == 0 {
				if w := uniformWake(ts, g.awake); w >= 0 {
					d = w // lockstep group: rerun the tick on the same list
					continue
				}
			}
			for _, i := range g.awake {
				if w := ts[i].wakeAt; w >= 0 {
					heap.push(wakeEntry{at: int32(w), idx: int32(i)})
				}
			}
			break
		}
	}

	// Horizon epilogue: account every tenant's tail minutes after its last
	// wake. Severity after the final decision is never read, so catch-up
	// skips it (sevFrom = minutes).
	return parallel.ForEach(ctx, len(g.idxs), g.workers, func(k int) error {
		ts[g.idxs[k]].advanceTo(g.minutes, g.minutes)
		return nil
	})
}

// step is phase 1 for the k-th awake tenant at the current tick.
func (g *group) step(k int) error {
	t := g.ts[g.awake[k]]
	t.advanceTo(g.tick+1, g.sevFrom)
	t.decide(t.lim)
	t.computeWake(&g.runState, g.tick)
	return nil
}
