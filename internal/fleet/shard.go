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
// The fleet runs as ONE group when either of these holds:
//
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
//
// With a sink attached, a split fleet still emits the one-group stream:
// the groups run in epochs of decision ticks, each buffering its phase-2
// events, and a serial merge after every epoch emits them in the one
// group's order and advances the authoritative injector tick by tick
// (merge.go). Memory is bounded by one epoch's events. A group's wake
// queue, its next-tick list as much as its heap, carries from one epoch
// to the next.
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
// equivalents, plus the group's wake queue and bookkeeping.
type group struct {
	runState
	idxs []int32 // global tenant indices, ascending
	one  bool    // the whole fleet: owns the cluster pressure
	// The wake queue (see events.go): next holds, in ascending index
	// order, the tenants that wake at the decision tick nextAt, the one
	// after the last processed tick; heap holds the sleepers, every one
	// due at or after nextAt. Both carry across run's until boundaries.
	next   []int
	nextAt int
	heap   wakeHeap
	awake  []int
	clock  int // pressure coverage: windows overlapping [0, clock) are polled

	// The tick being processed, read by step.
	tick, sevFrom int

	// Tenant-wakes processed, and those of them that came off the heap.
	wakes, heapWakes int64
}

// runGroups partitions the fleet into groups (see the file comment), runs
// every group's tick loop — in merge epochs when a split fleet streams
// events — and finishes the pressure coverage.
func (s *runState) runGroups() error {
	s.prepTenants()
	n := len(s.ts)
	idxs, offsets := s.partition()
	heapBack := make([]wakeEntry, n)
	nextBack := make([]int, n)
	awakeBack := make([]int, n)
	upsBack := make([]int, n)
	groups := make([]group, len(offsets)-1)
	arbs := make([]arbScratch, len(groups))
	split := len(groups) > 1
	var bufs []epochBuf
	if split && s.events {
		bufs = make([]epochBuf, len(groups))
	}
	d0 := s.nextDecisionAt(0)
	for k := range groups {
		// Carved three-index slices: a tenant holds at most one pending
		// wake, so no group's next-tick list, heap, awake list or scale-up
		// list outgrows its tenant count.
		lo, hi := offsets[k], offsets[k+1]
		g := &groups[k]
		g.runState = *s
		g.idxs = idxs[lo:hi]
		g.next = nextBack[lo:lo:hi]
		g.heap = heapBack[lo:lo:hi]
		g.awake = awakeBack[lo:lo:hi]
		g.ups = upsBack[lo:lo:hi]
		g.one = !split
		if split {
			// The groups fan out instead of each group's phase 1.
			g.finj = s.finj.Clone()
			g.arb = &arbs[k]
			g.workers = 1
		}
		if bufs != nil {
			g.buf = &bufs[k]
		}
		if d0 >= 0 {
			// Every tenant's first wake is the first decision tick.
			for _, i := range g.idxs {
				g.next = append(g.next, int(i))
			}
			g.nextAt = d0
		}
	}

	ctx := context.Background()
	var m *merger
	until, span := s.minutes, s.minutes // one pass: nothing to merge
	if bufs != nil && d0 >= 0 {
		m = &merger{}
		span = max(1, epochTenantTicks/n) * s.d
		until = d0 + span
	}
	epochs := 0
	for {
		err := parallel.ForEach(ctx, len(groups), s.workers, func(k int) error {
			return groups[k].run(until)
		})
		if err != nil {
			return err
		}
		if m != nil {
			s.merge(groups, m)
			epochs++
		}
		if until >= s.minutes {
			break
		}
		until += span
	}
	err := parallel.ForEach(ctx, len(groups), s.workers, func(k int) error {
		return groups[k].epilogue()
	})
	if err != nil {
		return err
	}
	if reg := s.h.Metrics; reg != nil {
		var wakes, heapWakes int64
		for k := range groups {
			wakes += groups[k].wakes
			heapWakes += groups[k].heapWakes
		}
		reg.Gauge("fleet.groups").Set(float64(len(groups)))
		reg.Counter("fleet.merge_epochs").Add(int64(epochs))
		reg.Counter("fleet.wakes").Add(wakes)
		reg.Counter("fleet.heap_wakes").Add(heapWakes)
	}

	clock := 0
	switch {
	case !split:
		clock = groups[0].clock
	case m != nil:
		clock = m.clock
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
	one := false
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

// run executes the group's tick loop over every decision tick before
// until, leaving later wakes queued for the next call. See events.go for
// the catch-up and sleep rules and the wake queue, and the file comment
// for what one group owns.
func (g *group) run(until int) error {
	ts := g.ts
	ctx := context.Background()
	heap := g.heap
	pressure := 0.0
	step := g.step // one method value for the call, not one per tick
	for {
		// The next tick is the earlier of the list's and the heap top's.
		d := -1
		if len(g.next) > 0 {
			d = g.nextAt
		}
		if len(heap) > 0 && (d < 0 || int(heap[0].at) < d) {
			d = int(heap[0].at)
		}
		if d < 0 || d >= until {
			break
		}

		// The awake set: the list, when it wakes at d, merged with the
		// heap's entries at d. Both are in ascending index order, so the
		// merge is too — phase 2's walk needs no sort.
		var list []int
		if len(g.next) > 0 && g.nextAt == d {
			list = g.next
			g.next = g.next[:0]
		}
		awake := g.awake[:0]
		for len(heap) > 0 && int(heap[0].at) == d {
			i := int(heap.pop().idx)
			for len(list) > 0 && list[0] < i {
				awake = append(awake, list[0])
				list = list[1:]
			}
			awake = append(awake, i)
			g.heapWakes++
		}
		awake = append(awake, list...)
		g.awake = awake
		g.wakes += int64(len(awake))

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
		// step touches one tenant's state; sleeping tenants are untouched
		// and, by the sleep contract, unchanged.
		if err := parallel.ForEach(ctx, len(awake), g.workers, step); err != nil {
			return err
		}

		// Phase 2 — sequential, over the awake subset (ascending index).
		g.enactTick(awake, pressure, d)

		// Requeue: a tenant due at the very next tick joins the list, in
		// the awake set's index order; only a sleeper pays for the heap.
		nd := g.nextDecisionAt(d + 1)
		for _, i := range awake {
			t := ts[i]
			if t.hasProp {
				// Only proposers can have been resized (granted, deferred
				// or fault-aborted — re-read either way).
				t.lim = t.set.CPULimit()
			}
			switch w := t.wakeAt; {
			case w < 0: // no decision tick left for it
			case w == nd:
				g.next = append(g.next, i)
			default:
				heap.push(wakeEntry{at: int32(w), idx: int32(i)})
			}
		}
		g.nextAt = nd
	}
	g.heap = heap
	return nil
}

// epilogue accounts every tenant's tail minutes after its last wake.
// Severity after the final decision is never read, so catch-up skips it
// (sevFrom = minutes).
func (g *group) epilogue() error {
	ts := g.ts
	return parallel.ForEach(context.Background(), len(g.idxs), g.workers, func(k int) error {
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
