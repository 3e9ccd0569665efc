package fleet

// merge.go rebuilds the one-group event stream from a split run. With a
// sink attached, node-disjoint groups (shard.go) run concurrently in
// epochs of decision ticks; each buffers its phase-2 events with the key
// that fixes their place in the one group's walk, and after every epoch
// a serial merge emits them. Per decision tick the one group emits, in
// order:
//
//  1. the shared injector's pressure edges for minutes ≤ the tick
//     (AdvancePressure up to tick+1), once for every tick any group
//     processed — the union is the one group's tick set, because each
//     tenant computes its wakes from its own state alone;
//  2. the releases (non-growing proposals), ascending tenant index;
//  3. the scale-ups, most severe first and tenant index on ties — the
//     arbiter's own order, which restricted to one group is that group's
//     order, and whose grants do not depend on other groups' tenants;
//  4. one "fleet.arbitration" event when the deferrals summed over the
//     groups are non-zero, carrying the summed tallies and the tick's
//     pressure (every clone draws the same value).
//
// Each group's buffer is already in that order restricted to the group:
// its ticks ascend, and at each tick enactPhase walks the releases by
// index and then the scale-ups in the arbiter's order. So the merge is a
// k-way merge of the group buffers, with no sort. The groups wait on a
// min-heap by their next tally's tick; at the earliest tick d it sums
// the tallies of the groups there, and those groups' events at d pass
// through a second heap keyed by their head event, which emits the least
// head until none is left at d. Only those groups can have events at d:
// a group that emits at d processed d, and enactTick records its tally
// there after the events. An epoch costs O((E + T) log G) for E events,
// T tallies and G groups, which matters because a fleet can split into
// as many groups as it has nodes. Keys of different groups never tie (tenant indices are
// unique), and one tenant's events, which share one key, stay in
// emission order. Per-tenant fault events and the "fleet.run" and
// "fleet.tenant" events do not pass through here.

import "caasper/internal/obs"

// epochTenantTicks bounds one merge epoch: the groups run
// epochTenantTicks / tenants decision ticks (at least one) before
// merging — 200 tenants merge every 81 ticks, 16k or more every tick —
// which bounds the buffered events independently of the horizon.
const epochTenantTicks = 1 << 14

// mergeKey places a tenant's phase-2 events within their tick: releases
// before scale-ups, releases by index, scale-ups by (severity desc,
// index asc).
type mergeKey struct {
	idx int32
	up  bool
	sev float64
}

// keyedEvent is one buffered phase-2 event.
type keyedEvent struct {
	key mergeKey
	ev  obs.Event
}

// tickTally is one group's arbitration tallies at one processed tick.
type tickTally struct {
	at                            int32
	contenders, granted, deferred int32
}

// epochBuf is one group's phase-2 output for the current epoch: its
// events in emission order and one tally per processed tick.
type epochBuf struct {
	evs   []keyedEvent
	ticks []tickTally
}

// merger is the serial merge's state, reused across epochs.
type merger struct {
	// next holds two cursors per group: its next unmerged event, then
	// its next unmerged tally.
	next []int
	// ticks heaps the groups with unmerged tallies by their next tally's
	// tick; evs heaps the groups with an unmerged event at the tick being
	// merged by that event's key.
	ticks tickHeap
	evs   evHeap
	clock int // the shared injector's pressure coverage
}

// emit sends one phase-2 event: into the group's epoch buffer, keyed by
// the tenant being enacted, when the fleet runs split; straight to the
// sink otherwise.
func (s *runState) emit(ev obs.Event) {
	if b := s.buf; b != nil {
		b.evs = append(b.evs, keyedEvent{key: s.enacting, ev: ev})
		return
	}
	s.h.Events.Emit(ev)
}

// arbitrationEvent summarizes a tick on which the arbiter deferred.
func arbitrationEvent(now int, contenders, granted, deferred int, pressure float64) obs.Event {
	return obs.Event{T: int64(now), Type: "fleet.arbitration", Fields: []obs.Field{
		obs.I("contenders", int64(contenders)),
		obs.I("granted", int64(granted)),
		obs.I("deferred", int64(deferred)),
		obs.F("pressure", pressure),
	}}
}

// before reports whether the event keyed a goes before the one keyed b
// at the same tick: releases before scale-ups, releases by index,
// scale-ups by (severity desc, index asc).
func before(a, b mergeKey) bool {
	if a.up != b.up {
		return b.up
	}
	if a.up && a.sev != b.sev {
		return a.sev > b.sev
	}
	return a.idx < b.idx
}

// merge emits the epoch's buffered events in the one-group order (see the
// file comment) and empties the groups' buffers for the next epoch.
func (s *runState) merge(groups []group, m *merger) {
	if cap(m.next) < 2*len(groups) {
		m.next = make([]int, 2*len(groups))
	}
	next := m.next[:2*len(groups)]
	clear(next)
	ev, tk := next[:len(groups)], next[len(groups):]
	th := m.ticks[:0]
	for k := range groups {
		if ts := groups[k].buf.ticks; len(ts) > 0 {
			th = append(th, newTickHead(ts[0].at, k))
		}
	}
	th.init()
	eh := m.evs[:0]
	for len(th) > 0 {
		d := th[0].at()
		var contenders, granted, deferred int
		for len(th) > 0 && th[0].at() == d {
			k := th[0].group()
			b := groups[k].buf
			t := b.ticks[tk[k]]
			contenders += int(t.contenders)
			granted += int(t.granted)
			deferred += int(t.deferred)
			if i := ev[k]; i < len(b.evs) && b.evs[i].ev.T == int64(d) {
				eh = append(eh, evEntry{b.evs[i].key, int32(k)})
			}
			if tk[k]++; tk[k] < len(b.ticks) {
				th[0] = newTickHead(b.ticks[tk[k]].at, k)
				th.down(0)
			} else {
				th.pop()
			}
		}
		pressure := 0.0
		if s.finj != nil {
			pressure = s.finj.AdvancePressure(int64(m.clock), int64(d)+1)
		}
		m.clock = int(d) + 1
		eh.init()
		for len(eh) > 0 {
			k := eh[0].group
			evs := groups[k].buf.evs
			s.h.Events.Emit(evs[ev[k]].ev)
			if ev[k]++; ev[k] < len(evs) && evs[ev[k]].ev.T == int64(d) {
				eh[0].key = evs[ev[k]].key
				eh.down(0)
			} else {
				eh.pop()
			}
		}
		if deferred > 0 {
			s.h.Events.Emit(arbitrationEvent(int(d), contenders, granted, deferred, pressure))
		}
	}
	m.ticks, m.evs = th, eh
	for k := range groups {
		b := groups[k].buf
		clear(b.evs) // drop the Fields references
		b.evs, b.ticks = b.evs[:0], b.ticks[:0]
	}
}

// tickHead packs a group's next tally tick above its index, so that one
// integer comparison orders the tick heap.
type tickHead uint64

func newTickHead(at int32, k int) tickHead {
	return tickHead(uint64(uint32(at))<<32 | uint64(uint32(k)))
}
func (h tickHead) at() int32  { return int32(h >> 32) }
func (h tickHead) group() int { return int(uint32(h)) }

// tickHeap is a binary min-heap of tick heads.
type tickHeap []tickHead

func (h tickHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h tickHeap) down(i int) {
	for {
		l, m := 2*i+1, i
		if l < len(h) && h[l] < h[m] {
			m = l
		}
		if l+1 < len(h) && h[l+1] < h[m] {
			m = l + 1
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func (h *tickHeap) pop() {
	q := *h
	n := len(q) - 1
	q[0] = q[n]
	*h = q[:n]
	(*h).down(0)
}

// evEntry is a group whose next event falls at the tick being merged,
// with that event's key.
type evEntry struct {
	key   mergeKey
	group int32
}

// evHeap is a binary min-heap of event heads under before.
type evHeap []evEntry

func (h evHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h evHeap) down(i int) {
	for {
		l, m := 2*i+1, i
		if l < len(h) && before(h[l].key, h[m].key) {
			m = l
		}
		if l+1 < len(h) && before(h[l+1].key, h[m].key) {
			m = l + 1
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func (h *evHeap) pop() {
	q := *h
	n := len(q) - 1
	q[0] = q[n]
	*h = q[:n]
	(*h).down(0)
}
