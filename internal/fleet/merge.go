package fleet

// merge.go rebuilds the one-group event stream from a split run. With a
// sink attached, node-disjoint groups (shard.go) run concurrently in
// epochs of decision ticks; each buffers its phase-2 events with the key
// that fixes their place in the one group's walk, and the merge of each
// epoch emits them while the groups run the next one. Per decision tick
// the one group emits, in order:
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
//
// The merge touches only the authoritative injector, the merger and the
// sink, none of which a split group uses (each holds an injector clone),
// so it runs beside the groups: epochRun (below) schedules the groups'
// epochs and the merges without a barrier between epochs, over two
// buffer sets, one being written while the other is merged.

import (
	"sync"
	"time"

	"caasper/internal/obs"
	"caasper/internal/parallel"
)

// epochTenantTicks bounds one merge epoch: the groups run
// epochTenantTicks / tenants decision ticks (at least one) before their
// buffers are handed to the merge — 200 tenants merge every 81 ticks,
// 16k or more every tick — which bounds the buffered events to two
// epochs (one being written, one being merged) independently of the
// horizon. It is a variable only so that tests can shorten the epochs.
var epochTenantTicks = 1 << 14

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

// epochBuf is one group's phase-2 output for one epoch: its events in
// emission order and one tally per processed tick. fields is the arena
// behind the events' Fields (see emit), in chunks of fieldChunk fields:
// fields[:full] are full and fields[full] is being filled. A full chunk
// is never moved, so the events' slices into it stay valid without
// copying the arena as it grows, and the chunks are reused from epoch to
// epoch, so a buffered event costs no allocation once the arena has
// grown to an epoch's size.
type epochBuf struct {
	evs    []keyedEvent
	ticks  []tickTally
	fields [][]obs.Field
	full   int
}

// fieldChunk is the fields arena's chunk length: 28 KB of obs.Field, so
// a chunk stays below the runtime's 32 KB large-object size.
const fieldChunk = 512

// keep copies fs into the arena and returns the copy, capped so that an
// append to it cannot reach the next event's fields.
func (b *epochBuf) keep(fs []obs.Field) []obs.Field {
	for b.full < len(b.fields) && cap(b.fields[b.full])-len(b.fields[b.full]) < len(fs) {
		b.full++
	}
	if b.full == len(b.fields) {
		b.fields = append(b.fields, make([]obs.Field, 0, max(fieldChunk, len(fs))))
	}
	c := &b.fields[b.full]
	start := len(*c)
	*c = append(*c, fs...)
	return (*c)[start:len(*c):len(*c)]
}

// merger is the merge's state, reused across epochs.
type merger struct {
	// next holds two cursors per group: its next unmerged event, then
	// its next unmerged tally.
	next []int
	// ticks heaps the groups with unmerged tallies by their next tally's
	// tick; evs heaps the groups with an unmerged event at the tick being
	// merged by that event's key.
	ticks  tickHeap
	evs    evHeap
	clock  int         // the shared injector's pressure coverage
	fields []obs.Field // the arbitration events' Fields scratch
}

// epochRun runs a split, sink-attached fleet in merge epochs. Every group
// runs the epochs in order, epoch e into the buffer set sets[e%2], and
// the merge takes the epochs in order. There is no barrier between
// epochs: a group may start epoch e once the merge of epoch e-2 has
// emptied its set, the merge of epoch e may start once every group has
// finished it, and a group's epilogue follows its last epoch. So the
// merge of epoch e runs beside the groups' epoch e+1 and no group runs
// more than one epoch ahead of the slowest. A worker takes a ready merge
// before a ready group, because the merge is what frees a buffer set.
//
// The merge touches only the authoritative injector, the merger and the
// sink, and a split group touches none of them (it holds an injector
// clone and emits into its buffer), so the two never race; the stream is
// the same for every schedule, because the merge is the sink's one
// writer and takes the epochs in order.
type epochRun struct {
	s      *runState
	groups []group
	m      merger
	sets   [2][]epochBuf
	d0     int // the first decision tick
	span   int // minutes per epoch
	epochs int

	mu   sync.Mutex
	wake sync.Cond // broadcast after every finished task
	// next is, per group, the next epoch it runs; epochs means its
	// epilogue, epochs+1 that it is done.
	next []int
	// ready is a ring of the groups whose next task may start, from head;
	// blocked holds the groups whose next epoch waits for a merge.
	ready        []int
	head, nready int
	blocked      []int
	finished     [2]int // groups done with each unmerged epoch, by parity
	merged, done int    // epochs merged, groups past their epilogue
	merging      bool
	err          error
	mergeTime    time.Duration
	tailTime     time.Duration // the last epoch's merge
}

// newEpochRun prepares the epochs of a split run whose first decision
// tick is d0: epochTenantTicks / tenants decision ticks each, at least
// one, until the horizon.
func newEpochRun(s *runState, groups []group, d0 int) *epochRun {
	span := max(1, epochTenantTicks/len(s.ts)) * s.d
	r := &epochRun{
		s: s, groups: groups, d0: d0, span: span,
		epochs: max(1, (s.minutes-d0+span-1)/span),
		next:   make([]int, len(groups)),
		ready:  make([]int, len(groups)),
		nready: len(groups),
	}
	for k := range groups {
		r.ready[k] = k
	}
	r.sets = [2][]epochBuf{make([]epochBuf, len(groups)), make([]epochBuf, len(groups))}
	r.wake.L = &r.mu
	return r
}

// run works the epochs on the run's workers and returns the first error.
func (r *epochRun) run() error {
	var wg sync.WaitGroup
	for w := parallel.Workers(r.s.workers, len(r.groups)+1); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.work()
		}()
	}
	r.work()
	wg.Wait()
	return r.err
}

// work takes ready tasks until every epoch is merged and every group is
// done, or a task fails.
func (r *epochRun) work() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.err == nil && (r.merged < r.epochs || r.done < len(r.groups)) {
		switch e := r.merged; {
		case !r.merging && e < r.epochs && r.finished[e%2] == len(r.groups):
			r.merging = true
			r.mu.Unlock()
			t0 := time.Now()
			r.s.merge(r.sets[e%2], &r.m)
			took := time.Since(t0)
			r.mu.Lock()
			r.merging = false
			r.mergeTime += took
			if e == r.epochs-1 {
				r.tailTime = took
			}
			r.finished[e%2] = 0
			r.merged++
			for _, k := range r.blocked {
				r.push(k)
			}
			r.blocked = r.blocked[:0]
		case r.nready > 0:
			k := r.ready[r.head]
			r.head = (r.head + 1) % len(r.ready)
			r.nready--
			e := r.next[k]
			r.mu.Unlock()
			err := r.step(k, e)
			r.mu.Lock()
			if err != nil {
				r.err = err // every worker stops at its next task
				break
			}
			r.next[k] = e + 1
			if e < r.epochs {
				r.finished[e%2]++
			}
			switch {
			case e == r.epochs:
				r.done++
			case e+1 < r.epochs && r.merged < e:
				// Epoch e+1 reuses the set of epoch e-1, not merged yet.
				r.blocked = append(r.blocked, k)
			default:
				r.push(k)
			}
		default:
			r.wake.Wait()
			continue
		}
		r.wake.Broadcast()
	}
}

// push queues group k's next task.
func (r *epochRun) push(k int) {
	r.ready[(r.head+r.nready)%len(r.ready)] = k
	r.nready++
}

// step runs group k's epoch e into its buffer, or its epilogue after the
// last epoch.
func (r *epochRun) step(k, e int) error {
	g := &r.groups[k]
	if e == r.epochs {
		return g.epilogue()
	}
	g.buf = &r.sets[e%2][k]
	return g.run(r.d0 + (e+1)*r.span)
}

// emit sends one phase-2 event: into the group's epoch buffer, keyed by
// the tenant being enacted, when the fleet runs split; straight to the
// sink otherwise. The caller may reuse ev.Fields' backing array once emit
// returns (the obs.Sink contract): a buffered event's fields are copied
// into the buffer's arena.
func (s *runState) emit(ev obs.Event) {
	if b := s.buf; b != nil {
		ev.Fields = b.keep(ev.Fields)
		b.evs = append(b.evs, keyedEvent{key: s.enacting, ev: ev})
		return
	}
	s.h.Events.Emit(ev)
}

// arbitrationEvent summarizes a tick on which the arbiter deferred. Its
// fields are built in fields' backing array, which the caller reuses.
func arbitrationEvent(fields []obs.Field, now int, contenders, granted, deferred int, pressure float64) obs.Event {
	return obs.Event{T: int64(now), Type: "fleet.arbitration", Fields: append(fields[:0],
		obs.I("contenders", int64(contenders)),
		obs.I("granted", int64(granted)),
		obs.I("deferred", int64(deferred)),
		obs.F("pressure", pressure),
	)}
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

// merge emits one epoch's buffered events, one buffer per group, in the
// one-group order (see the file comment) and empties the buffers for a
// later epoch.
func (s *runState) merge(bufs []epochBuf, m *merger) {
	if cap(m.next) < 2*len(bufs) {
		m.next = make([]int, 2*len(bufs))
	}
	next := m.next[:2*len(bufs)]
	clear(next)
	ev, tk := next[:len(bufs)], next[len(bufs):]
	th := m.ticks[:0]
	for k := range bufs {
		if ts := bufs[k].ticks; len(ts) > 0 {
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
			b := &bufs[k]
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
			evs := bufs[k].evs
			s.h.Events.Emit(evs[ev[k]].ev)
			if ev[k]++; ev[k] < len(evs) && evs[ev[k]].ev.T == int64(d) {
				eh[0].key = evs[ev[k]].key
				eh.down(0)
			} else {
				eh.pop()
			}
		}
		if deferred > 0 {
			e := arbitrationEvent(m.fields, int(d), contenders, granted, deferred, pressure)
			m.fields = e.Fields
			s.h.Events.Emit(e)
		}
	}
	m.ticks, m.evs = th, eh
	for k := range bufs {
		b := &bufs[k]
		// Drop the events' and the arena's references (the fields' strings).
		clear(b.evs)
		b.evs, b.ticks = b.evs[:0], b.ticks[:0]
		for i := range b.fields[:min(b.full+1, len(b.fields))] {
			clear(b.fields[i])
			b.fields[i] = b.fields[i][:0]
		}
		b.full = 0
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
