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
// One tenant's events keep their emission order: they share one key, and
// the sort is stable. Per-tenant fault events and the "fleet.run" and
// "fleet.tenant" events do not pass through here.

import (
	"cmp"
	"slices"

	"caasper/internal/obs"
)

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
	evs   []keyedEvent
	ticks []tickTally
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

// merge emits the epoch's buffered events in the one-group order (see the
// file comment) and empties the groups' buffers for the next epoch.
func (s *runState) merge(groups []group, m *merger) {
	for k := range groups {
		b := groups[k].buf
		m.evs = append(m.evs, b.evs...)
		m.ticks = append(m.ticks, b.ticks...)
		clear(b.evs) // drop the Fields references
		b.evs, b.ticks = b.evs[:0], b.ticks[:0]
	}
	slices.SortStableFunc(m.evs, func(a, b keyedEvent) int {
		if c := cmp.Compare(a.ev.T, b.ev.T); c != 0 {
			return c
		}
		ka, kb := a.key, b.key
		if ka.up != kb.up {
			if kb.up {
				return -1
			}
			return 1
		}
		if ka.up && ka.sev != kb.sev {
			if ka.sev > kb.sev {
				return -1
			}
			return 1
		}
		return cmp.Compare(ka.idx, kb.idx)
	})
	slices.SortFunc(m.ticks, func(a, b tickTally) int { return cmp.Compare(a.at, b.at) })

	e := 0
	for j := 0; j < len(m.ticks); {
		d := int(m.ticks[j].at)
		var contenders, granted, deferred int
		for ; j < len(m.ticks) && int(m.ticks[j].at) == d; j++ {
			contenders += int(m.ticks[j].contenders)
			granted += int(m.ticks[j].granted)
			deferred += int(m.ticks[j].deferred)
		}
		pressure := 0.0
		if s.finj != nil {
			pressure = s.finj.AdvancePressure(int64(m.clock), int64(d+1))
		}
		m.clock = d + 1
		for ; e < len(m.evs) && m.evs[e].ev.T == int64(d); e++ {
			s.h.Events.Emit(m.evs[e].ev)
		}
		if deferred > 0 {
			s.h.Events.Emit(arbitrationEvent(d, contenders, granted, deferred, pressure))
		}
	}
	clear(m.evs)
	m.evs, m.ticks = m.evs[:0], m.ticks[:0]
}
