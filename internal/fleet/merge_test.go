package fleet

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"caasper/internal/core"
	"caasper/internal/faults"
	"caasper/internal/hooks"
	"caasper/internal/k8s"
	"caasper/internal/obs"
	"caasper/internal/recommend"
	"caasper/internal/trace"
	"caasper/internal/workload"
)

// checkSplitStream runs a sink-attached fleet on the stepped oracle and
// on the tick loop at workers 1, 2 and 8, requiring bit-equal results and
// byte-identical event streams. It fails unless every tick-loop run split
// into node-disjoint groups, and returns the oracle's result and stream
// plus the last run's group and merge-epoch counts.
func checkSplitStream(t *testing.T, specs func() []TenantSpec, opts func() Options) (base *Result, baseStream string, groups, epochs int64) {
	t.Helper()
	base, baseStream = runFleet(t, specs(), opts(), true, 1)
	for _, w := range []int{1, 2, 8} {
		o := opts()
		reg := obs.NewRegistry()
		o.Metrics = reg
		res, stream := runFleet(t, specs(), o, false, w)
		groups, epochs = int64(reg.Gauge("fleet.groups").Value()), reg.Counter("fleet.merge_epochs").Value()
		if groups < 2 {
			t.Fatalf("workers=%d: the fleet ran as %d group; the test needs a split", w, groups)
		}
		if !reflect.DeepEqual(base, res) {
			t.Errorf("workers=%d: result diverged from the stepped oracle:\n%s\nvs\n%s",
				w, base.Summary(), res.Summary())
		}
		if stream != baseStream {
			t.Errorf("workers=%d: event stream diverged from the stepped oracle:\n%s",
				w, firstDiff(baseStream, stream))
		}
	}
	return base, baseStream, groups, epochs
}

// firstDiff renders the first differing event of two encoded streams
// (encodeStream concatenates the events without separators).
func firstDiff(want, got string) string {
	wl := strings.Split(strings.ReplaceAll(want, "}{", "}\n{"), "\n")
	gl := strings.Split(strings.ReplaceAll(got, "}{", "}\n{"), "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("event %d:\nwant %s\n got %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d events", len(wl), len(gl))
}

// streamEvent is the part of an NDJSON event the order tests read.
type streamEvent struct {
	T        int64   `json:"t"`
	Type     string  `json:"type"`
	Tenant   string  `json:"tenant"`
	From     int     `json:"from"`
	To       int     `json:"to"`
	Want     int     `json:"want"`
	Severity float64 `json:"severity"`

	Contenders int `json:"contenders"`
	Granted    int `json:"granted"`
	Deferred   int `json:"deferred"`
}

// parseStream decodes every event of an encoded stream.
func parseStream(t *testing.T, stream string) []streamEvent {
	t.Helper()
	var evs []streamEvent
	dec := json.NewDecoder(strings.NewReader(stream))
	for dec.More() {
		var e streamEvent
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("bad stream: %v", err)
		}
		evs = append(evs, e)
	}
	return evs
}

// The epoch fleet decides every minute, so the derived merge epoch
// (epochTenantTicks / 256 tenants = 64 ticks) is 64 minutes long and a
// 200-minute run merges in three epochs.
const (
	epochFleetTenants = 256
	epochFleetMinutes = 200
)

// epochFleetSpecs builds 256 single-pod tenants over eight shared traces,
// so tenants replaying the same trace in different groups tie on
// severity.
func epochFleetSpecs(t *testing.T) []TenantSpec {
	t.Helper()
	gens := []func(seed uint64) *trace.Trace{
		workload.Workday12h, workload.Cyclical3Day, workload.StepTrace62h, workload.CustomerTrace,
	}
	traces := make([]*trace.Trace, 8)
	for k := range traces {
		traces[k] = gens[k%len(gens)](uint64(k) + 1)
	}
	specs := make([]TenantSpec, epochFleetTenants)
	for i := range specs {
		specs[i] = TenantSpec{
			Name:  fmt.Sprintf("e%03d", i),
			Trace: traces[i%len(traces)],
			NewRecommender: func() (recommend.Recommender, error) {
				return recommend.NewCaaSPERReactive(core.DefaultConfig(8), 40)
			},
			Resources:    core.CPURange(1, 1, 8),
			Replicas:     1,
			MemGiBPerPod: 1,
		}
	}
	return specs
}

// epochFleetOpts places the epoch fleet on 16 nodes of 40 cores — 16
// tenants each, so scale-ups contend — deciding every minute after a
// 10-minute warm-up, with restart-fail, metrics-gap and hour-long
// sched-pressure windows, whose edges fall inside epochs.
func epochFleetOpts(t *testing.T) Options {
	t.Helper()
	spec, err := faults.ParseSpec("restart-fail:p=0.2,metrics-gap:p=0.05,sched-pressure:p=0.5:dur=60:cores=4")
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*k8s.Node, 16)
	for i := range nodes {
		nodes[i] = k8s.NewNode(fmt.Sprintf("node-%02d", i), 40, 1024)
	}
	cluster, err := k8s.NewCluster(nodes...)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Cluster = cluster
	opts.Minutes = epochFleetMinutes
	opts.DecisionEveryMinutes = 1
	opts.WarmupMinutes = 10
	opts.FaultSpec = spec
	opts.FaultSeed = 7
	return opts
}

// TestSplitStreamEquivalenceEpochs pins a sink-attached split run whose
// horizon spans several merge epochs to the stepped oracle, stream byte
// for byte, at workers 1, 2 and 8: the groups' buffered events, the
// summed arbitration tallies and the shared injector's pressure edges
// must interleave exactly as the one-group loop emits them.
func TestSplitStreamEquivalenceEpochs(t *testing.T) {
	base, stream, _, epochs := checkSplitStream(t,
		func() []TenantSpec { return epochFleetSpecs(t) },
		func() Options { return epochFleetOpts(t) })
	if epochs < 3 {
		t.Fatalf("run merged in %d epoch(s); the test needs several", epochs)
	}
	if base.TotalDeferrals == 0 || base.PressureWindows == 0 {
		t.Fatalf("fleet never contended (%d deferrals, %d pressure windows)", base.TotalDeferrals, base.PressureWindows)
	}
	// The first epoch covers ticks 10..73; require pressure edges and
	// phase-2 events after it, so later merges are exercised too.
	late := map[string]bool{}
	for _, e := range parseStream(t, stream) {
		if e.T >= 74 && e.Type != "fleet.tenant" {
			late[e.Type] = true
		}
	}
	for _, typ := range []string{"fault.sched-pressure", "fleet.arbitration", "fleet.resize", "fleet.deferred", "fleet.resize-aborted"} {
		if !late[typ] {
			t.Errorf("no %s event after the first epoch", typ)
		}
	}
}

// TestSplitStreamEquivalenceSleepers pins the wake queue's carry-over
// across merge epochs: every group mixes tenants that are awake at every
// tick (noisy traces: they ride the next-tick list) with plateau tenants
// that sleep between demand edges (they ride the heap), and the edges
// fall on both sides of the first epoch's end, so the list is non-empty
// and sleepers are pending at every until boundary. The stream and
// result must match the stepped oracle byte for byte.
func TestSplitStreamEquivalenceSleepers(t *testing.T) {
	specs := func() []TenantSpec {
		specs := epochFleetSpecs(t)
		for i := range specs {
			if i%3 != 0 {
				continue
			}
			// Held at 4 cores by the floor on the low level, and scaled
			// up to a new fixed point on the high one: the tenant wakes
			// off the heap at each edge, proposes beside the list's
			// tenants, and sleeps again once steady.
			up, down := 60+i%29, 140+i%17
			vs := make([]float64, epochFleetMinutes)
			for m := range vs {
				vs[m] = 1
				if m >= up && m < down {
					vs[m] = 5
				}
			}
			specs[i].Trace = trace.New(fmt.Sprintf("plateau-%03d", i), time.Minute, vs)
			specs[i].Resources = core.CPURange(4, 4, 8)
		}
		return specs
	}
	opts := func() Options {
		o := epochFleetOpts(t)
		o.Metrics = obs.NewRegistry()
		return o
	}
	_, _, groups, epochs := checkSplitStream(t, specs, opts)
	if epochs < 3 {
		t.Fatalf("run merged in %d epoch(s); the test needs several", epochs)
	}
	o := opts()
	o.Events = obs.NewMemorySink()
	if _, err := Run(specs(), o); err != nil {
		t.Fatal(err)
	}
	wakes, heapWakes := o.Metrics.Counter("fleet.wakes").Value(), o.Metrics.Counter("fleet.heap_wakes").Value()
	// Each sleeper wakes off the heap at least at its up edge.
	if sleepers := int64(epochFleetTenants+2) / 3; heapWakes < sleepers || heapWakes >= wakes {
		t.Fatalf("%d groups: %d wakes, %d off the heap; want ≥ %d sleeper wakes among the list's", groups, wakes, heapWakes, sleepers)
	}
}

// scriptRec proposes plan(m) after observing minute m: a policy whose
// proposals are fixed in time, for merge-order tests.
type scriptRec struct {
	last int
	plan func(m int) int
}

func (r *scriptRec) Name() string             { return "script" }
func (r *scriptRec) Observe(m int, _ float64) { r.last = m }
func (r *scriptRec) Recommend(int) int        { return r.plan(r.last) }
func (r *scriptRec) Reset()                   {}

// TestSplitStreamOrder pins the merge order on a two-group fleet built so
// that concatenating the groups' buffers would get it wrong. The spread
// scheduler puts t0 and t2 on node-a and t1 and t3 on node-b. At tick 10
// t0's release comes first; t1 and t2 (same trace, different groups) tie
// on severity and are granted in index order although t2's group comes
// first; t3 is deferred; one arbitration event sums both groups' tallies.
// At tick 20 t3's release (node-b) precedes t2's scale-up (node-a)
// although t2 has the lower index.
func TestSplitStreamOrder(t *testing.T) {
	const minutes = 40
	tenant := func(name string, demand float64, before, after int) TenantSpec {
		return TenantSpec{
			Name:  name,
			Trace: flatTrace(name, minutes, demand),
			NewRecommender: func() (recommend.Recommender, error) {
				return &scriptRec{plan: func(m int) int {
					if m < 20 {
						return before
					}
					return after
				}}, nil
			},
			Resources:    core.CPURange(2, 1, 8),
			Replicas:     1,
			MemGiBPerPod: 1,
		}
	}
	specs := func() []TenantSpec {
		return []TenantSpec{
			tenant("t0", 1, 1, 1),
			tenant("t1", 6, 6, 6),
			tenant("t2", 6, 6, 7),
			tenant("t3", 3, 3, 1),
		}
	}
	opts := func() Options {
		cluster, err := k8s.NewCluster(k8s.NewNode("node-a", 8, 32), k8s.NewNode("node-b", 8, 32))
		if err != nil {
			t.Fatal(err)
		}
		o := DefaultOptions()
		o.Cluster = cluster
		o.Minutes = minutes
		return o
	}
	_, stream, groups, _ := checkSplitStream(t, specs, opts)
	if groups != 2 {
		t.Fatalf("fleet ran as %d groups, want 2", groups)
	}

	var got []string
	for _, e := range parseStream(t, stream) {
		switch e.Type {
		case "fleet.resize", "fleet.deferred":
			got = append(got, fmt.Sprintf("%d %s %s %d→%d sev=%g", e.T, e.Type, e.Tenant, e.From, e.To+e.Want, e.Severity))
		case "fleet.arbitration":
			got = append(got, fmt.Sprintf("%d %s %d/%d/%d", e.T, e.Type, e.Contenders, e.Granted, e.Deferred))
		}
	}
	want := []string{
		"10 fleet.resize t0 2→1 sev=0",
		"10 fleet.resize t1 2→6 sev=44",
		"10 fleet.resize t2 2→6 sev=44",
		"10 fleet.deferred t3 2→3 sev=11",
		"10 fleet.arbitration 3/2/1",
		"20 fleet.resize t3 2→1 sev=10",
		"20 fleet.resize t2 6→7 sev=0",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("phase-2 events:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestMergeReusesBuffers pins the epoch merge's memory bound: once the
// group buffers have grown to an epoch's size, later epochs merge without
// allocating (the merge reads the buffers in place), and every merged
// slot is cleared so no emitted event's fields stay reachable from them.
func TestMergeReusesBuffers(t *testing.T) {
	s := &runState{h: hooks.RunHooks{Events: obs.NewNDJSONSink(io.Discard)}, events: true}
	groups := make([]group, 3)
	bufs := make([]epochBuf, len(groups))
	for k := range groups {
		groups[k].buf = &bufs[k]
	}
	fields := []obs.Field{obs.S("tenant", "x")}
	m := &merger{}
	epoch := func() {
		for k := range bufs {
			b := &bufs[k]
			for d := 0; d < 16; d++ {
				b.ticks = append(b.ticks, tickTally{at: int32(d), contenders: 1, granted: 1})
				b.evs = append(b.evs, keyedEvent{
					key: mergeKey{idx: int32(k), up: true, sev: float64(d % 3)},
					ev:  obs.Event{T: int64(d), Type: "fleet.resize", Fields: fields},
				})
			}
		}
		s.merge(groups, m)
	}
	epoch()
	if n := testing.AllocsPerRun(20, epoch); n != 0 {
		t.Errorf("merge allocated %v times per epoch after the first, want 0", n)
	}
	retained := func(evs []keyedEvent) bool {
		for _, e := range evs[:cap(evs)] {
			if e.ev.Fields != nil {
				return true
			}
		}
		return false
	}
	for k := range bufs {
		if len(bufs[k].evs) != 0 || len(bufs[k].ticks) != 0 || retained(bufs[k].evs) {
			t.Errorf("group %d buffer not emptied and cleared after the merge", k)
		}
	}
}

// randomEpoch builds one epoch of group buffers as split groups fill
// them: tenant i belongs to group i mod len(bufs); a group processes
// each of ticks ticks with probability pTick, and at a processed tick
// each of its tenants emits one or two events with probability pEvent,
// in the group's own order, before the tick's tally. Every event carries
// a serial number, so reordered events show in the encoded stream.
func randomEpoch(rng *rand.Rand, bufs []epochBuf, tenants, ticks int, pTick, pEvent float64) {
	serial := int64(0)
	for g := range bufs {
		b := &bufs[g]
		for d := 0; d < ticks; d++ {
			if rng.Float64() >= pTick {
				continue
			}
			start := len(b.evs)
			for i := g; i < tenants; i += len(bufs) {
				if rng.Float64() >= pEvent {
					continue
				}
				key := mergeKey{idx: int32(i), up: rng.Intn(2) == 0}
				if key.up {
					key.sev = float64(rng.Intn(3))
				}
				for n := 1 + rng.Intn(2); n > 0; n-- {
					serial++
					b.evs = append(b.evs, keyedEvent{key: key, ev: obs.Event{
						T: int64(d), Type: "fleet.resize", Fields: []obs.Field{obs.I("idx", int64(i)), obs.I("serial", serial)},
					}})
				}
			}
			slices.SortStableFunc(b.evs[start:], func(x, y keyedEvent) int {
				if before(x.key, y.key) {
					return -1
				}
				if before(y.key, x.key) {
					return 1
				}
				return 0
			})
			b.ticks = append(b.ticks, tickTally{at: int32(d), contenders: int32(rng.Intn(3)), granted: int32(rng.Intn(2)), deferred: int32(rng.Intn(2))})
		}
	}
}

// sortedMerge is the merge's reference: every group's events stably
// sorted together by (tick, key), every tally summed per tick.
func sortedMerge(bufs []epochBuf, sink obs.Sink) {
	var evs []keyedEvent
	var ticks []tickTally
	for g := range bufs {
		evs = append(evs, bufs[g].evs...)
		ticks = append(ticks, bufs[g].ticks...)
	}
	slices.SortStableFunc(evs, func(a, b keyedEvent) int {
		if c := cmp.Compare(a.ev.T, b.ev.T); c != 0 {
			return c
		}
		if before(a.key, b.key) {
			return -1
		}
		if before(b.key, a.key) {
			return 1
		}
		return 0
	})
	slices.SortStableFunc(ticks, func(a, b tickTally) int { return cmp.Compare(a.at, b.at) })
	e := 0
	for j := 0; j < len(ticks); {
		d := ticks[j].at
		var contenders, granted, deferred int
		for ; j < len(ticks) && ticks[j].at == d; j++ {
			contenders += int(ticks[j].contenders)
			granted += int(ticks[j].granted)
			deferred += int(ticks[j].deferred)
		}
		for ; e < len(evs) && evs[e].ev.T == int64(d); e++ {
			sink.Emit(evs[e].ev)
		}
		if deferred > 0 {
			sink.Emit(arbitrationEvent(int(d), contenders, granted, deferred, 0))
		}
	}
}

// TestMergeMatchesSort holds the k-way merge to a stable sort of the
// concatenated group buffers, from one group to more groups than
// tenants, with same-key runs, idle groups and ticks no group shares.
func TestMergeMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := &merger{}
	for trial := 0; trial < 200; trial++ {
		groups := make([]group, 1+rng.Intn(40))
		bufs := make([]epochBuf, len(groups))
		for k := range groups {
			groups[k].buf = &bufs[k]
		}
		randomEpoch(rng, bufs, 1+rng.Intn(60), 1+rng.Intn(12), rng.Float64(), rng.Float64())
		var want, got bytes.Buffer
		ref := obs.NewNDJSONSink(&want)
		sortedMerge(bufs, ref)
		sink := obs.NewNDJSONSink(&got)
		s := &runState{h: hooks.RunHooks{Events: sink}, events: true}
		s.merge(groups, m)
		if err := errors.Join(ref.Flush(), sink.Flush()); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("trial %d (%d groups): merge diverged from the sort:\n%s", trial, len(groups), firstLineDiff(want.String(), got.String()))
		}
	}
}

// firstLineDiff renders the first differing line of two NDJSON streams.
func firstLineDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\nwant %s\n got %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d lines", len(wl), len(gl))
}

// BenchmarkMerge times one epoch's merge (16 ticks, 1024 tenants, each
// emitting at a tick with probability 1/4) as the fleet splits into more
// groups, up to one group per tenant. The events go to a disabled sink,
// so the time is the merge's own.
func BenchmarkMerge(b *testing.B) {
	for _, g := range []int{6, 64, 1024} {
		b.Run(fmt.Sprintf("groups=%d", g), func(b *testing.B) {
			tmpl := make([]epochBuf, g)
			randomEpoch(rand.New(rand.NewSource(1)), tmpl, 1024, 16, 1, 0.25)
			groups := make([]group, g)
			bufs := make([]epochBuf, g)
			for k := range groups {
				groups[k].buf = &bufs[k]
			}
			s := &runState{h: hooks.RunHooks{Events: obs.Discard}, events: true}
			m := &merger{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for k := range bufs {
					bufs[k].evs = append(bufs[k].evs[:0], tmpl[k].evs...)
					bufs[k].ticks = append(bufs[k].ticks[:0], tmpl[k].ticks...)
				}
				s.merge(groups, m)
			}
		})
	}
}
