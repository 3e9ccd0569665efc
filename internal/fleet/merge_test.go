package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
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
// group buffers and the merge slice have grown to an epoch's size, later
// epochs merge without allocating, and every merged slot is cleared so
// no emitted event's fields stay reachable from the buffers.
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
	if retained(m.evs) {
		t.Error("merge slice still holds event fields after the merge")
	}
	for k := range bufs {
		if len(bufs[k].evs) != 0 || len(bufs[k].ticks) != 0 || retained(bufs[k].evs) {
			t.Errorf("group %d buffer not emptied and cleared after the merge", k)
		}
	}
}
