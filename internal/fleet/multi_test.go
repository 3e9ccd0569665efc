package fleet

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"caasper/internal/core"
	"caasper/internal/errs"
	"caasper/internal/faults"
	"caasper/internal/hooks"
	"caasper/internal/obs"
	"caasper/internal/recommend"
	"caasper/internal/trace"
)

// multiSpec builds one multi-resource tenant: a CPU spike plus an
// explicit RAM trace that overflows the initial grant, and a growing
// disk trace.
func multiSpec(name string, minutes int) TenantSpec {
	cpu := make([]float64, minutes)
	ram := make([]float64, minutes)
	dsk := make([]float64, minutes)
	for i := range cpu {
		cpu[i] = 1
		ram[i] = 2
		dsk[i] = 4 + float64(i)*0.05
		if i >= minutes/3 && i < 2*minutes/3 {
			cpu[i] = 6
			ram[i] = 7 // above the initial 4 GB grant: OOM until RAM scales
		}
	}
	return TenantSpec{
		Name:           name,
		Trace:          trace.New(name, time.Minute, cpu),
		RAMTrace:       trace.New(name+"-ram", time.Minute, ram),
		DiskTrace:      trace.New(name+"-disk", time.Minute, dsk),
		NewRecommender: stubFactory("stub", 2),
		Resources:      mustRange("ram=4-16,disk=5-40").OrCPU(core.CPURange(2, 1, 4)),
	}
}

func mustRange(s string) core.ResourceRange {
	rr, err := core.ParseResourceSpec(s)
	if err != nil {
		panic(err)
	}
	return rr
}

func TestMultiRAMScalesUpAndBillsDimensions(t *testing.T) {
	const minutes = 120
	spec := multiSpec("m0", minutes)
	opts := DefaultOptions()
	opts.Minutes = minutes
	res, err := Run([]TenantSpec{spec}, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Tenants[0]
	// RAM rides the spike up (4→9) and the hysteresis brings it back to
	// the 4 GB floor afterwards, so the trajectory shows up as scalings
	// and extra GB-periods, not in the final grant.
	if tr.NumScalings < 2 {
		t.Fatalf("RAM never scaled: %d scalings", tr.NumScalings)
	}
	if tr.BilledRAMGBPeriods <= 8 { // 2 hourly periods × the 4 GB floor
		t.Fatalf("RAM bill %v shows no scale-up above the floor", tr.BilledRAMGBPeriods)
	}
	if tr.FinalRAMGB != 4 {
		t.Fatalf("hysteresis must return RAM to the floor, got %d GB", tr.FinalRAMGB)
	}
	if tr.OOMMinutes == 0 || tr.RAMShortGBMin == 0 {
		t.Fatalf("the 7 GB plateau must OOM before RAM catches up: oom=%d short=%v",
			tr.OOMMinutes, tr.RAMShortGBMin)
	}
	if tr.FinalDiskGB <= 5 {
		t.Fatalf("disk never grew: final %d GB", tr.FinalDiskGB)
	}
	if tr.BilledRAMGBPeriods == 0 || tr.BilledDiskGBPeriods == 0 {
		t.Fatalf("non-CPU dimensions must bill: ram=%v disk=%v",
			tr.BilledRAMGBPeriods, tr.BilledDiskGBPeriods)
	}
	if res.TotalRAMCost == 0 || res.TotalOOMMinutes != tr.OOMMinutes {
		t.Fatalf("aggregates not rolled up: %+v", res)
	}
	if !strings.Contains(res.Summary(), "ram-short") {
		t.Fatal("multi summary block missing")
	}
}

func TestMultiDiskGrowOnly(t *testing.T) {
	const minutes = 90
	spec := multiSpec("d0", minutes)
	// Disk trace rises then falls back: the volume must keep its peak.
	// The plateau is long enough for the step-capped growth to converge
	// (usage is capped at the volume, so each decision only sees the next
	// rung of the ladder).
	vs := make([]float64, minutes)
	for i := range vs {
		vs[i] = 4
		if i >= 20 && i < 80 {
			vs[i] = 30
		}
	}
	spec.DiskTrace = trace.New("d0-disk", time.Minute, vs)
	opts := DefaultOptions()
	opts.Minutes = minutes
	res, err := Run([]TenantSpec{spec}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Tenants[0].FinalDiskGB; got < 38 { // ceil(30/0.8)=38→40 step
		t.Fatalf("disk must hold its high-water size, got %d GB", got)
	}
}

func TestMultiHorizontalOverflow(t *testing.T) {
	const minutes = 200
	cpu := make([]float64, minutes)
	for i := range cpu {
		cpu[i] = 2
		if i >= 50 {
			cpu[i] = 11 // far above the 4-core per-pod ceiling
		}
	}
	spec := TenantSpec{
		Name:           "web",
		Trace:          trace.New("web", time.Minute, cpu),
		NewRecommender: stubFactory("stub", 8), // always pinned to Max
		Stateless:      true,
		Resources:      mustRange("ram=2-8,replicas=1-4").OrCPU(core.CPURange(2, 1, 4)),
	}
	opts := DefaultOptions()
	opts.Minutes = minutes
	res, err := Run([]TenantSpec{spec}, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Tenants[0]
	// 11 cores of demand with a 4-core ceiling and 25% headroom needs
	// ceil(11 / (4×0.75)) = 4 replicas.
	if tr.FinalReplicas < 3 {
		t.Fatalf("overflow never engaged: %d replicas", tr.FinalReplicas)
	}
	if tr.FinalReplicas > 4 {
		t.Fatalf("MaxReplicas=4 violated: %d", tr.FinalReplicas)
	}
}

func TestMultiHorizontalScaleIn(t *testing.T) {
	const minutes = 400
	cpu := make([]float64, minutes)
	for i := range cpu {
		cpu[i] = 10
		if i >= 200 {
			cpu[i] = 1 // load collapses: replicas must drain back down
		}
	}
	spec := TenantSpec{
		Name:           "web",
		Trace:          trace.New("web", time.Minute, cpu),
		NewRecommender: newThresholdFactory(4),
		Stateless:      true,
		Resources:      mustRange("ram=2-8,replicas=1-6").OrCPU(core.CPURange(2, 1, 4)),
	}
	opts := DefaultOptions()
	opts.Minutes = minutes
	res, err := Run([]TenantSpec{spec}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Tenants[0].FinalReplicas; got != 1 {
		t.Fatalf("replicas must scale back in after the load drops, got %d", got)
	}
}

// thresholdRec recommends Max while recent per-pod usage is high and 1
// when idle — enough policy to drive overflow both directions.
type thresholdRec struct {
	max  int
	last float64
}

func (s *thresholdRec) Name() string             { return "threshold" }
func (s *thresholdRec) Observe(_ int, v float64) { s.last = v }
func (s *thresholdRec) Recommend(int) int {
	if s.last > 1.5 {
		return s.max
	}
	return 1
}
func (s *thresholdRec) Reset() { s.last = 0 }

func newThresholdFactory(max int) func() (recommend.Recommender, error) {
	return func() (recommend.Recommender, error) { return &thresholdRec{max: max}, nil }
}

func TestMultiDeterministicAcrossWorkers(t *testing.T) {
	const minutes = 240
	build := func() []TenantSpec {
		specs := mixedFleet(t, 6)
		for i := range specs {
			if i%2 == 0 {
				specs[i].Resources = mustRange("ram=4-16,disk=10-60").OrCPU(specs[i].Resources)
			}
		}
		specs = append(specs, multiSpec("mx", minutes))
		return specs
	}
	runAt := func(workers int) (*Result, string) {
		mem := obs.NewMemorySink()
		opts := DefaultOptions()
		opts.Minutes = minutes
		opts.Workers = workers
		fspec, err := faults.ParseSpec("mem-pressure:p=0.3:gb=3,metrics-gap:p=0.1")
		if err != nil {
			t.Fatal(err)
		}
		opts.RunHooks = hooks.RunHooks{Events: mem, FaultSpec: fspec, FaultSeed: 7}
		res, err := Run(build(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return res, encodeStream(mem)
	}
	res1, ev1 := runAt(1)
	for _, w := range []int{4, 8} {
		resW, evW := runAt(w)
		if ev1 != evW {
			t.Fatalf("event stream differs at workers=%d", w)
		}
		if res1.Summary() != resW.Summary() {
			t.Fatalf("summary differs at workers=%d:\n%s\nvs\n%s", w, res1.Summary(), resW.Summary())
		}
	}
}

// multiFleet is the 8-tenant chaos fleet upgraded to the full resource
// vector; stateless tenants may overflow horizontally up to 3 replicas.
// A 4-core ceiling sits below every trace's peak, so overflow engages.
func multiFleet(t *testing.T, stateless bool) []TenantSpec {
	specs := mixedFleet(t, 8)
	for i := range specs {
		specs[i].Resources = mustRange("ram=4-16,disk=5-40,replicas=1-3").OrCPU(specs[i].Resources)
		specs[i].Resources.Max.CPUCores = 4
		specs[i].Stateless = stateless
	}
	return specs
}

func multiOpts(t *testing.T) Options {
	opts := chaos16Opts(t)
	fspec, err := faults.ParseSpec("mem-pressure:p=0.3:gb=3,sched-pressure:p=0.5:dur=60:cores=4,restart-fail:p=0.2,metrics-gap:p=0.1")
	if err != nil {
		t.Fatal(err)
	}
	opts.FaultSpec = fspec
	return opts
}

// TestMultiEquivalence pins multi-resource tenants on the tick loop to
// the stepped oracle at workers 1/4/8: the scale-out fleet with a sink
// (results and stream), and — the only multi-group coverage for
// vector tenants — the same fleet without scale-out and without a sink,
// whose node-disjoint groups run concurrently (results, the merged
// arbitration and pressure counters included).
func TestMultiEquivalence(t *testing.T) {
	base := checkEquivalent(t,
		func() []TenantSpec { return multiFleet(t, true) },
		func() Options { return multiOpts(t) })
	scaledOut := false
	for _, tr := range base.Tenants {
		scaledOut = scaledOut || tr.FinalReplicas > 1
	}
	if !scaledOut || base.TotalOOMMinutes == 0 || base.TotalDeferrals == 0 {
		t.Fatalf("fleet too tame: scaled out %v, %d OOM minutes, %d deferrals",
			scaledOut, base.TotalOOMMinutes, base.TotalDeferrals)
	}

	checkGroupsEquivalent(t,
		func() []TenantSpec { return multiFleet(t, false) },
		func() Options { return multiOpts(t) })

	// Plateau vector tenants: their catch-up runs span whole ticks, so
	// gap and mem-pressure draws of one run interleave. The stream only
	// matches the oracle if they are emitted in minute order.
	plateau := checkEquivalent(t,
		plateauVectorFleet,
		func() Options { return plateauVectorOpts(t) })
	scaledOut = false
	for _, tr := range plateau.Tenants {
		scaledOut = scaledOut || tr.FinalReplicas > 1
	}
	if !scaledOut || plateau.TotalOOMMinutes == 0 {
		t.Fatalf("plateau fleet too tame: scaled out %v, %d OOM minutes", scaledOut, plateau.TotalOOMMinutes)
	}
}

// plateauMinutes is the plateau vector fleet's horizon.
const plateauMinutes = 240

// plateauVectorFleet is eight vector tenants on flat CPU traces from 1.5
// to 9.2 cores. Half are stateless, and the 4-core per-pod ceiling sits
// below the busier tenants' demand, so those scale out.
func plateauVectorFleet() []TenantSpec {
	specs := make([]TenantSpec, 8)
	for i := range specs {
		name := fmt.Sprintf("p%02d", i)
		specs[i] = TenantSpec{
			Name:  name,
			Trace: flatTrace(name, plateauMinutes, 1.5+1.1*float64(i)),
			NewRecommender: func() (recommend.Recommender, error) {
				return recommend.NewCaaSPERReactive(core.DefaultConfig(4), 40)
			},
			Resources: mustRange("ram=4-16,disk=5-40,replicas=1-3").OrCPU(core.CPURange(2, 1, 4)),
			Stateless: i%2 == 0,
		}
	}
	return specs
}

// plateauVectorOpts runs the plateau fleet with frequent metrics gaps and
// short mem-pressure windows, so most catch-up runs hold both.
func plateauVectorOpts(t *testing.T) Options {
	t.Helper()
	fspec, err := faults.ParseSpec("mem-pressure:p=0.5:gb=3:dur=7,metrics-gap:p=0.3")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Minutes = plateauMinutes
	opts.FaultSpec = fspec
	opts.FaultSeed = 7
	return opts
}

// feedRec is a fixed-target recommender that records how it was fed:
// the minutes of its per-minute Observe calls and its bulk ObserveRun
// calls.
type feedRec struct {
	stubRec
	observed             []int
	runCalls, runMinutes int
}

func (c *feedRec) Observe(minute int, _ float64) { c.observed = append(c.observed, minute) }
func (c *feedRec) ObserveRun(_ int, _ float64, n int) {
	c.runCalls++
	c.runMinutes += n
}

// TestMultiCatchUpIsRunByRun pins the vector catch-up to the bulk path:
// a plateau vector tenant's recommender gets ObserveRun calls, and a
// per-minute Observe only at a metrics-gap minute (where the gap's
// stale sample differs from the run's usage).
func TestMultiCatchUpIsRunByRun(t *testing.T) {
	for _, gap := range []bool{false, true} {
		rec := &feedRec{stubRec: stubRec{name: "counting", target: 4}}
		spec := plateauVectorFleet()[5]
		spec.NewRecommender = func() (recommend.Recommender, error) { return rec, nil }
		opts := plateauVectorOpts(t)
		if !gap {
			opts.FaultSpec = nil
		}
		inj := faults.New(opts.FaultSpec, opts.FaultSeed)
		res, err := Run([]TenantSpec{spec}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Tenants[0].NumScalings == 0 {
			t.Fatalf("gap=%v: the tenant never resized; the fixture proves nothing", gap)
		}
		if rec.runCalls == 0 || rec.runMinutes+len(rec.observed) != plateauMinutes {
			t.Fatalf("gap=%v: %d ObserveRun calls over %d minutes plus %d Observe calls, want bulk calls covering %d minutes",
				gap, rec.runCalls, rec.runMinutes, len(rec.observed), plateauMinutes)
		}
		for _, m := range rec.observed {
			if inj.NextGap(spec.Name+"-0", int64(m), int64(m+1)) != int64(m) {
				t.Fatalf("gap=%v: per-minute Observe at minute %d, which is no metrics gap", gap, m)
			}
		}
	}
}

func TestMultiShortTraceRejected(t *testing.T) {
	spec := multiSpec("m0", 60)
	spec.RAMTrace = trace.New("short", time.Minute, []float64{1, 2})
	opts := DefaultOptions()
	opts.Minutes = 60
	if _, err := Run([]TenantSpec{spec}, opts); !errors.Is(err, errs.ErrInvalidConfig) {
		t.Fatalf("short RAM trace must be rejected, got %v", err)
	}
}

func TestCPUOnlyStreamUnchangedByMultiTenantPresence(t *testing.T) {
	// A CPU-only tenant's per-tenant event fields must be identical
	// whether or not a multi-resource tenant shares the fleet.
	const minutes = 120
	cpuOnly := TenantSpec{
		Name: "solo", Trace: flatTrace("solo", minutes, 3),
		NewRecommender: stubFactory("stub", 3),
		Resources:      core.CPURange(2, 1, 4),
	}
	run := func(specs []TenantSpec) string {
		mem := obs.NewMemorySink()
		opts := DefaultOptions()
		opts.Minutes = minutes
		opts.RunHooks = hooks.RunHooks{Events: mem}
		if _, err := Run(specs, opts); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		var buf []byte
		for _, e := range mem.Events() {
			buf = e.AppendNDJSON(buf[:0])
			if strings.Contains(string(buf), `"tenant":"solo"`) {
				b.Write(buf)
			}
		}
		return b.String()
	}
	alone := run([]TenantSpec{cpuOnly})
	mixed := run([]TenantSpec{cpuOnly, multiSpec("mx", minutes)})
	if alone == "" {
		t.Fatal("no solo events captured")
	}
	if alone != mixed {
		t.Fatalf("CPU-only tenant stream changed when a multi tenant joined:\n%s\nvs\n%s", alone, mixed)
	}
}
