package fleet

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"caasper/internal/core"
	"caasper/internal/errs"
	"caasper/internal/faults"
	"caasper/internal/k8s"
	"caasper/internal/obs"
	"caasper/internal/recommend"
	"caasper/internal/trace"
	"caasper/internal/workload"
)

// stubRec always recommends a fixed target — the minimal deterministic
// policy for arbitration tests.
type stubRec struct {
	name   string
	target int
}

func (s *stubRec) Name() string              { return s.name }
func (s *stubRec) Observe(int, float64)      {}
func (s *stubRec) Recommend(current int) int { return s.target }
func (s *stubRec) Reset()                    {}
func stubFactory(name string, target int) func() (recommend.Recommender, error) {
	return func() (recommend.Recommender, error) { return &stubRec{name: name, target: target}, nil }
}

// flatTrace builds a constant-demand minute trace.
func flatTrace(name string, minutes int, demand float64) *trace.Trace {
	vs := make([]float64, minutes)
	for i := range vs {
		vs[i] = demand
	}
	return trace.New(name, time.Minute, vs)
}

// mixedFleet builds a small heterogeneous fleet over real workload
// generators, one CaaSPER reactive policy per tenant.
func mixedFleet(t *testing.T, n int) []TenantSpec {
	t.Helper()
	gens := []func(seed uint64) *trace.Trace{
		workload.Workday12h, workload.Cyclical3Day, workload.StepTrace62h, workload.CustomerTrace,
	}
	specs := make([]TenantSpec, 0, n)
	for i := 0; i < n; i++ {
		tr := gens[i%len(gens)](uint64(i) + 1)
		peak := tr.Summarize().Max
		maxC := int(peak*1.5) + 2
		specs = append(specs, TenantSpec{
			Name:  fmt.Sprintf("t%02d", i),
			Trace: tr,
			NewRecommender: func() (recommend.Recommender, error) {
				return recommend.NewCaaSPERReactive(core.DefaultConfig(maxC), 40)
			},
			Resources:    core.CPURange(2, 2, maxC),
			Replicas:     1,
			MemGiBPerPod: 2,
		})
	}
	return specs
}

func encodeStream(mem *obs.MemorySink) string {
	var b strings.Builder
	var buf []byte
	for _, e := range mem.Events() {
		buf = e.AppendNDJSON(buf[:0])
		b.Write(buf)
	}
	return b.String()
}

// TestDeterminismAcrossWorkerCounts is the fleet's core contract: the
// results AND the event stream are byte-identical at every worker count,
// with chaos enabled to prove fault injection composes.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	spec, err := faults.ParseSpec("restart-fail:p=0.2,metrics-gap:p=0.05,sched-pressure:p=0.5:dur=60:cores=4")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) (*Result, string) {
		mem := obs.NewMemorySink()
		opts := DefaultOptions()
		opts.Cluster = k8s.SmallCluster()
		opts.Minutes = 180
		opts.Workers = workers
		opts.Events = mem
		opts.FaultSpec = spec
		opts.FaultSeed = 7
		res, err := Run(mixedFleet(t, 8), opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res, encodeStream(mem)
	}

	base, baseStream := run(1)
	if base.TotalScalings == 0 {
		t.Fatal("fleet run produced no scalings; test traces too tame")
	}
	for _, w := range []int{2, 4, 8} {
		res, stream := run(w)
		if !reflect.DeepEqual(base, res) {
			t.Errorf("workers=%d: result diverged from workers=1:\n%s\nvs\n%s", w, base.Summary(), res.Summary())
		}
		if stream != baseStream {
			t.Errorf("workers=%d: event stream diverged from workers=1", w)
		}
	}
}

// TestArbitrationSeverityPriority contrives a node oversubscription: two
// tenants on one 8-core node, both asking for +4 cores with only 4 free.
// The more-throttled tenant must win; the other must be deferred and the
// deferral audited.
func TestArbitrationSeverityPriority(t *testing.T) {
	cluster, err := k8s.NewCluster(k8s.NewNode("solo", 8, 64))
	if err != nil {
		t.Fatal(err)
	}
	mem := obs.NewMemorySink()
	opts := DefaultOptions()
	opts.Cluster = cluster
	opts.Minutes = 15
	opts.Events = mem
	// hot is throttled harder (demand 10 vs 6 against a 2-core limit), so
	// its accumulated severity is larger. Both want 2→6 (+4) with only
	// 8−2−2 = 4 cores free: exactly one grant fits.
	tenants := []TenantSpec{
		{Name: "mild", Trace: flatTrace("mild", 15, 6), NewRecommender: stubFactory("stub", 6),
			Resources: core.CPURange(2, 1, 8), Replicas: 1, MemGiBPerPod: 1},
		{Name: "hot", Trace: flatTrace("hot", 15, 10), NewRecommender: stubFactory("stub", 6),
			Resources: core.CPURange(2, 1, 8), Replicas: 1, MemGiBPerPod: 1},
	}
	res, err := Run(tenants, opts)
	if err != nil {
		t.Fatal(err)
	}
	mild, hot := res.Tenants[0], res.Tenants[1]
	if hot.NumScalings != 1 || hot.Deferrals != 0 {
		t.Errorf("hot tenant: got %d scalings / %d deferrals, want 1 / 0", hot.NumScalings, hot.Deferrals)
	}
	if mild.NumScalings != 0 || mild.Deferrals != 1 {
		t.Errorf("mild tenant: got %d scalings / %d deferrals, want 0 / 1", mild.NumScalings, mild.Deferrals)
	}
	if res.ArbitrationTicks != 1 || res.TotalDeferrals != 1 {
		t.Errorf("aggregate: got %d arbitration ticks / %d deferrals, want 1 / 1", res.ArbitrationTicks, res.TotalDeferrals)
	}
	var sawDeferred, sawArbitration bool
	for _, e := range mem.Events() {
		switch e.Type {
		case "fleet.deferred":
			sawDeferred = true
		case "fleet.arbitration":
			sawArbitration = true
		}
	}
	if !sawDeferred || !sawArbitration {
		t.Errorf("missing audit events: deferred=%v arbitration=%v", sawDeferred, sawArbitration)
	}
}

// TestScaleDownsReleaseCapacityFirst: a tenant shrinking in the same tick
// frees the cores another tenant's scale-up needs — downs are enacted
// before the arbiter runs.
func TestScaleDownsReleaseCapacityFirst(t *testing.T) {
	cluster, err := k8s.NewCluster(k8s.NewNode("solo", 8, 64))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Cluster = cluster
	opts.Minutes = 15
	// shrinker 4→2 frees 2 cores; grower 4→6 needs 2 more than the 0
	// free at tick start. The grant must succeed only because the
	// scale-down lands first.
	tenants := []TenantSpec{
		{Name: "grower", Trace: flatTrace("g", 15, 8), NewRecommender: stubFactory("stub", 6),
			Resources: core.CPURange(4, 1, 8), Replicas: 1, MemGiBPerPod: 1},
		{Name: "shrinker", Trace: flatTrace("s", 15, 1), NewRecommender: stubFactory("stub", 2),
			Resources: core.CPURange(4, 1, 8), Replicas: 1, MemGiBPerPod: 1},
	}
	res, err := Run(tenants, opts)
	if err != nil {
		t.Fatal(err)
	}
	grower := res.Tenants[0]
	if grower.NumScalings != 1 || grower.Deferrals != 0 {
		t.Errorf("grower: got %d scalings / %d deferrals, want 1 / 0 (scale-down should free capacity first)",
			grower.NumScalings, grower.Deferrals)
	}
	if grower.FinalCores != 6 || res.Tenants[1].FinalCores != 2 {
		t.Errorf("final cores: grower=%d shrinker=%d, want 6 / 2", grower.FinalCores, res.Tenants[1].FinalCores)
	}
}

// TestChaosAborts: restart-fail faults abort enactments and are tallied
// per tenant.
func TestChaosAborts(t *testing.T) {
	spec, err := faults.ParseSpec("restart-fail:p=1")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Cluster = k8s.SmallCluster()
	opts.Minutes = 60
	opts.FaultSpec = spec
	opts.FaultSeed = 3
	tenants := []TenantSpec{
		{Name: "only", Trace: flatTrace("o", 60, 6), NewRecommender: stubFactory("stub", 6),
			Resources: core.CPURange(2, 1, 8), Replicas: 1, MemGiBPerPod: 1},
	}
	res, err := Run(tenants, opts)
	if err != nil {
		t.Fatal(err)
	}
	only := res.Tenants[0]
	if only.NumScalings != 0 {
		t.Errorf("got %d scalings with p=1 restart-fail, want 0", only.NumScalings)
	}
	if only.ResizesAborted == 0 || only.FaultCounts.RestartFails == 0 {
		t.Errorf("aborts not tallied: aborted=%d counts=%+v", only.ResizesAborted, only.FaultCounts)
	}
	if only.FinalCores != 2 {
		t.Errorf("final cores %d, want unchanged 2", only.FinalCores)
	}
}

// TestValidationErrors: every rejection is classifiable via errors.Is.
func TestValidationErrors(t *testing.T) {
	good := TenantSpec{
		Name: "a", Trace: flatTrace("a", 10, 1), NewRecommender: stubFactory("stub", 2),
		Resources: core.CPURange(1, 1, 4), Replicas: 1,
	}
	cases := []struct {
		name    string
		tenants []TenantSpec
		mutate  func(*Options)
		want    error
	}{
		{"no tenants", nil, nil, errs.ErrInvalidConfig},
		{"bad cadence", []TenantSpec{good}, func(o *Options) { o.DecisionEveryMinutes = 0 }, errs.ErrInvalidConfig},
		{"empty trace", []TenantSpec{{Name: "x", NewRecommender: good.NewRecommender,
			Resources: core.CPURange(1, 1, 4)}}, nil, errs.ErrEmptyTrace},
		{"coarse trace", []TenantSpec{{Name: "x", Trace: trace.New("coarse", time.Hour, []float64{1, 2, 3}),
			NewRecommender: good.NewRecommender,
			Resources:      core.CPURange(1, 1, 4)}}, nil, errs.ErrInvalidConfig},
		{"duplicate names", []TenantSpec{good, good}, nil, errs.ErrInvalidConfig},
		{"bad bounds", []TenantSpec{{Name: "x", Trace: good.Trace, NewRecommender: good.NewRecommender,
			InitialCores: 0, MinCores: 1, MaxCores: 4}}, nil, errs.ErrInvalidConfig},
		{"bad vector bounds", []TenantSpec{{Name: "x", Trace: good.Trace, NewRecommender: good.NewRecommender,
			Resources: core.CPURange(2, 5, 4)}}, nil, errs.ErrInvalidConfig},
		{"negative core price", []TenantSpec{good}, func(o *Options) { o.PricePerCorePeriod = -1 }, errs.ErrInvalidConfig},
		{"NaN core price", []TenantSpec{good}, func(o *Options) { o.PricePerCorePeriod = math.NaN() }, errs.ErrInvalidConfig},
		{"negative RAM price", []TenantSpec{good}, func(o *Options) { o.RAMPricePerGBPeriod = -1 }, errs.ErrInvalidConfig},
		{"negative disk price", []TenantSpec{good}, func(o *Options) { o.DiskPricePerGBPeriod = -1 }, errs.ErrInvalidConfig},
		{"negative warm-up", []TenantSpec{good}, func(o *Options) { o.WarmupMinutes = -1 }, errs.ErrInvalidConfig},
	}
	for _, tc := range cases {
		opts := DefaultOptions()
		if tc.mutate != nil {
			tc.mutate(&opts)
		}
		_, err := Run(tc.tenants, opts)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want errors.Is(%v)", tc.name, err, tc.want)
		}
	}
}

// TestTenantSpecRangeScalarsWin pins the deprecated scalar CPU fields:
// each non-zero one overrides its vector entry, on top of the vector's
// defaults.
func TestTenantSpecRangeScalarsWin(t *testing.T) {
	s := TenantSpec{
		InitialCores: 2, MinCores: 2, MaxCores: 8,
		Resources: core.ResourceRange{
			Initial: core.Resources{CPUCores: 1},
			Limits:  core.Limits{Min: core.Resources{CPUCores: 1}, Max: core.Resources{CPUCores: 4, RAMGB: 16}},
		},
	}
	got := s.Range()
	if got.Initial.CPUCores != 2 || got.Min.CPUCores != 2 || got.Max.CPUCores != 8 {
		t.Fatalf("scalar CPU fields must win: %+v", got)
	}
	if got.Min.RAMGB != 1 || got.Initial.RAMGB != 1 {
		t.Fatalf("managed RAM should still default min/initial to 1: %+v", got)
	}
	// No scalars set: the vector passes through.
	s.InitialCores, s.MinCores, s.MaxCores = 0, 0, 0
	if got = s.Range(); got.Initial.CPUCores != 1 || got.Max.CPUCores != 4 {
		t.Fatalf("vector must pass through when scalars unset: %+v", got)
	}
}
