// Package fleet implements the sharded multi-tenant fleet controller: N
// independent tenants — each a stateful set, a recommender and a CPU
// demand trace — autoscaled concurrently against ONE shared Kubernetes
// cluster. It is the scale-out answer to the paper's closing observation
// that a CaaS platform runs CaaSPER "for all customer databases on the
// cluster", not one: per-tenant decision loops are embarrassingly
// parallel, but the cluster's capacity is not, so simultaneous scale-ups
// can oversubscribe a node. The controller therefore splits every tick in
// two:
//
//  1. a parallel observe/decide phase fanned out through
//     internal/parallel (index-addressed slots, no shared writes), where
//     each tenant catches up on its usage samples, feeds its recommender
//     and files a resize proposal; and
//  2. a sequential enact/arbitrate phase where scale-downs release
//     capacity first and the capacity arbiter grants scale-ups in
//     throttling-severity order (most-throttled first, tenant index as
//     the deterministic tie-break), deferring any tenant whose grant
//     would not fit the free capacity of its pods' nodes under the
//     current scheduling pressure.
//
// Because phase 1 writes only tenant-local state and phase 2 runs in a
// fixed order, results — and the "fleet.*" event stream — are
// byte-identical at every worker count, the same determinism contract the
// simulator's RunMatrix established. Fault injection composes: each
// tenant owns an injector (draws are pod-keyed, so streams are
// tenant-specific and order-independent), and a fleet-level injector
// drives cluster-wide scheduling pressure from the sequential loop.
package fleet

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"caasper/internal/billing"
	"caasper/internal/core"
	"caasper/internal/errs"
	"caasper/internal/faults"
	"caasper/internal/hooks"
	"caasper/internal/k8s"
	"caasper/internal/obs"
	"caasper/internal/recommend"
	"caasper/internal/trace"
)

// TenantSpec describes one tenant of the fleet: its workload, its policy
// and its stateful-set shape.
type TenantSpec struct {
	// Name identifies the tenant and prefixes its pod names; it must be
	// unique within the fleet.
	Name string
	// Trace is the tenant's per-minute CPU demand series.
	Trace *trace.Trace
	// NewRecommender builds the tenant's fresh policy instance. A factory
	// rather than an instance because recommenders are stateful and the
	// fleet runs tenants concurrently.
	NewRecommender func() (recommend.Recommender, error)
	// InitialCores is the starting whole-core limit per pod.
	//
	// Deprecated: set Resources.Initial.CPUCores. A non-zero value here
	// wins, so seed callers behave identically.
	InitialCores int
	// MinCores / MaxCores are the tenant's safety clamps.
	//
	// Deprecated: set Resources.Min/Max.CPUCores. Non-zero values here
	// win, so seed callers behave identically.
	MinCores, MaxCores int
	// Replicas is the stateful-set size (default 1).
	Replicas int
	// MemGiBPerPod sizes pod memory (scheduling only; not billed).
	// Ignored when Resources manages RAM — the RAM allocation then
	// sizes the pods.
	MemGiBPerPod float64

	// Resources holds the tenant's initial allocation and bounds.
	// Managing any non-CPU dimension (a non-zero Max.RAMGB, Max.DiskGB
	// or Max.Replicas) upgrades the tenant from the CPU-only decision
	// loop to the multi-resource loop: RAM scales by the dual-threshold
	// MemoryPolicy, disk grows off its high-water mark, and — for
	// Stateless tenants — replicas overflow horizontally once the
	// vertical CPU ceiling pins. CPU-only tenants run the exact
	// pre-vector code paths.
	Resources core.ResourceRange
	// RAMTrace is the per-minute per-pod RAM demand series in GB; nil
	// derives one deterministically from Trace (workload.DeriveRAM).
	RAMTrace *trace.Trace
	// DiskTrace is the per-minute per-pod disk usage series in GB; nil
	// derives one deterministically from Trace (workload.DeriveDisk).
	DiskTrace *trace.Trace
	// Stateless marks the tenant safe for horizontal overflow: only
	// stateless tiers may trade a replica for a resize (stateful sets
	// pay the size-of-data seeding cost the paper warns about).
	Stateless bool
	// SeedMinutes delays a new replica's first served minute (default 0
	// for stateless tiers — no data to copy).
	SeedMinutes int
	// Mem tunes the RAM policy (zero value: defaults).
	Mem recommend.MemoryPolicy
	// Disk tunes the disk policy (zero value: defaults).
	Disk recommend.DiskPolicy
}

// Range resolves the tenant's resource bounds: Resources with its unset
// entries filled (core.ResourceRange.WithDefaults), then each non-zero
// deprecated scalar CPU field overrides its vector entry. It is the only
// reader of those scalars.
func (s TenantSpec) Range() core.ResourceRange {
	rr := s.Resources.WithDefaults()
	if s.InitialCores != 0 {
		rr.Initial.CPUCores = s.InitialCores
	}
	if s.MinCores != 0 {
		rr.Min.CPUCores = s.MinCores
	}
	if s.MaxCores != 0 {
		rr.Max.CPUCores = s.MaxCores
	}
	return rr
}

// Options configures a fleet run. The telemetry/fault knobs come from the
// embedded hooks.RunHooks, the same canonical spelling SimOptions and
// LiveOptions share.
type Options struct {
	hooks.RunHooks
	// Cluster hosts every tenant's pods; nil defaults to the paper's
	// large cluster (6 × 16 CPU / 56 GiB).
	Cluster *k8s.Cluster
	// Minutes bounds the run; 0 replays until the shortest trace ends.
	Minutes int
	// DecisionEveryMinutes is the per-tenant decision cadence (default 10).
	DecisionEveryMinutes int
	// WarmupMinutes delays each tenant's first decision (default:
	// DecisionEveryMinutes), letting window-based recommenders accumulate
	// signal.
	WarmupMinutes int
	// Workers bounds the parallel observe/decide fan-out; below 1 selects
	// runtime.GOMAXPROCS(0). Results are byte-identical at every value.
	Workers int
	// BillingPeriod is the pay-as-you-go metering period (default 1h).
	BillingPeriod time.Duration
	// PricePerCorePeriod is the unit price (default 1: report ratios).
	PricePerCorePeriod float64
	// RAMPricePerGBPeriod / DiskPricePerGBPeriod price the non-CPU
	// dimensions for multi-resource tenants (defaults: billing
	// DefaultRates, 0.25 and 0.02). CPU-only tenants never meter them.
	RAMPricePerGBPeriod, DiskPricePerGBPeriod float64
	// Engine is ignored: the fleet has one tick loop (events.go).
	//
	// Deprecated: every value, including EngineStepped, runs the same
	// loop with the same results.
	Engine string
}

// Engine names once accepted by Options.Engine.
//
// Deprecated: Options.Engine is ignored.
const (
	EngineStepped = "stepped"
	EngineEvents  = "events"
)

// DefaultOptions returns the fleet defaults: 10-minute decisions, hourly
// billing, unit price, shortest-trace horizon.
func DefaultOptions() Options {
	return Options{
		DecisionEveryMinutes: 10,
		BillingPeriod:        time.Hour,
		PricePerCorePeriod:   1,
	}
}

// Validate checks option invariants. Failures wrap errs.ErrInvalidConfig.
func (o Options) Validate() error {
	if o.DecisionEveryMinutes < 1 {
		return fmt.Errorf("fleet: DecisionEveryMinutes must be ≥ 1: %w", errs.ErrInvalidConfig)
	}
	if o.Minutes < 0 {
		return fmt.Errorf("fleet: Minutes must be ≥ 0: %w", errs.ErrInvalidConfig)
	}
	if o.BillingPeriod < 0 {
		return fmt.Errorf("fleet: BillingPeriod must be ≥ 0: %w", errs.ErrInvalidConfig)
	}
	if o.WarmupMinutes < 0 {
		return fmt.Errorf("fleet: WarmupMinutes must be ≥ 0: %w", errs.ErrInvalidConfig)
	}
	// !(p >= 0) also rejects NaN.
	for _, p := range []struct {
		name  string
		price float64
	}{
		{"PricePerCorePeriod", o.PricePerCorePeriod},
		{"RAMPricePerGBPeriod", o.RAMPricePerGBPeriod},
		{"DiskPricePerGBPeriod", o.DiskPricePerGBPeriod},
	} {
		if !(p.price >= 0) {
			return fmt.Errorf("fleet: %s must be ≥ 0, got %v: %w", p.name, p.price, errs.ErrInvalidConfig)
		}
	}
	return nil
}

// TenantResult aggregates one tenant's run.
type TenantResult struct {
	// Name and Recommender identify the tenant.
	Name        string
	Recommender string
	// InitialCores / FinalCores bracket the allocation trajectory.
	InitialCores, FinalCores int
	// SumSlack is K(·): Σ max(0, limit − usage) in core-minutes.
	SumSlack float64
	// SumInsufficient is C(·): Σ max(0, demand − limit) in core-minutes.
	SumInsufficient float64
	// NumScalings is N(·): the number of enacted resizes.
	NumScalings int
	// ThrottledMinutes counts minutes with any insufficient CPU.
	ThrottledMinutes int
	// Deferrals counts scale-up proposals the capacity arbiter rejected
	// (the tenant's arbitration losses).
	Deferrals int
	// ResizesAborted counts enactments lost to injected restart failures.
	ResizesAborted int
	// BilledCorePeriods is the pay-as-you-go cost at unit price.
	BilledCorePeriods float64
	// FaultCounts tallies this tenant's injected faults.
	FaultCounts faults.Counts

	// Multi-resource extensions — zero for CPU-only tenants.

	// FinalRAMGB / FinalDiskGB / FinalReplicas close the vector
	// trajectory (0 when the dimension is unmanaged).
	FinalRAMGB, FinalDiskGB, FinalReplicas int
	// RAMShortGBMin is Σ max(0, ram demand − grant) in GB-minutes.
	RAMShortGBMin float64
	// OOMMinutes counts minutes with any RAM shortfall.
	OOMMinutes int
	// DiskFullMinutes counts minutes the disk trace exceeded the volume.
	DiskFullMinutes int
	// BilledRAMGBPeriods / BilledDiskGBPeriods are the non-CPU costs in
	// native units (GB-periods).
	BilledRAMGBPeriods, BilledDiskGBPeriods float64
}

// Result aggregates a fleet run: per-tenant outcomes plus the
// fleet-level aggregates and arbitration statistics.
type Result struct {
	// Minutes is the simulated horizon.
	Minutes int
	// Tenants holds one result per tenant, in input order.
	Tenants []TenantResult
	// TotalSlack / TotalInsufficient / TotalCost aggregate K, C and cost
	// across tenants.
	TotalSlack, TotalInsufficient, TotalCost float64
	// TotalScalings / TotalDeferrals / TotalAborted aggregate N, the
	// arbitration losses and the fault-aborted enactments.
	TotalScalings, TotalDeferrals, TotalAborted int
	// ArbitrationTicks counts ticks on which the arbiter had to defer at
	// least one tenant (capacity contention actually bit).
	ArbitrationTicks int
	// PressureWindows counts fleet-level scheduling-pressure windows.
	PressureWindows int64
	// TotalOOMMinutes / TotalRAMShortGBMin / TotalRAMCost / TotalDiskCost
	// aggregate the multi-resource tenants (zero for CPU-only fleets).
	TotalOOMMinutes             int
	TotalRAMShortGBMin          float64
	TotalRAMCost, TotalDiskCost float64
}

// Summary renders the per-tenant comparison table plus the fleet
// aggregate row.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-20s %10s %10s %5s %6s %6s %8s\n",
		"tenant", "recommender", "K", "C", "N", "defer", "abort", "cost")
	for _, t := range r.Tenants {
		fmt.Fprintf(&b, "%-10s %-20s %10.0f %10.1f %5d %6d %6d %8.0f\n",
			t.Name, t.Recommender, t.SumSlack, t.SumInsufficient,
			t.NumScalings, t.Deferrals, t.ResizesAborted, t.BilledCorePeriods)
	}
	fmt.Fprintf(&b, "%-10s %-20s %10.0f %10.1f %5d %6d %6d %8.0f\n",
		"TOTAL", fmt.Sprintf("(%d tenants)", len(r.Tenants)), r.TotalSlack,
		r.TotalInsufficient, r.TotalScalings, r.TotalDeferrals,
		r.TotalAborted, r.TotalCost)
	fmt.Fprintf(&b, "arbitration: %d contended ticks, %d deferrals, %d pressure windows over %d minutes\n",
		r.ArbitrationTicks, r.TotalDeferrals, r.PressureWindows, r.Minutes)
	// The multi-resource block renders only when a tenant managed a
	// non-CPU dimension, keeping CPU-only summaries byte-identical.
	multi := false
	for _, t := range r.Tenants {
		if t.FinalRAMGB > 0 || t.FinalDiskGB > 0 || t.FinalReplicas > 0 {
			multi = true
			break
		}
	}
	if multi {
		fmt.Fprintf(&b, "\n%-10s %8s %8s %5s %6s %10s %8s %8s\n",
			"tenant", "ram", "disk", "reps", "oom", "ram-short", "ram$", "disk$")
		for _, t := range r.Tenants {
			if t.FinalRAMGB == 0 && t.FinalDiskGB == 0 && t.FinalReplicas == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-10s %8d %8d %5d %6d %10.1f %8.1f %8.1f\n",
				t.Name, t.FinalRAMGB, t.FinalDiskGB, t.FinalReplicas,
				t.OOMMinutes, t.RAMShortGBMin, t.BilledRAMGBPeriods, t.BilledDiskGBPeriods)
		}
		fmt.Fprintf(&b, "multi-resource: %d OOM minutes, %.1f GB-min RAM short, ram cost %.1f, disk cost %.1f\n",
			r.TotalOOMMinutes, r.TotalRAMShortGBMin, r.TotalRAMCost, r.TotalDiskCost)
	}
	return b.String()
}

// sinkPool recycles the per-tenant fault-event buffers across fleet runs:
// a chaos run over a large fleet otherwise allocates one sink — plus its
// grown event slice — per tenant per run.
var sinkPool = sync.Pool{New: func() any { return obs.NewMemorySink() }}

// proposal is one tenant's pending resize request for the current tick.
// CPU-only tenants fill only target/severity; multi-resource tenants set
// multi and carry explicit targets for every managed dimension.
type proposal struct {
	target   int
	severity float64 // accumulated insufficient core-minutes since the last decision
	multi    bool
	ram      int // RAM GB target (multi only)
	disk     int // disk GB target (multi only)
	reps     int // replica target (multi only)
}

// grows reports whether any dimension of the proposal asks for more
// capacity — such proposals go through the arbiter; pure releases enact
// first. For CPU-only proposals this is exactly the pre-vector
// target-vs-limit comparison.
func (p proposal) grows(t *tenant) bool {
	if !p.multi {
		return p.target >= t.set.CPULimit()
	}
	return p.target > t.set.CPULimit() || p.ram > t.mr.ramAlloc || p.reps > t.mr.replicas
}

// tenant is the per-tenant runtime state. Phase 1 touches exactly one
// tenant per goroutine; phase 2 walks them sequentially.
type tenant struct {
	spec TenantSpec
	rec  recommend.Recommender
	set  *k8s.StatefulSet
	// meter is held by value: fleets allocate tenants in one block and the
	// meter has no identity beyond its tenant.
	meter billing.Meter
	inj   *faults.Injector
	sink  *obs.MemorySink
	res   TenantResult
	// pod caches the ordinal-0 pod name, the tenant's fault-draw key.
	pod string

	prevUsage float64 // last minute's usage, replayed on a metrics-gap fault
	severity  float64 // insufficiency accumulated since the last decision
	prop      proposal
	hasProp   bool

	// mr is the multi-resource state; nil keeps the tenant on the exact
	// CPU-only code paths (see multi.go).
	mr *multiState

	// Tick-loop state (see events.go).
	done   int                      // minutes [0, done) are fully accounted
	wakeAt int                      // next wake minute computed at the last decision (−1: none)
	lim    int                      // cached CPU limit: only phase 2 resizes, and only proposers
	runs   []int32                  // the trace's constant-run starts, shared across tenants; nil: scan
	runCur int                      // index into runs of the run containing done
	gap    bool                     // spec includes metrics-gap: samples need per-minute draws
	bulk   recommend.RunObserver    // non-nil: bulk window advance allowed
	steady recommend.SteadyObserver // non-nil: steady-state sleep allowed
}

// decide evaluates the recommender at a decision tick: the clamped target
// becomes a phase-2 proposal when it differs from the current limit, and
// the severity accumulator (the arbiter's priority signal) is snapshotted
// into the proposal and reset either way. Multi-resource tenants decide
// every managed dimension (decideMulti).
func (t *tenant) decide(limit int) {
	t.hasProp = false
	if t.mr != nil {
		t.decideMulti(limit)
		return
	}
	target := t.rec.Recommend(limit)
	if rr := &t.spec.Resources; target < rr.Min.CPUCores {
		target = rr.Min.CPUCores
	} else if target > rr.Max.CPUCores {
		target = rr.Max.CPUCores
	}
	if target != limit {
		t.prop = proposal{target: target, severity: t.severity}
		t.hasProp = true
	}
	t.severity = 0
}

// runState is the assembled per-run machinery: the tenants, the cluster,
// the fleet-level injector and the phase-2 scratch. newRun builds it,
// runGroups drives the tick loop over it, and finish reads the results
// back out.
type runState struct {
	ts      []*tenant
	cluster *k8s.Cluster
	finj    *faults.Injector
	h       hooks.RunHooks
	events  bool
	minutes int
	warmup  int
	d       int // decision cadence in minutes
	workers int
	res     *Result

	// Phase-2 working storage reused across ticks.
	ups []int
	arb *arbScratch

	// defBits is the minute bitmap of ticks on which the arbiter deferred
	// a tenant, shared by every tenant group of the run: a tick counts
	// once however many groups deferred on it.
	defBits []atomic.Uint64
}

// Run executes the fleet loop over the shared cluster and returns the
// per-tenant and aggregate results. See the package comment for the
// two-phase tick structure and the determinism argument.
func Run(tenants []TenantSpec, opts Options) (*Result, error) {
	s, err := newRun(tenants, opts)
	if err != nil {
		return nil, err
	}
	if err := s.runGroups(); err != nil {
		return nil, err
	}
	return s.finish(), nil
}

// newRun validates the inputs, onboards every tenant onto the cluster and
// emits the "fleet.run" header event.
func newRun(tenants []TenantSpec, opts Options) (*runState, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(tenants) == 0 {
		return nil, fmt.Errorf("fleet: no tenants: %w", errs.ErrInvalidConfig)
	}
	h := opts.RunHooks
	events := obs.Enabled(h.Events)

	cluster := opts.Cluster
	if cluster == nil {
		cluster = k8s.LargeCluster()
	}
	period := opts.BillingPeriod
	if period == 0 {
		period = time.Hour
	}
	price := opts.PricePerCorePeriod
	if price == 0 {
		price = 1
	}
	warmup := opts.WarmupMinutes
	if warmup == 0 {
		warmup = opts.DecisionEveryMinutes
	}

	// Resolve the horizon: the shortest trace bounds the replay.
	minutes := opts.Minutes
	seen := make(map[string]bool, len(tenants))
	for i, spec := range tenants {
		if spec.Name == "" {
			return nil, fmt.Errorf("fleet: tenant %d has no name: %w", i, errs.ErrInvalidConfig)
		}
		if seen[spec.Name] {
			return nil, fmt.Errorf("fleet: duplicate tenant %q: %w", spec.Name, errs.ErrInvalidConfig)
		}
		seen[spec.Name] = true
		if spec.Trace == nil || len(spec.Trace.Values) == 0 {
			return nil, fmt.Errorf("fleet: tenant %q: %w", spec.Name, errs.ErrEmptyTrace)
		}
		if spec.Trace.Interval != time.Minute {
			// A mis-configured interval is a config error, not a missing
			// trace: callers matching ErrEmptyTrace to skip absent tenants
			// must not silently swallow a resample mistake.
			return nil, fmt.Errorf("fleet: tenant %q: trace interval %s is not 1m (resample first): %w",
				spec.Name, spec.Trace.Interval, errs.ErrInvalidConfig)
		}
		if spec.NewRecommender == nil {
			return nil, fmt.Errorf("fleet: tenant %q has no recommender factory: %w", spec.Name, errs.ErrInvalidConfig)
		}
		rr := spec.Range()
		if rr.Initial.CPUCores < 1 || rr.Min.CPUCores < 1 || rr.Max.CPUCores < rr.Min.CPUCores {
			return nil, fmt.Errorf("fleet: tenant %q: bad core bounds: %w", spec.Name, errs.ErrInvalidConfig)
		}
		if rr.Multi() {
			if err := rr.Validate(); err != nil {
				return nil, fmt.Errorf("fleet: tenant %q: %w", spec.Name, err)
			}
		}
		if minutes == 0 || len(spec.Trace.Values) < minutes {
			minutes = len(spec.Trace.Values)
		}
	}

	// Build the tenants: stateful sets scheduled onto the shared cluster
	// in input order (first-come placement, like a real fleet onboarding
	// sequence), per-tenant injectors (pod-keyed draws make each stream
	// tenant-specific regardless of query order) and per-tenant event
	// buffers replayed sequentially after the loop. All tenant records
	// live in one backing block, and every meter is a value copy of one
	// validated prototype — construction garbage used to dominate
	// short-horizon fleet benchmarks.
	meterProto, err := billing.NewMeter(price, period, time.Minute)
	if err != nil {
		return nil, err
	}
	tstore := make([]tenant, len(tenants))
	ts := make([]*tenant, len(tenants))
	for i, spec := range tenants {
		rr := spec.Range()
		replicas := spec.Replicas
		if rr.Multi() && rr.Initial.Replicas > 0 {
			replicas = rr.Initial.Replicas
		}
		if replicas < 1 {
			replicas = 1
		}
		memGiB := spec.MemGiBPerPod
		if rr.Max.RAMGB > 0 {
			memGiB = float64(rr.Initial.RAMGB) // RAM-managed pods size to the grant
		}
		rec, err := spec.NewRecommender()
		if err != nil {
			return nil, fmt.Errorf("fleet: building recommender for %q: %w", spec.Name, err)
		}
		set, err := k8s.NewStatefulSet(spec.Name, replicas, rr.Initial.CPUCores, memGiB, cluster)
		if err != nil {
			return nil, fmt.Errorf("fleet: onboarding %q: %w", spec.Name, err)
		}
		t := &tstore[i]
		t.spec, t.rec, t.set, t.meter, t.pod = spec, rec, set, *meterProto, set.Pods[0].Name
		// The tenant's copy carries the resolved bounds: everything
		// past onboarding reads t.spec.Resources.
		t.spec.Resources = rr
		if rr.Multi() {
			if err := t.initMulti(rr, replicas, minutes, opts); err != nil {
				return nil, fmt.Errorf("fleet: tenant %q: %w", spec.Name, err)
			}
		}
		t.inj = faults.New(h.FaultSpec, h.FaultSeed)
		if t.inj != nil {
			t.inj.Stats = h.Metrics
			if events {
				t.sink = sinkPool.Get().(*obs.MemorySink)
				t.sink.Reset()
				t.inj.Events = t.sink
			}
		}
		t.res = TenantResult{
			Name:         spec.Name,
			Recommender:  rec.Name(),
			InitialCores: rr.Initial.CPUCores,
		}
		ts[i] = t
	}

	// The fleet-level injector drives cluster-wide scheduling pressure
	// from the sequential loop; its events go straight to the shared sink.
	finj := faults.New(h.FaultSpec, h.FaultSeed)
	if finj != nil {
		finj.Events, finj.Stats = h.Events, h.Metrics
	}

	if events {
		h.Events.Emit(obs.Event{T: 0, Type: "fleet.run", Fields: []obs.Field{
			obs.I("tenants", int64(len(ts))),
			obs.I("minutes", int64(minutes)),
			obs.I("nodes", int64(len(cluster.Nodes()))),
			obs.I("decision_every", int64(opts.DecisionEveryMinutes)),
		}})
	}

	return &runState{
		ts:      ts,
		cluster: cluster,
		finj:    finj,
		h:       h,
		events:  events,
		minutes: minutes,
		warmup:  warmup,
		d:       opts.DecisionEveryMinutes,
		workers: opts.Workers,
		res:     &Result{Minutes: minutes, Tenants: make([]TenantResult, len(ts))},
		arb:     &arbScratch{},
		defBits: make([]atomic.Uint64, (minutes+63)/64),
	}, nil
}

// finish closes the books after the loop: it emits the per-tenant
// summaries and replays each tenant's buffered fault stream, all in
// tenant order, and reduces the fleet aggregates.
func (s *runState) finish() *Result {
	res := s.res
	for i, t := range s.ts {
		t.meter.Flush()
		t.res.FinalCores = t.set.CPULimit()
		t.res.BilledCorePeriods = t.meter.BilledCorePeriods()
		t.res.FaultCounts = t.inj.Counts()
		if t.mr != nil {
			t.finishMulti()
		}
		res.Tenants[i] = t.res

		res.TotalSlack += t.res.SumSlack
		res.TotalInsufficient += t.res.SumInsufficient
		res.TotalCost += t.res.BilledCorePeriods
		res.TotalScalings += t.res.NumScalings
		res.TotalDeferrals += t.res.Deferrals
		res.TotalAborted += t.res.ResizesAborted
		res.TotalOOMMinutes += t.res.OOMMinutes
		res.TotalRAMShortGBMin += t.res.RAMShortGBMin
		res.TotalRAMCost += t.res.BilledRAMGBPeriods
		res.TotalDiskCost += t.res.BilledDiskGBPeriods

		if s.events {
			fields := []obs.Field{
				obs.S("tenant", t.spec.Name),
				obs.S("recommender", t.res.Recommender),
				obs.F("slack", t.res.SumSlack),
				obs.F("insufficient", t.res.SumInsufficient),
				obs.I("scalings", int64(t.res.NumScalings)),
				obs.I("deferrals", int64(t.res.Deferrals)),
				obs.I("aborted", int64(t.res.ResizesAborted)),
				obs.I("throttled_minutes", int64(t.res.ThrottledMinutes)),
				obs.F("cost", t.res.BilledCorePeriods),
			}
			if t.mr != nil {
				// Appended, never reordered: CPU-only tenant events stay
				// byte-identical to the pre-vector stream.
				fields = append(fields,
					obs.I("ram_gb", int64(t.res.FinalRAMGB)),
					obs.I("disk_gb", int64(t.res.FinalDiskGB)),
					obs.I("replicas", int64(t.res.FinalReplicas)),
					obs.I("oom_minutes", int64(t.res.OOMMinutes)),
					obs.F("ram_short", t.res.RAMShortGBMin),
				)
			}
			s.h.Events.Emit(obs.Event{T: int64(s.minutes), Type: "fleet.tenant", Fields: fields})
			if t.sink != nil {
				t.sink.ReplayTo(s.h.Events)
				sinkPool.Put(t.sink)
				t.sink = nil
			}
		}
	}
	for i := range s.defBits {
		res.ArbitrationTicks += bits.OnesCount64(s.defBits[i].Load())
	}
	res.PressureWindows = s.finj.Counts().PressureWindows

	if m := s.h.Metrics; m != nil {
		m.Counter("fleet.tenants").Add(int64(len(s.ts)))
		m.Counter("fleet.minutes").Add(int64(s.minutes))
		m.Counter("fleet.resizes").Add(int64(res.TotalScalings))
		m.Counter("fleet.deferrals").Add(int64(res.TotalDeferrals))
		m.Counter("fleet.resizes_aborted").Add(int64(res.TotalAborted))
		m.Gauge("fleet.total_cost").Set(res.TotalCost)
	}
	return res
}

// enactTick runs phase 2 at one decision tick and closes its books: a
// tick that deferred at least one tenant is marked in the shared
// arbitration bitmap and, with a sink attached, summarized by a
// "fleet.arbitration" event.
func (s *runState) enactTick(cands []int, pressure float64, now int) {
	contenders, granted, deferred := s.enactPhase(cands, pressure, now)
	if deferred == 0 {
		return
	}
	// Concurrent groups OR into the same words; OR commutes, so the
	// union is schedule-independent.
	w, mask := &s.defBits[uint(now)>>6], uint64(1)<<(uint(now)&63)
	for {
		old := w.Load()
		if old&mask != 0 || w.CompareAndSwap(old, old|mask) {
			break
		}
	}
	if s.events {
		s.h.Events.Emit(obs.Event{T: int64(now), Type: "fleet.arbitration", Fields: []obs.Field{
			obs.I("contenders", int64(contenders)),
			obs.I("granted", int64(granted)),
			obs.I("deferred", int64(deferred)),
			obs.F("pressure", pressure),
		}})
	}
}

// enactPhase is phase 2 — the sequential enact/arbitrate pass at one
// decision tick. cands lists the tenant indices that may hold proposals,
// in ascending order: the tenants of one group awake at this tick
// (sleeping tenants provably file nothing, so walking every tenant would
// be equivalent). It returns the tick's arbitration tallies — the
// scale-up contender count and how many were granted vs deferred — for
// enactTick to summarize.
//
// Scale-downs go first: they only release capacity, so they are always
// granted and make room for this tick's scale-ups (the arbiter sees the
// freed cores).
func (s *runState) enactPhase(cands []int, pressure float64, now int) (contenders, granted, deferred int) {
	ts := s.ts
	ups := s.ups[:0]
	for _, i := range cands {
		t := ts[i]
		if !t.hasProp {
			continue
		}
		if !t.prop.grows(t) {
			s.enactProposal(t, now)
		} else {
			ups = append(ups, i)
		}
	}

	// Arbitration: grant scale-ups most-throttled-first; tenant index
	// breaks ties deterministically. The order is total (indices are
	// unique), so this closure-free insertion sort reproduces exactly
	// the permutation sort.SliceStable used to produce. Each grant
	// applies its in-place resizes immediately, so later feasibility
	// checks see the already-reserved capacity.
	if len(ups) > 0 {
		for a := 1; a < len(ups); a++ {
			v := ups[a]
			sv := ts[v].prop.severity
			b := a - 1
			for b >= 0 {
				sb := ts[ups[b]].prop.severity
				if sv > sb || (sv == sb && v < ups[b]) {
					ups[b+1] = ups[b]
					b--
				} else {
					break
				}
			}
			ups[b+1] = v
		}
		for _, i := range ups {
			t := ts[i]
			if node, short := s.checkFeasible(t, pressure); node != "" {
				t.res.Deferrals++
				deferred++
				if s.events {
					s.h.Events.Emit(obs.Event{T: int64(now), Type: "fleet.deferred", Fields: []obs.Field{
						obs.S("tenant", t.spec.Name),
						obs.I("from", int64(t.set.CPULimit())),
						obs.I("want", int64(t.prop.target)),
						obs.F("severity", t.prop.severity),
						obs.S("node", node),
						obs.F("short_cores", short),
					}})
				}
				continue
			}
			s.enactProposal(t, now)
			granted++
		}
	}
	s.ups = ups
	return len(ups), granted, deferred
}

// enactProposal routes a granted proposal to the matching enactor.
func (s *runState) enactProposal(t *tenant, now int) {
	if t.prop.multi {
		s.enactMulti(t, now)
		return
	}
	enact(t, t.prop, s.cluster, s.arb, s.h.Events, s.events, now)
}

// checkFeasible routes the arbiter's capacity check: CPU-only proposals
// keep the single-dimension node scan; multi proposals bin-pack CPU and
// RAM deltas together.
func (s *runState) checkFeasible(t *tenant, pressure float64) (string, float64) {
	if t.prop.multi {
		return infeasibleMulti(t, s.cluster, pressure, s.arb)
	}
	return infeasible(t, t.prop.target, s.cluster, pressure, s.arb)
}

// arbScratch holds the phase-2 working storage reused across ticks: the
// per-node resize tally of infeasible (a pair of parallel slices — sets
// span a handful of nodes, so linear probing beats a map rebuilt per
// check) and enact's rollback list.
type arbScratch struct {
	nodes   []string
	need    []float64
	needMem []float64 // RAM deltas per node (multi-resource proposals)
	done    []*k8s.Pod
}

// infeasible checks whether granting the tenant's scale-up would
// oversubscribe any node hosting its pods: per node, the summed resize
// deltas must fit the node's free capacity minus the transient scheduling
// pressure (which the raw in-place resize path does not see — the arbiter
// is the pressure-aware layer). It returns the first violating node's
// name and the shortfall in cores, or "" when the grant fits.
func infeasible(t *tenant, target int, cluster *k8s.Cluster, pressure float64, arb *arbScratch) (string, float64) {
	arb.nodes = arb.nodes[:0]
	arb.need = arb.need[:0]
	for _, p := range t.set.Pods {
		delta := float64(target) - p.CPULimit()
		if delta <= 0 || p.NodeName == "" {
			continue
		}
		found := false
		for j, name := range arb.nodes {
			if name == p.NodeName {
				arb.need[j] += delta
				found = true
				break
			}
		}
		if !found {
			arb.nodes = append(arb.nodes, p.NodeName)
			arb.need = append(arb.need, delta)
		}
	}
	for j, name := range arb.nodes {
		n := cluster.NodeByName(name)
		if n == nil {
			return name, arb.need[j]
		}
		free := n.Free().CPUCores - pressure
		if arb.need[j] > free {
			return name, arb.need[j] - free
		}
	}
	return "", 0
}

// enact applies one granted proposal: every pod of the set is resized in
// place to the target (all-or-nothing — an unexpected mid-apply rejection
// rolls the already-resized pods back). An injected restart failure
// aborts the enactment before any pod changes, modelling a failed apply.
func enact(t *tenant, prop proposal, cluster *k8s.Cluster, arb *arbScratch, sink obs.Sink, events bool, now int) {
	from := t.set.CPULimit()
	if t.inj.RestartFails(t.pod, int64(now)) {
		t.res.ResizesAborted++
		if events {
			sink.Emit(obs.Event{T: int64(now), Type: "fleet.resize-aborted", Fields: []obs.Field{
				obs.S("tenant", t.spec.Name),
				obs.I("from", int64(from)),
				obs.I("to", int64(prop.target)),
				obs.S("reason", "restart-fail"),
			}})
		}
		return
	}
	done := arb.done[:0]
	for _, p := range t.set.Pods {
		spec := k8s.NewGuaranteedSpec(prop.target, t.spec.MemGiBPerPod)
		if err := cluster.ResizeInPlace(p, spec); err != nil {
			// The arbiter pre-checked feasibility, so this is a genuine
			// surprise (e.g. a racing co-tenant): roll back and treat it
			// as an aborted enactment rather than leaving the set split.
			for _, q := range done {
				_ = cluster.ResizeInPlace(q, k8s.NewGuaranteedSpec(from, t.spec.MemGiBPerPod))
			}
			arb.done = done[:0]
			t.res.ResizesAborted++
			if events {
				sink.Emit(obs.Event{T: int64(now), Type: "fleet.resize-aborted", Fields: []obs.Field{
					obs.S("tenant", t.spec.Name),
					obs.I("from", int64(from)),
					obs.I("to", int64(prop.target)),
					obs.S("reason", "infeasible"),
				}})
			}
			return
		}
		done = append(done, p)
	}
	arb.done = done[:0]
	t.res.NumScalings++
	if events {
		sink.Emit(obs.Event{T: int64(now), Type: "fleet.resize", Fields: []obs.Field{
			obs.S("tenant", t.spec.Name),
			obs.I("from", int64(from)),
			obs.I("to", int64(prop.target)),
			obs.F("severity", prop.severity),
		}})
	}
}
