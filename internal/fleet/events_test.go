package fleet

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"caasper/internal/baselines"
	"caasper/internal/core"
	"caasper/internal/faults"
	"caasper/internal/k8s"
	"caasper/internal/obs"
	"caasper/internal/recommend"
	"caasper/internal/trace"
)

// runFleet executes one fleet run — on the tick loop, or on the stepped
// oracle when oracle is set — capturing the result and the encoded event
// stream.
func runFleet(t *testing.T, specs []TenantSpec, opts Options, oracle bool, workers int) (*Result, string) {
	t.Helper()
	mem := obs.NewMemorySink()
	opts.Workers = workers
	opts.Events = mem
	run := Run
	if oracle {
		run = runSteppedOracle
	}
	res, err := run(specs, opts)
	if err != nil {
		t.Fatalf("oracle=%v workers=%d: %v", oracle, workers, err)
	}
	return res, encodeStream(mem)
}

// checkEquivalent runs the fleet built by specs/opts on the stepped oracle
// and then on the tick loop at workers 1, 4 and 8, requiring bit-equal
// results and byte-identical event streams.
func checkEquivalent(t *testing.T, specs func() []TenantSpec, opts func() Options) *Result {
	t.Helper()
	base, baseStream := runFleet(t, specs(), opts(), true, 1)
	for _, w := range []int{1, 4, 8} {
		res, stream := runFleet(t, specs(), opts(), false, w)
		if !reflect.DeepEqual(base, res) {
			t.Errorf("workers=%d: result diverged from the stepped oracle:\n%s\nvs\n%s",
				w, base.Summary(), res.Summary())
		}
		if stream != baseStream {
			t.Errorf("workers=%d: event stream diverged from the stepped oracle", w)
		}
	}
	return base
}

// chaos16Opts is the scripts/fleet.sh chaos configuration: the small
// cluster with restart-fail, metrics-gap and sched-pressure faults.
func chaos16Opts(t *testing.T) Options {
	t.Helper()
	spec, err := faults.ParseSpec("restart-fail:p=0.2,metrics-gap:p=0.05,sched-pressure:p=0.5:dur=60:cores=4")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Minutes = 240
	opts.FaultSpec = spec
	opts.FaultSeed = 7
	return withSmallCluster(opts)
}

// TestEventEngineEquivalenceChaos16 is the tick loop's contract on the
// same configuration scripts/fleet.sh pins as the chaos golden: a
// 16-tenant heterogeneous fleet on the small cluster with every CPU fault
// active must reproduce the stepped oracle bit for bit — results and
// NDJSON stream — at every worker count.
func TestEventEngineEquivalenceChaos16(t *testing.T) {
	base := checkEquivalent(t,
		func() []TenantSpec { return mixedFleet(t, 16) },
		func() Options { return chaos16Opts(t) })
	if base.TotalScalings == 0 {
		t.Fatal("chaos fleet produced no scalings; traces too tame to prove anything")
	}
}

// withSmallCluster returns opts with a fresh small cluster (cluster state
// is mutated by a run, so each run needs its own).
func withSmallCluster(opts Options) Options {
	opts.Cluster = k8s.SmallCluster()
	return opts
}

// TestEventEngineEquivalenceRandomized64 fuzzes the equivalence over a
// 64-tenant fleet with a fixed seed: piecewise-constant and noisy traces,
// every recommender family (bulk-capable, steady-capable, per-minute-only,
// and one that implements neither optional interface), 1–2 replicas, and
// chaos faults. Any divergence between the tick loop's analytic catch-up
// and the per-minute replay shows up as a result or stream mismatch.
func TestEventEngineEquivalenceRandomized64(t *testing.T) {
	checkEquivalent(t,
		func() []TenantSpec { return randomized64Specs(t) },
		func() Options { return randomized64Opts(t) })
}

const randomized64Minutes = 420

// randomized64Specs builds the 64-tenant fuzz fleet the equivalence and
// group tests share: piecewise-constant and noisy traces,
// every recommender family, 1–2 replicas. Deterministic (fixed seed), so
// repeated calls build identical fleets.
func randomized64Specs(t *testing.T) []TenantSpec {
	t.Helper()
	const minutes = randomized64Minutes

	mkTrace := func(rng *rand.Rand, name string) *trace.Trace {
		vs := make([]float64, minutes)
		if rng.Intn(2) == 0 {
			// Piecewise-constant: long flat runs — the tick loop's best
			// case, exercising bulk append and steady sleep.
			level := 0.5 + rng.Float64()*4
			for i := 0; i < minutes; {
				runLen := 20 + rng.Intn(120)
				for j := 0; j < runLen && i < minutes; j++ {
					vs[i] = level
					i++
				}
				level = 0.5 + rng.Float64()*4
			}
		} else {
			// Noisy: every minute distinct — degenerates the catch-up to
			// minute-length runs found by scanning (no run index).
			for i := range vs {
				vs[i] = 0.5 + rng.Float64()*4
			}
		}
		return trace.New(name, time.Minute, vs)
	}

	rng := rand.New(rand.NewSource(42))
	specs := make([]TenantSpec, 0, 64)
	for i := 0; i < 64; i++ {
		tr := mkTrace(rng, fmt.Sprintf("r%02d", i))
		maxC := 8
		var factory func() (recommend.Recommender, error)
		switch i % 6 {
		case 0:
			factory = func() (recommend.Recommender, error) {
				return recommend.NewCaaSPERReactive(core.DefaultConfig(maxC), 40)
			}
		case 1:
			factory = func() (recommend.Recommender, error) {
				return baselines.NewKubernetesVPA(baselines.DefaultKubernetesVPAOptions(maxC))
			}
		case 2:
			factory = func() (recommend.Recommender, error) {
				return baselines.NewOpenShiftVPA(baselines.DefaultOpenShiftVPAOptions(maxC))
			}
		case 3:
			factory = func() (recommend.Recommender, error) {
				return baselines.NewAutopilot(baselines.DefaultAutopilotOptions(maxC))
			}
		case 4:
			factory = func() (recommend.Recommender, error) {
				return baselines.NewControl(4), nil
			}
		case 5:
			factory = stubFactory("stub", 2+i%4) // neither optional interface
		}
		specs = append(specs, TenantSpec{
			Name:           fmt.Sprintf("t%02d", i),
			Trace:          tr,
			NewRecommender: factory,
			Resources:      core.CPURange(1+rng.Intn(3), 1, maxC),
			Replicas:       1 + rng.Intn(2),
			MemGiBPerPod:   1,
		})
	}
	return specs
}

// randomized64Opts builds the fuzz fleet's options: sixteen wide nodes
// (so the 64 tenants partition into many node-disjoint groups) and the
// full chaos fault spec.
func randomized64Opts(t *testing.T) Options {
	t.Helper()
	spec, err := faults.ParseSpec("restart-fail:p=0.1,metrics-gap:p=0.03,sched-pressure:p=0.3:dur=45:cores=8")
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*k8s.Node, 16)
	for i := range nodes {
		nodes[i] = k8s.NewNode(fmt.Sprintf("node-%d", i), 64, 256)
	}
	cluster, err := k8s.NewCluster(nodes...)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Cluster = cluster
	opts.Minutes = randomized64Minutes
	opts.FaultSpec = spec
	opts.FaultSeed = 11
	return opts
}

// countingRec wraps the reactive adapter, counting Recommend calls while
// transparently promoting its RunObserver/SteadyObserver methods.
type countingRec struct {
	*recommend.CaaSPERReactive
	calls *int64
}

func (c *countingRec) Recommend(cur int) int {
	atomic.AddInt64(c.calls, 1)
	return c.CaaSPERReactive.Recommend(cur)
}

// TestEventEngineSleepsSteadyTenants proves the wake queue actually skips
// decision ticks: on a two-level piecewise-constant trace held at "hold"
// by the Min.CPUCores clamp, the tick loop must consult the recommender far
// less often than the stepped oracle's once-per-tick — with bit-equal
// results.
func TestEventEngineSleepsSteadyTenants(t *testing.T) {
	const minutes = 600
	vs := make([]float64, minutes)
	for i := range vs {
		if i < 300 {
			vs[i] = 1
		} else {
			vs[i] = 3
		}
	}
	mkSpecs := func(calls *int64) []TenantSpec {
		return []TenantSpec{{
			Name:  "steady",
			Trace: trace.New("two-level", time.Minute, vs),
			NewRecommender: func() (recommend.Recommender, error) {
				r, err := recommend.NewCaaSPERReactive(core.DefaultConfig(8), 40)
				if err != nil {
					return nil, err
				}
				return &countingRec{CaaSPERReactive: r, calls: calls}, nil
			},
			// The Min clamp forces "hold" on the low plateau.
			Resources:    core.CPURange(4, 4, 8),
			Replicas:     1,
			MemGiBPerPod: 1,
		}}
	}

	run := func(oracle bool) (*Result, int64) {
		var calls int64
		opts := DefaultOptions()
		opts.Cluster = k8s.SmallCluster()
		opts.Minutes = minutes
		run := Run
		if oracle {
			run = runSteppedOracle
		}
		res, err := run(mkSpecs(&calls), opts)
		if err != nil {
			t.Fatalf("oracle=%v: %v", oracle, err)
		}
		return res, atomic.LoadInt64(&calls)
	}

	stepped, steppedCalls := run(true)
	events, eventsCalls := run(false)
	if !reflect.DeepEqual(stepped, events) {
		t.Errorf("results diverged:\n%s\nvs\n%s", stepped.Summary(), events.Summary())
	}
	// The oracle decides at every tick 10, 20, …, 590: 59 calls. The tick
	// loop should need only the window warm-ups around the two plateaus.
	if steppedCalls != 59 {
		t.Fatalf("oracle made %d Recommend calls, want 59 (test premise broken)", steppedCalls)
	}
	if eventsCalls >= steppedCalls/2 {
		t.Errorf("tick loop made %d Recommend calls vs the oracle's %d; steady tenant never slept",
			eventsCalls, steppedCalls)
	}
}

// TestEventEngineEdgeCadences pins the tick loop to the oracle on awkward
// schedules: a warm-up beyond the horizon (no decisions at all), a
// cadence that does not divide the horizon, and a horizon ending exactly
// on a decision tick.
func TestEventEngineEdgeCadences(t *testing.T) {
	cases := []struct {
		name           string
		minutes, d, wu int
	}{
		{"no decisions", 120, 10, 1000},
		{"odd cadence", 100, 7, 13},
		{"horizon on tick", 90, 30, 30},
		{"every minute", 50, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Minutes = tc.minutes
			opts.DecisionEveryMinutes = tc.d
			opts.WarmupMinutes = tc.wu
			base, baseStream := runFleet(t, mixedFleet(t, 4), withSmallCluster(opts), true, 1)
			res, stream := runFleet(t, mixedFleet(t, 4), withSmallCluster(opts), false, 1)
			if !reflect.DeepEqual(base, res) {
				t.Errorf("result diverged:\n%s\nvs\n%s", base.Summary(), res.Summary())
			}
			if stream != baseStream {
				t.Errorf("event stream diverged")
			}
		})
	}
}
