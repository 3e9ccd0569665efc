package fleet

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"caasper/internal/core"
	"caasper/internal/k8s"
	"caasper/internal/obs"
	"caasper/internal/recommend"
	"caasper/internal/trace"
)

// placedTenant builds a bare tenant whose pods sit on the named nodes —
// enough structure for shardPartition, which reads only set.Pods.
func placedTenant(nodes ...string) *tenant {
	set := &k8s.StatefulSet{}
	for _, n := range nodes {
		set.Pods = append(set.Pods, &k8s.Pod{NodeName: n})
	}
	return &tenant{set: set}
}

// TestShardPartition pins the partition law directly: connected
// components of the tenant–node placement graph, groups ordered by
// smallest member, members ascending within a group.
func TestShardPartition(t *testing.T) {
	cases := []struct {
		name        string
		ts          []*tenant
		wantIdxs    []int32
		wantOffsets []int32
	}{
		{
			name: "disjoint singletons",
			ts: []*tenant{
				placedTenant("n1"), placedTenant("n2"), placedTenant("n3"),
			},
			wantIdxs:    []int32{0, 1, 2},
			wantOffsets: []int32{0, 1, 2, 3},
		},
		{
			name: "transitive chain via shared nodes",
			// t0–n1–t2 and t2–n3–t3 connect {0,2,3}; t1 stays alone.
			ts: []*tenant{
				placedTenant("n1"),
				placedTenant("n2"),
				placedTenant("n1", "n3"),
				placedTenant("n3"),
				placedTenant("n4"),
			},
			wantIdxs:    []int32{0, 2, 3, 1, 4},
			wantOffsets: []int32{0, 3, 4, 5},
		},
		{
			name: "one clique",
			ts: []*tenant{
				placedTenant("n1"), placedTenant("n1"), placedTenant("n1"),
			},
			wantIdxs:    []int32{0, 1, 2},
			wantOffsets: []int32{0, 3},
		},
		{
			name: "unplaced pods are singletons",
			// An empty NodeName (pod not yet scheduled) must not weld
			// every such tenant into one false mega-shard.
			ts: []*tenant{
				placedTenant(""), placedTenant(""), placedTenant("n1"),
			},
			wantIdxs:    []int32{0, 1, 2},
			wantOffsets: []int32{0, 1, 2, 3},
		},
		{
			name: "multi-replica spread joins groups",
			// t1's replicas land on both n1 and n2, merging t0 and t2.
			ts: []*tenant{
				placedTenant("n1"),
				placedTenant("n1", "n2"),
				placedTenant("n2"),
			},
			wantIdxs:    []int32{0, 1, 2},
			wantOffsets: []int32{0, 3},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			idxs, offsets := shardPartition(tc.ts)
			if !reflect.DeepEqual(idxs, tc.wantIdxs) || !reflect.DeepEqual(offsets, tc.wantOffsets) {
				t.Errorf("shardPartition = %v %v, want %v %v", idxs, offsets, tc.wantIdxs, tc.wantOffsets)
			}
		})
	}
}

// groupCount reports how many tenant groups Run would split the fleet
// into.
func groupCount(t *testing.T, specs []TenantSpec, opts Options) int {
	t.Helper()
	s, err := newRun(specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, offsets := s.partition()
	return len(offsets) - 1
}

// checkGroupsEquivalent runs the fleet without an event sink — so its
// node-disjoint groups run straight through, with no merge epochs — on
// the stepped oracle and then on the tick loop at workers 1, 4 and 8, requiring
// bit-equal results, the merged ArbitrationTicks and PressureWindows
// counters included. It fails unless the fleet really splits.
func checkGroupsEquivalent(t *testing.T, specs func() []TenantSpec, opts func() Options) *Result {
	t.Helper()
	if n := groupCount(t, specs(), opts()); n < 2 {
		t.Fatalf("fleet runs as %d group; the test needs a split", n)
	}
	base, err := runSteppedOracle(specs(), opts())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4, 8} {
		o := opts()
		o.Workers = w
		res, err := Run(specs(), o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, res) {
			t.Errorf("workers=%d: result diverged from the stepped oracle:\n%s\nvs\n%s",
				w, base.Summary(), res.Summary())
		}
	}
	return base
}

// TestShardedEquivalenceChaos16 runs the scripts/fleet.sh chaos fleet
// without a sink, so its node-disjoint groups run concurrently, and pins
// the result to the stepped oracle at every worker count.
func TestShardedEquivalenceChaos16(t *testing.T) {
	base := checkGroupsEquivalent(t,
		func() []TenantSpec { return mixedFleet(t, 16) },
		func() Options { return chaos16Opts(t) })
	if base.ArbitrationTicks == 0 || base.PressureWindows == 0 {
		t.Fatalf("chaos fleet never contended (%d arbitration ticks, %d pressure windows); the merged counters go unchecked",
			base.ArbitrationTicks, base.PressureWindows)
	}
}

// singlePodSpecs is the 64-tenant fuzz fleet with one pod per tenant:
// spread replicas weld the 16 nodes into one placement component, while
// single pods leave 16 node-disjoint groups of about four tenants.
func singlePodSpecs(t *testing.T) []TenantSpec {
	specs := randomized64Specs(t)
	for i := range specs {
		specs[i].Replicas = 1
	}
	return specs
}

// TestShardedEquivalenceRandomized64 runs the single-pod fuzz fleet
// without a sink against the stepped oracle at several worker counts.
func TestShardedEquivalenceRandomized64(t *testing.T) {
	checkGroupsEquivalent(t,
		func() []TenantSpec { return singlePodSpecs(t) },
		func() Options { return randomized64Opts(t) })
}

// TestOneGroupRules pins when the fleet must run as one group even though
// its placement graph splits: only with a stateless multi-resource tenant
// (scale-out schedules on any node). An attached sink no longer merges
// the groups: a split run rebuilds the one-group stream (merge.go).
func TestOneGroupRules(t *testing.T) {
	opts := func() Options { return randomized64Opts(t) }
	n := groupCount(t, singlePodSpecs(t), opts())
	if n < 2 {
		t.Fatalf("premise: the fuzz fleet splits into %d group(s)", n)
	}

	withSink := opts()
	withSink.Events = obs.NewMemorySink()
	if got := groupCount(t, singlePodSpecs(t), withSink); got != n {
		t.Errorf("run with a sink split into %d groups, want %d", got, n)
	}

	specs := singlePodSpecs(t)
	specs[5].Resources = mustRange("ram=4-16,replicas=1-3").OrCPU(specs[5].Resources)
	if n := groupCount(t, specs, opts()); n < 2 {
		t.Errorf("a stateful multi-resource tenant merged the fleet into %d group", n)
	}
	specs[5].Stateless = true
	if n := groupCount(t, specs, opts()); n != 1 {
		t.Errorf("fleet with a scale-out tenant split into %d groups, want 1", n)
	}
	if n := groupCount(t, specs, withSink); n != 1 {
		t.Errorf("fleet with a scale-out tenant and a sink split into %d groups, want 1", n)
	}
}

// TestRunReportsGroups pins the run's own account of how it ran: a split
// sink-attached run reports its groups and merge epochs, a connected
// fleet one group and no epochs.
func TestRunReportsGroups(t *testing.T) {
	run := func(specs []TenantSpec, opts Options) (groups float64, epochs int64) {
		reg := obs.NewRegistry()
		opts.Metrics = reg
		opts.Events = obs.NewMemorySink()
		if _, err := Run(specs, opts); err != nil {
			t.Fatal(err)
		}
		return reg.Gauge("fleet.groups").Value(), reg.Counter("fleet.merge_epochs").Value()
	}
	if g, e := run(mixedFleet(t, 16), chaos16Opts(t)); g < 2 || e < 1 {
		t.Errorf("split chaos fleet reported %v groups and %d merge epochs, want ≥ 2 and ≥ 1", g, e)
	}
	if g, e := run(randomized64Specs(t), randomized64Opts(t)); g != 1 || e != 0 {
		t.Errorf("connected fleet reported %v groups and %d merge epochs, want 1 and 0", g, e)
	}
}

// TestRunReportsWakes pins the run's account of how it woke. On a small
// plateau fleet every wake is one decision, and the sleepers' heap serves
// only the wakes after a sleep. On a noisy fleet no tenant can prove
// steadiness, so every tenant is due at every next tick and the heap
// serves none.
func TestRunReportsWakes(t *testing.T) {
	const minutes = 600
	plateau := make([]float64, minutes)
	noisy := make([]float64, minutes)
	rng := rand.New(rand.NewSource(3))
	for i := range plateau {
		plateau[i] = 1
		if i >= 300 {
			plateau[i] = 3
		}
		noisy[i] = 1 + 2*rng.Float64()
	}
	run := func(vs []float64) (wakes, heapWakes, calls int64) {
		specs := make([]TenantSpec, 3)
		for i := range specs {
			specs[i] = TenantSpec{
				Name:  fmt.Sprintf("t%d", i),
				Trace: trace.New("trace", time.Minute, vs),
				NewRecommender: func() (recommend.Recommender, error) {
					r, err := recommend.NewCaaSPERReactive(core.DefaultConfig(8), 40)
					return &countingRec{CaaSPERReactive: r, calls: &calls}, err
				},
				Resources:    core.CPURange(4, 4, 8),
				Replicas:     1,
				MemGiBPerPod: 1,
			}
		}
		reg := obs.NewRegistry()
		opts := DefaultOptions()
		opts.Cluster = k8s.SmallCluster()
		opts.Minutes = minutes
		opts.Metrics = reg
		if _, err := Run(specs, opts); err != nil {
			t.Fatal(err)
		}
		return reg.Counter("fleet.wakes").Value(), reg.Counter("fleet.heap_wakes").Value(), calls
	}

	wakes, heapWakes, calls := run(plateau)
	if wakes != calls || wakes != 27 || heapWakes != 3 {
		t.Errorf("plateau fleet: %d wakes (%d decisions), %d off the heap; want 27 (27), 3", wakes, calls, heapWakes)
	}
	// 59 decision ticks (10, 20, …, 590) × 3 tenants, all in lockstep.
	wakes, heapWakes, calls = run(noisy)
	if wakes != calls || wakes != 59*3 || heapWakes != 0 {
		t.Errorf("noisy fleet: %d wakes (%d decisions), %d off the heap; want 177 (177), 0", wakes, calls, heapWakes)
	}
}
