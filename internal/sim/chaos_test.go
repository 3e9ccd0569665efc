package sim

import (
	"runtime"
	"strings"
	"testing"

	"caasper/internal/baselines"
	"caasper/internal/core"
	"caasper/internal/faults"
	"caasper/internal/obs"
	"caasper/internal/recommend"
	"caasper/internal/trace"
	"caasper/internal/workload"
)

// Chaos determinism contract (acceptance criterion of the fault-injection
// PR): with a fixed -fault-seed the full NDJSON event stream — fault.*
// injections included — is byte-identical at every worker count, because
// each cell builds its injector from (spec, seed) alone and every draw
// derives a fresh PRNG from (seed, kind, pod, time).
func TestChaosEventStreamDeterministicAcrossWorkers(t *testing.T) {
	spec, err := faults.ParseSpec("restart-fail:p=0.2,restart-stuck:p=0.3:dur=25,metrics-gap:p=0.05,sched-pressure:cores=2")
	if err != nil {
		t.Fatal(err)
	}
	factories := []RecommenderFactory{
		{Name: "caasper", New: func() (recommend.Recommender, error) {
			return recommend.NewCaaSPERReactive(core.DefaultConfig(8), 40)
		}},
		{Name: "vpa", New: func() (recommend.Recommender, error) {
			return baselines.NewKubernetesVPA(baselines.DefaultKubernetesVPAOptions(8))
		}},
	}
	run := func(workers int) string {
		t.Helper()
		tr := workload.Workday12h(42)
		mem := obs.NewMemorySink()
		opts := DefaultOptions(8, 8)
		opts.Workers = workers
		opts.Events = mem
		opts.FaultSpec = spec
		opts.FaultSeed = 7
		if _, err := RunMatrix([]*trace.Trace{tr}, factories, opts); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return encodeStream(mem)
	}

	want := run(1)
	if want == "" {
		t.Fatal("empty event stream")
	}
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := run(workers); got != want {
			t.Errorf("workers=%d: chaos event stream not byte-identical to sequential run (%d vs %d bytes)",
				workers, len(got), len(want))
		}
	}

	// The run must not be vacuously fault-free: the stream carries real
	// injections and at least one aborted resize audit.
	faultLines, aborts := 0, 0
	for _, l := range strings.Split(strings.TrimSuffix(want, "\n"), "\n") {
		if strings.Contains(l, `"type":"fault.`) {
			faultLines++
		}
		if strings.Contains(l, `"type":"sim.resize-aborted"`) {
			aborts++
		}
	}
	if faultLines == 0 {
		t.Error("no fault.* events in chaos stream")
	}
	if aborts == 0 {
		t.Error("no sim.resize-aborted events in chaos stream")
	}
}

// TestChaosSameSeedSameResult pins the scalar side of the contract: two
// runs with the same (spec, seed) agree on every fault counter and
// headline metric, while a different seed draws a different fault mix.
func TestChaosSameSeedSameResult(t *testing.T) {
	spec, err := faults.ParseSpec("restart-fail:p=0.3,metrics-gap:p=0.1")
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed uint64) *Result {
		t.Helper()
		tr := workload.Workday12h(42)
		rec, err := recommend.NewCaaSPERReactive(core.DefaultConfig(8), 40)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions(8, 8)
		opts.FaultSpec = spec
		opts.FaultSeed = seed
		res, err := Run(tr, rec, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	a, b := run(7), run(7)
	if a.FaultCounts != b.FaultCounts {
		t.Errorf("same seed, different fault counts: %+v vs %+v", a.FaultCounts, b.FaultCounts)
	}
	if a.AbortedScalings != b.AbortedScalings || a.NumScalings != b.NumScalings ||
		a.BilledCorePeriods != b.BilledCorePeriods || a.SumSlack != b.SumSlack {
		t.Errorf("same seed, different results: %+v vs %+v", a, b)
	}
	if a.FaultCounts.MetricsGaps == 0 {
		t.Error("chaos run drew no metrics gaps; spec p=0.1 over a 12h trace should")
	}
	c := run(99)
	if c.FaultCounts == a.FaultCounts {
		t.Error("different seeds drew identical fault counts; injector may be ignoring the seed")
	}
}

// TestChaosFreePathMatchesBaseline: a nil fault spec must leave the
// simulator byte-for-byte on the pre-fault-injection path — same event
// stream and same result as a run that never heard of faults.
func TestChaosFreePathMatchesBaseline(t *testing.T) {
	run := func(withEmptySpec bool) (string, *Result) {
		t.Helper()
		tr := workload.Workday12h(42)
		rec, err := recommend.NewCaaSPERReactive(core.DefaultConfig(8), 40)
		if err != nil {
			t.Fatal(err)
		}
		mem := obs.NewMemorySink()
		opts := DefaultOptions(8, 8)
		opts.Events = mem
		if withEmptySpec {
			opts.FaultSpec = &faults.Spec{}
			opts.FaultSeed = 1234
		}
		res, err := Run(tr, rec, opts)
		if err != nil {
			t.Fatal(err)
		}
		return encodeStream(mem), res
	}
	baseStream, baseRes := run(false)
	gotStream, gotRes := run(true)
	if gotStream != baseStream {
		t.Error("empty fault spec changed the event stream")
	}
	if gotRes.NumScalings != baseRes.NumScalings || gotRes.BilledCorePeriods != baseRes.BilledCorePeriods {
		t.Errorf("empty fault spec changed results: %+v vs %+v", gotRes, baseRes)
	}
	if gotRes.FaultCounts != (faults.Counts{}) {
		t.Errorf("fault counts on a fault-free run: %+v", gotRes.FaultCounts)
	}
}
