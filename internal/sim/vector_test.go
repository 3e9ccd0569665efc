package sim

import (
	"errors"
	"strings"
	"testing"
	"time"

	"caasper/internal/core"
	"caasper/internal/errs"
	"caasper/internal/faults"
	"caasper/internal/obs"
	"caasper/internal/recommend"
	"caasper/internal/trace"
)

func vectorOpts(t *testing.T, spec string) Options {
	t.Helper()
	rr, err := core.ParseResourceSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(2, 8)
	opts.Resources = rr.OrCPU(opts.Resources)
	return opts
}

func TestRunVectorCPUByteIdentical(t *testing.T) {
	tr := trace.New("t", time.Minute, make([]float64, 180))
	for i := range tr.Values {
		tr.Values[i] = 2 + float64(i%7)
	}
	newRec := func() recommend.Recommender {
		r, err := recommend.NewCaaSPERReactive(core.DefaultConfig(8), 40)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base, err := Run(tr, newRec(), DefaultOptions(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	vec, err := RunVector(tr, newRec(), vectorOpts(t, "ram=4-16"))
	if err != nil {
		t.Fatal(err)
	}
	// The CPU dimension of a vector run must be the CPU-only run, field
	// for field.
	if base.String() != vec.Result.String() {
		t.Fatalf("CPU dimension diverged:\n%s\nvs\n%s", base.String(), vec.Result.String())
	}
	if len(base.Decisions) != len(vec.Decisions) {
		t.Fatalf("decision counts diverged: %d vs %d", len(base.Decisions), len(vec.Decisions))
	}
}

func TestRunVectorScalesRAMAndDisk(t *testing.T) {
	n := 240
	cpu := make([]float64, n)
	ram := make([]float64, n)
	for i := range cpu {
		cpu[i] = 3
		ram[i] = 2
		if i >= 60 && i < 180 {
			ram[i] = 9 // above the initial 4 GB grant
		}
	}
	opts := vectorOpts(t, "ram=4-16,disk=5-50")
	opts.RAMTrace = trace.New("ram", time.Minute, ram)
	rec, _ := recommend.NewByName("control", recommend.Settings{MaxCores: 8})
	res, err := RunVector(trace.New("t", time.Minute, cpu), rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.RAMScalings == 0 || res.OOMMinutes == 0 {
		t.Fatalf("RAM loop inert: %d scalings, %d oom", res.RAMScalings, res.OOMMinutes)
	}
	if res.FinalDiskGB < 5 || res.BilledDiskGBPeriods == 0 {
		t.Fatalf("disk loop inert: final=%d billed=%v", res.FinalDiskGB, res.BilledDiskGBPeriods)
	}
	if res.TotalCost() <= res.BilledCorePeriods {
		t.Fatalf("vector cost must exceed the CPU bill alone: %v", res.TotalCost())
	}
	if !strings.Contains(res.String(), "ram=") {
		t.Fatalf("vector String misses RAM: %s", res.String())
	}
}

func TestRunVectorMemPressureFaults(t *testing.T) {
	n := 300
	cpu := make([]float64, n)
	for i := range cpu {
		cpu[i] = 2
	}
	opts := vectorOpts(t, "ram=2-8")
	spec, err := faults.ParseSpec("mem-pressure:p=0.6:dur=60:gb=5")
	if err != nil {
		t.Fatal(err)
	}
	opts.FaultSpec = spec
	opts.FaultSeed = 11
	mem := obs.NewMemorySink()
	opts.RunHooks.Events = mem
	rec, _ := recommend.NewByName("control", recommend.Settings{MaxCores: 8})
	res, err := RunVector(trace.New("t", time.Minute, cpu), rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemPressureWindows == 0 {
		t.Fatal("p=0.6 over 5 windows should fire at least once")
	}
	var sawFault, sawOOM bool
	var buf []byte
	for _, e := range mem.Events() {
		buf = e.AppendNDJSON(buf[:0])
		s := string(buf)
		if strings.Contains(s, "fault.mem-pressure") {
			sawFault = true
		}
		if strings.Contains(s, "sim.oom") {
			sawOOM = true
		}
	}
	if !sawFault || !sawOOM {
		t.Fatalf("expected fault.mem-pressure and sim.oom events: fault=%v oom=%v", sawFault, sawOOM)
	}
	// Determinism: same seed, same counters.
	res2, err := RunVector(trace.New("t", time.Minute, cpu), rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.MemPressureWindows != res.MemPressureWindows || res2.OOMMinutes != res.OOMMinutes {
		t.Fatalf("nondeterministic fault stream: %d/%d vs %d/%d",
			res.MemPressureWindows, res.OOMMinutes, res2.MemPressureWindows, res2.OOMMinutes)
	}
}

func TestRunVectorRejectsCPUOnly(t *testing.T) {
	rec, _ := recommend.NewByName("control", recommend.Settings{MaxCores: 8})
	_, err := RunVector(trace.New("t", time.Minute, []float64{1, 2}), rec, DefaultOptions(2, 8))
	if !errors.Is(err, errs.ErrInvalidConfig) {
		t.Fatalf("CPU-only options must be rejected, got %v", err)
	}
}
