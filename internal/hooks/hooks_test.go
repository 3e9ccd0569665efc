package hooks

import (
	"testing"

	"caasper/internal/faults"
	"caasper/internal/obs"
)

func TestInjectorWiring(t *testing.T) {
	if inj := (RunHooks{}).Injector(); inj != nil {
		t.Errorf("empty hooks should build a nil (fault-free) injector, got %v", inj)
	}
	spec, err := faults.ParseSpec("metrics-gap:p=1")
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewMemorySink()
	reg := obs.NewRegistry()
	inj := RunHooks{Events: sink, Metrics: reg, FaultSpec: spec, FaultSeed: 4}.Injector()
	if inj == nil {
		t.Fatal("non-empty spec should build an injector")
	}
	if inj.Events != obs.Sink(sink) || inj.Stats != reg {
		t.Error("Injector must prewire the hooks' sink and registry")
	}
	if !inj.DropSample("pod-0", 1) {
		t.Error("p=1 metrics-gap should drop every sample")
	}
}
