// Package hooks defines RunHooks, the telemetry-and-chaos knob set shared
// by every run harness in the repository. The simulator (internal/sim),
// the live loop (internal/dbsim) and the fleet controller (internal/fleet)
// all accept the same three cross-cutting inputs — a structured event
// sink, a metrics registry and a deterministic fault injection spec plus
// its seed — under one spelling: the embedded RunHooks, whose fields are
// promoted, so opts.Events, opts.Metrics, opts.FaultSpec and
// opts.FaultSeed read and write the same four knobs in every harness.
package hooks

import (
	"caasper/internal/faults"
	"caasper/internal/obs"
)

// RunHooks carries the cross-cutting run knobs shared by SimOptions,
// LiveOptions and FleetOptions.
type RunHooks struct {
	// Events, when non-nil and enabled, receives the run's structured
	// event stream, keyed on the harness's simulated-time unit and
	// byte-identical across worker counts.
	Events obs.Sink
	// Metrics, when non-nil, receives runtime counters, gauges and
	// latency histograms. Wall-clock telemetry, outside the determinism
	// contract.
	Metrics *obs.Registry
	// FaultSpec, when non-empty, injects deterministic faults into the
	// run (see internal/faults). Nil runs fault-free at nil-check cost.
	FaultSpec *faults.Spec
	// FaultSeed seeds the injector's deterministic draws: same seed,
	// same faults, byte-for-byte, at any worker count.
	FaultSeed uint64
}

// Injector builds the run's fault injector from the spec and seed (nil —
// the zero-cost fault-free path — when the spec is empty). The injector's
// Events/Stats are prewired to the hooks' sink and registry.
func (h RunHooks) Injector() *faults.Injector {
	inj := faults.New(h.FaultSpec, h.FaultSeed)
	if inj != nil {
		inj.Events, inj.Stats = h.Events, h.Metrics
	}
	return inj
}
