package caasper

import (
	"encoding/json"
	"fmt"
	"testing"
)

// The sim ↔ fleet oracle: one trace replayed through Simulate with
// instant resizes and through a one-tenant RunFleet on an uncontended
// cluster must account the same K, C, throttled minutes, N and bill bit
// for bit, and enact the same resizes at the same decision minutes. The
// two surfaces share the recommenders and the billing model but not
// their replay loops (Simulate walks minute by minute, the fleet catches
// up run by run), so any drift in either loop's accounting shows here.
//
// The vector rows replay RAM and disk as well: SimulateVector against a
// multi-resource tenant. The simulator sizes RAM and disk through
// recommend.RAMTarget/DiskTarget, the fleet through
// recommend.NextResources, which calls the same two functions, so the
// final grants, shortfalls and per-dimension bills must agree bit for
// bit too.

// simFleetOracleMaxCores tops the SKU ladder for every case.
const simFleetOracleMaxCores = 32

// simFleetOracleVectors are the resource specs of the vector rows; the
// CPU-only rows (empty spec) keep their unprefixed subtest names.
var simFleetOracleVectors = []struct{ label, spec string }{
	{"", ""},
	{"vector-ram/", "cpu=2-32,ram=4-16"},
	{"vector-disk/", "cpu=2-32,disk=20-100"},
	{"vector-ram-disk/", "cpu=2-32,ram=4-64,disk=10-200"},
}

func TestSimFleetOracle(t *testing.T) {
	for _, vec := range simFleetOracleVectors {
		for _, wl := range []string{"workday12h", "cyclical3d", "step62h", "customer"} {
			for _, name := range RecommenderNames() {
				t.Run(vec.label+wl+"/"+name, func(t *testing.T) {
					t.Parallel()
					simFleetOracleCase(t, wl, name, vec.spec)
				})
			}
		}
	}
}

func simFleetOracleCase(t *testing.T, wl, name, spec string) {
	tr := Workloads[wl](1)
	settings := RecommenderSettings{MaxCores: simFleetOracleMaxCores}

	rec, err := NewRecommenderByName(name, settings)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultSimOptions(4, simFleetOracleMaxCores)
	opts.ResizeDelayMinutes = 0
	var sr *SimResult
	var vr *VectorSimResult
	simEvents := NewMemorySink()
	if spec == "" {
		if sr, err = Simulate(tr, rec, opts); err != nil {
			t.Fatal(err)
		}
	} else {
		rr, err := ParseResourceSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		opts.Resources = rr
		opts.Events = simEvents
		if vr, err = SimulateVector(tr, rec, opts); err != nil {
			t.Fatal(err)
		}
		sr = vr.Result
	}

	// Raise every node far past the tenant's ceiling so the arbiter never
	// defers: the fleet then enacts every proposal at its decision tick,
	// like an instant resize.
	cluster := LargeCluster()
	for _, n := range cluster.Nodes() {
		n.Allocatable.CPUCores = 4 * simFleetOracleMaxCores
		n.Allocatable.MemoryGiB = 1024
	}
	events := NewMemorySink()
	fo := DefaultFleetOptions()
	fo.Cluster = cluster
	fo.Events = events
	fo.Workers = 1
	fr, err := RunFleet([]TenantSpec{{
		Name:  "t0",
		Trace: tr,
		NewRecommender: func() (Recommender, error) {
			return NewRecommenderByName(name, settings)
		},
		Resources:    opts.Resources,
		MemGiBPerPod: 1,
	}}, fo)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Minutes != sr.Minutes {
		t.Fatalf("horizon: fleet %d minutes, sim %d", fr.Minutes, sr.Minutes)
	}
	ft := fr.Tenants[0]
	if ft.Deferrals != 0 {
		t.Fatalf("the raised cluster deferred %d proposals", ft.Deferrals)
	}

	var simSeq, fleetSeq []string
	simResized := map[int]bool{} // decision minutes with a CPU or RAM move
	for _, d := range sr.Decisions {
		simSeq = append(simSeq, fmt.Sprintf("t=%d %d->%d", d.Minute, d.From, d.To))
		simResized[d.Minute] = true
	}
	for _, e := range simEvents.Events() {
		if e.Type == "sim.ram-resize" {
			simResized[int(e.T)] = true
		}
	}
	for _, e := range events.Events() {
		if e.Type != "fleet.resize" {
			continue
		}
		var r struct{ T, From, To int }
		if err := json.Unmarshal(e.AppendNDJSON(nil), &r); err != nil {
			t.Fatal(err)
		}
		// A vector tenant's RAM- or disk-only move is a fleet.resize
		// too; only a CPU change belongs to the CPU sequence.
		if r.From != r.To {
			fleetSeq = append(fleetSeq, fmt.Sprintf("t=%d %d->%d", r.T, r.From, r.To))
		}
	}

	type row struct {
		what      string
		sim, flee any
	}
	rows := []row{
		{"SumSlack", sr.SumSlack, ft.SumSlack},
		{"SumInsufficient", sr.SumInsufficient, ft.SumInsufficient},
		{"ThrottledMinutes", sr.ThrottledMinutes, ft.ThrottledMinutes},
		{"BilledCorePeriods", sr.BilledCorePeriods, ft.BilledCorePeriods},
	}
	if vr == nil {
		rows = append(rows, row{"NumScalings", sr.NumScalings, ft.NumScalings})
	} else {
		rows = append(rows,
			// The one named divergence: the fleet's N counts every pod
			// resize, CPU or RAM (disk grows without one), while the
			// simulator counts CPU moves in N and RAM moves in
			// RAMScalings. The fleet's N is the number of decision
			// minutes at which the simulator moved either.
			row{"NumScalings (fleet: CPU or RAM pod resizes)", len(simResized), ft.NumScalings},
			row{"FinalRAMGB", vr.FinalRAMGB, ft.FinalRAMGB},
			row{"FinalDiskGB", vr.FinalDiskGB, ft.FinalDiskGB},
			row{"OOMMinutes", vr.OOMMinutes, ft.OOMMinutes},
			row{"RAMShortGBMin", vr.RAMShortGBMin, ft.RAMShortGBMin},
			row{"DiskFullMinutes", vr.DiskFullMinutes, ft.DiskFullMinutes},
			row{"BilledRAMGBPeriods", vr.BilledRAMGBPeriods, ft.BilledRAMGBPeriods},
			row{"BilledDiskGBPeriods", vr.BilledDiskGBPeriods, ft.BilledDiskGBPeriods},
		)
	}
	for _, c := range rows {
		// %b prints a float64's exact bits: equal strings are bit-equal
		// values.
		if s, f := fmt.Sprintf("%b", c.sim), fmt.Sprintf("%b", c.flee); s != f {
			t.Errorf("%s: sim %v, fleet %v", c.what, c.sim, c.flee)
		}
	}

	if fmt.Sprint(simSeq) != fmt.Sprint(fleetSeq) {
		t.Errorf("resize sequences differ:\n sim   %v\n fleet %v", simSeq, fleetSeq)
	}
	if len(simSeq) != sr.NumScalings {
		t.Errorf("sim recorded %d decisions for %d scalings", len(simSeq), sr.NumScalings)
	}
}
