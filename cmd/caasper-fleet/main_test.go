package main

import (
	"encoding/json"
	"testing"

	"caasper"
)

// TestResourcesCPUEntrySetsBounds: a cpu= entry of -resources sets every
// tenant's CPU bounds, overriding -initial/-min/-max; without one the
// flags apply.
func TestResourcesCPUEntrySetsBounds(t *testing.T) {
	flags := tenantFlags{
		count: 4, workloads: []string{"workday12h", "cyclical3d"}, recommenders: []string{"caasper"},
		seed: 1, initial: 4, minCores: 2, maxCores: 16, replicas: 1, memGiB: 1,
	}
	for _, tc := range []struct {
		spec              string
		initial, min, max int
		capped            bool // limits must never exceed 4 cores
	}{
		{"cpu=1-4,ram=4-16", 1, 1, 4, true},
		{"ram=4-16", 4, 2, 16, false},
	} {
		flags.resources = tc.spec
		tenants, err := buildTenants(flags)
		if err != nil {
			t.Fatal(err)
		}
		for _, ts := range tenants {
			rr := ts.Range()
			if rr.Initial.CPUCores != tc.initial || rr.Min.CPUCores != tc.min || rr.Max.CPUCores != tc.max {
				t.Fatalf("%s: tenant %s CPU range %+v, want %d in [%d, %d]", tc.spec, ts.Name, rr, tc.initial, tc.min, tc.max)
			}
		}
		opts := caasper.DefaultFleetOptions()
		opts.Minutes = 720
		mem := caasper.NewMemorySink()
		opts.Events = mem
		if _, err := caasper.RunFleet(tenants, opts); err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		peak := 0
		for _, e := range mem.Events() {
			if e.Type != "fleet.resize" {
				continue
			}
			var ev struct{ To int }
			if err := json.Unmarshal(e.AppendNDJSON(nil), &ev); err != nil {
				t.Fatal(err)
			}
			peak = max(peak, ev.To)
		}
		if got := peak <= 4; got != tc.capped {
			t.Errorf("%s: largest resize target %d cores, want capped at 4 = %v", tc.spec, peak, tc.capped)
		}
	}
}
