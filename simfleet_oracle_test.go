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

// simFleetOracleMaxCores tops the SKU ladder for every case.
const simFleetOracleMaxCores = 32

func TestSimFleetOracle(t *testing.T) {
	for _, wl := range []string{"workday12h", "cyclical3d", "step62h", "customer"} {
		for _, name := range RecommenderNames() {
			t.Run(wl+"/"+name, func(t *testing.T) {
				t.Parallel()
				tr := Workloads[wl](1)
				settings := RecommenderSettings{MaxCores: simFleetOracleMaxCores}

				rec, err := NewRecommenderByName(name, settings)
				if err != nil {
					t.Fatal(err)
				}
				opts := DefaultSimOptions(4, simFleetOracleMaxCores)
				opts.ResizeDelayMinutes = 0
				sr, err := Simulate(tr, rec, opts)
				if err != nil {
					t.Fatal(err)
				}

				// Raise every node far past the tenant's ceiling so the
				// arbiter never defers: the fleet then enacts every
				// proposal at its decision tick, like an instant resize.
				cluster := LargeCluster()
				for _, n := range cluster.Nodes() {
					n.Allocatable.CPUCores = 4 * simFleetOracleMaxCores
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

				for _, c := range []struct {
					what      string
					sim, flee any
				}{
					{"SumSlack", sr.SumSlack, ft.SumSlack},
					{"SumInsufficient", sr.SumInsufficient, ft.SumInsufficient},
					{"ThrottledMinutes", sr.ThrottledMinutes, ft.ThrottledMinutes},
					{"NumScalings", sr.NumScalings, ft.NumScalings},
					{"BilledCorePeriods", sr.BilledCorePeriods, ft.BilledCorePeriods},
				} {
					// %b prints a float64's exact bits: equal strings are
					// bit-equal values.
					if s, f := fmt.Sprintf("%b", c.sim), fmt.Sprintf("%b", c.flee); s != f {
						t.Errorf("%s: sim %v, fleet %v", c.what, c.sim, c.flee)
					}
				}

				var simSeq, fleetSeq []string
				for _, d := range sr.Decisions {
					simSeq = append(simSeq, fmt.Sprintf("t=%d %d->%d", d.Minute, d.From, d.To))
				}
				for _, e := range events.Events() {
					if e.Type != "fleet.resize" {
						continue
					}
					var r struct{ T, From, To int }
					if err := json.Unmarshal(e.AppendNDJSON(nil), &r); err != nil {
						t.Fatal(err)
					}
					fleetSeq = append(fleetSeq, fmt.Sprintf("t=%d %d->%d", r.T, r.From, r.To))
				}
				if fmt.Sprint(simSeq) != fmt.Sprint(fleetSeq) {
					t.Errorf("resize sequences differ:\n sim   %v\n fleet %v", simSeq, fleetSeq)
				}
				if len(simSeq) != sr.NumScalings {
					t.Errorf("sim recorded %d decisions for %d scalings", len(simSeq), sr.NumScalings)
				}
			})
		}
	}
}
