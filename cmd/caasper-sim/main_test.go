package main

import (
	"strings"
	"testing"
	"time"

	"caasper"
)

func TestLoadTraceSelection(t *testing.T) {
	if _, err := loadTrace("", "", "", 1); err == nil {
		t.Error("no source should error")
	}
	if _, err := loadTrace("nope", "", "", 1); err == nil {
		t.Error("unknown workload should error")
	}
	tr, err := loadTrace("workday12h", "", "", 1)
	if err != nil || tr.Len() == 0 {
		t.Errorf("workload load failed: %v", err)
	}
	tr, err = loadTrace("", "c_1", "", 1)
	if err != nil || tr.Len() == 0 {
		t.Errorf("alibaba load failed: %v", err)
	}
	if _, err := loadTrace("", "", "/nonexistent/file.csv", 1); err == nil {
		t.Error("missing trace file should error")
	}
}

func TestBuildRecommenderSelection(t *testing.T) {
	names := []string{"caasper", "caasper-proactive", "vpa", "openshift", "autopilot", "control"}
	for _, n := range names {
		rec, err := buildRecommender(n, 16, 8, 40, 60, 1440)
		if err != nil {
			t.Errorf("%s: %v", n, err)
			continue
		}
		if rec.Name() == "" {
			t.Errorf("%s: empty name", n)
		}
	}
	if _, err := buildRecommender("bogus", 16, 8, 40, 60, 1440); err == nil {
		t.Error("unknown recommender should error")
	}
}

func TestKnownWorkloadsLists(t *testing.T) {
	s := knownWorkloads()
	if !strings.Contains(s, "workday12h") || !strings.Contains(s, "step62h") {
		t.Errorf("known workloads = %q", s)
	}
}

func TestAsciiChart(t *testing.T) {
	demand := []float64{1, 2, 3, 4, 5, 6}
	limits := []float64{6, 6, 6, 6, 6, 6}
	out := asciiChart(demand, limits, 3, 5)
	if !strings.Contains(out, "#") || !strings.Contains(out, ".") {
		t.Errorf("chart missing marks:\n%s", out)
	}
	if !strings.Contains(out, "max 6.0") {
		t.Errorf("chart header wrong:\n%s", out)
	}
	if asciiChart(nil, nil, 10, 5) != "" {
		t.Error("empty chart should be empty")
	}
	// All-zero series must not divide by zero.
	if out := asciiChart([]float64{0, 0}, []float64{0, 0}, 2, 3); out == "" {
		t.Error("zero chart should still render")
	}
}

func TestEndToEndSimViaHelpers(t *testing.T) {
	tr, err := loadTrace("workday12h", "", "", 2)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := buildRecommender("caasper", 8, 0, 40, 60, 720)
	if err != nil {
		t.Fatal(err)
	}
	opts := caasper.DefaultSimOptions(6, 8)
	res, err := caasper.Simulate(tr, rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Minutes != int(12*time.Hour/time.Minute) {
		t.Errorf("minutes = %d", res.Minutes)
	}
}

// TestResourcesCPUEntrySetsBounds: a cpu= entry of -resources sets the
// CPU bounds, overriding -initial/-max; without one the flags apply.
func TestResourcesCPUEntrySetsBounds(t *testing.T) {
	tr, err := loadTrace("workday12h", "", "", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec    string
		capped  bool // limit must never exceed 4 cores
		initial int
	}{
		{"cpu=1-4,ram=4-16", true, 1},
		{"ram=4-16", false, 4},
	} {
		opts, err := simOptions(4, 16, tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		rr := opts.Resources.WithDefaults()
		rec, err := buildRecommender("caasper", rr.Max.CPUCores, 0, 40, 60, 1440)
		if err != nil {
			t.Fatal(err)
		}
		res, err := caasper.SimulateVector(tr, rec, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		peak := 0.0
		for _, l := range res.Limits {
			peak = max(peak, l)
		}
		if got := peak <= 4; got != tc.capped {
			t.Errorf("%s: peak limit %v cores, want capped at 4 = %v", tc.spec, peak, tc.capped)
		}
		if res.Limits[0] != float64(tc.initial) {
			t.Errorf("%s: initial limit %v, want %d", tc.spec, res.Limits[0], tc.initial)
		}
	}
}
