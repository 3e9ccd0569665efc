package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestBenchmarkJSONMatchesCatalogue keeps the repository's BENCHMARK.json
// and this package's catalogue in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []Metric `json:"end_to_end"`
		PerLayer []Metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if want := []string{"bash", "bench/run.sh"}; !reflect.DeepEqual(doc.Command, want) {
		t.Errorf("command %q, want %q", doc.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(doc.Paths, want) {
		t.Errorf("paths %q, want %q", doc.Paths, want)
	}
	if doc.RunSeconds != RunSeconds {
		t.Errorf("run_seconds %v, want %v", doc.RunSeconds, RunSeconds)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1-200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, Workloads) {
		t.Errorf("workloads %q, want %q", names, Workloads)
	}
	if !reflect.DeepEqual(doc.EndToEnd, EndToEnd) {
		t.Errorf("end_to_end %+v\nwant %+v", doc.EndToEnd, EndToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, PerLayer) {
		t.Errorf("per_layer %+v\nwant %+v", doc.PerLayer, PerLayer)
	}
	var setup bool
	for _, m := range EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower better")
	}
}
