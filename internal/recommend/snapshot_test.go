package recommend

import (
	"encoding/json"
	"math"
	"testing"

	"caasper/internal/core"
	"caasper/internal/forecast"
)

// demand is a deterministic wiggly series exercising every Algorithm 1
// branch: ramps, plateaus and a drop.
func demandAt(t int) float64 {
	base := 4 + 3*math.Sin(float64(t)/37)
	if t%200 > 150 {
		base += 5
	}
	return base
}

// runAdapter drives rec over minutes [from, to), deciding every 10
// samples, and returns the decision series.
func runAdapter(t *testing.T, rec Recommender, from, to int, cores *int) []int {
	t.Helper()
	var out []int
	for m := from; m < to; m++ {
		rec.Observe(m, demandAt(m))
		if (m+1)%10 == 0 {
			*cores = rec.Recommend(*cores)
			out = append(out, *cores)
		}
	}
	return out
}

// TestStateSnapshotRoundTrip pins the checkpoint guarantee: an adapter
// snapshotted mid-window (through a JSON round trip, as the serve layer's
// checkpoint file does) and restored onto a fresh identically configured
// adapter emits bit-identical subsequent decisions.
func TestStateSnapshotRoundTrip(t *testing.T) {
	cfg := core.DefaultConfig(16)
	build := func(name string) StateSnapshotter {
		t.Helper()
		switch name {
		case "reactive":
			r, err := NewCaaSPERReactive(cfg, 40)
			if err != nil {
				t.Fatal(err)
			}
			return r
		case "proactive":
			r, err := NewCaaSPERProactive(cfg, &forecast.SeasonalNaive{Season: 120}, 40, 20, 120)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		t.Fatalf("unknown adapter %q", name)
		return nil
	}
	// Cut points cover: mid-warm-up, exactly at window saturation, deep in
	// steady operation, and (for proactive) after forecast activation.
	for _, name := range []string{"reactive", "proactive"} {
		for _, cut := range []int{7, 40, 173, 360} {
			const end = 600
			ref := build(name)
			refCores := 8
			refAll := runAdapter(t, ref.(Recommender), 0, end, &refCores)

			live := build(name)
			liveCores := 8
			runAdapter(t, live.(Recommender), 0, cut, &liveCores)
			raw, err := json.Marshal(live.SnapshotState())
			if err != nil {
				t.Fatalf("%s cut=%d: marshal: %v", name, cut, err)
			}
			var state State
			if err := json.Unmarshal(raw, &state); err != nil {
				t.Fatalf("%s cut=%d: unmarshal: %v", name, cut, err)
			}

			restored := build(name)
			if err := restored.RestoreState(state); err != nil {
				t.Fatalf("%s cut=%d: restore: %v", name, cut, err)
			}
			restoredCores := liveCores
			got := runAdapter(t, restored.(Recommender), cut, end, &restoredCores)

			want := refAll[len(refAll)-len(got):]
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s cut=%d: decision %d after restore = %d cores, uninterrupted run said %d",
						name, cut, i, got[i], want[i])
				}
			}
			// The lazily materialised explanation must survive too: the
			// memo's template is part of the snapshot.
			if e1, e2 := ref.(Explainer).Explain(), restored.(Explainer).Explain(); e1 != e2 {
				t.Fatalf("%s cut=%d: explanation diverged after restore:\n  uninterrupted: %q\n  restored:      %q",
					name, cut, e1, e2)
			}
		}
	}
}

// TestRestoreStateRejectsBadSnapshot pins that a malformed window
// snapshot surfaces as an error instead of corrupting the ring.
func TestRestoreStateRejectsBadSnapshot(t *testing.T) {
	r, err := NewCaaSPERReactive(core.DefaultConfig(8), 10)
	if err != nil {
		t.Fatal(err)
	}
	bad := State{Window: make([]float64, 11), Total: 11} // exceeds capacity
	if err := r.RestoreState(bad); err == nil {
		t.Fatal("RestoreState accepted a window larger than the adapter's capacity")
	}
}

// TestDecisionReporter pins that both adapters surface their last full
// decision, including the branch and target, through the optional
// interface the serve layer's decision records use.
func TestDecisionReporter(t *testing.T) {
	r, err := NewCaaSPERReactive(core.DefaultConfig(16), 40)
	if err != nil {
		t.Fatal(err)
	}
	var rep DecisionReporter = r
	if d := rep.LastFullDecision(); d.Target.CPUCores != 0 {
		t.Fatalf("zero-value decision expected before first Recommend, got %+v", d)
	}
	cores := 8
	runAdapter(t, r, 0, 100, &cores)
	d := rep.LastFullDecision()
	if d.Target.CPUCores != cores {
		t.Fatalf("LastFullDecision().Target.CPUCores = %d, Recommend said %d", d.Target.CPUCores, cores)
	}
}
