package bench

import (
	"encoding/json"
	"errors"
	"flag"
	"os"
	"reflect"
	"runtime"
	"testing"

	"caasper"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.json from fresh fleet replays")

// TestSmoke runs every workload at tiny sizes, untraced and traced,
// through the same code paths and checks as a measured run: digests
// (golden for seeds 1 and 2, traced equal to untraced), reference
// servers, the timing wrapper and every reported metric.
func TestSmoke(t *testing.T) {
	for _, w := range Workloads {
		var untraced map[string]string
		for _, traced := range []bool{false, true} {
			o := Options{Workload: w, Seed: 1, Seconds: 0.3, Trace: traced, Sizes: Tiny, TmpDir: t.TempDir()}
			res, err := Run(o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct {
				t.Errorf("%s traced=%v: incorrect: attempted %d failed %d problems %q", w, traced, res.Attempted, res.Failed, res.Problems)
			}
			if !traced {
				untraced = res.Digests
			} else if !reflect.DeepEqual(res.Digests, untraced) {
				t.Errorf("%s: traced digests %v, untraced %v", w, res.Digests, untraced)
			}
			want := EndToEnd
			if traced {
				want = PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", w, traced, m.Name)
				}
			}
		}
	}
}

// TestRefusesTooManyProcs: Ps beyond the CPU count would measure the Go
// scheduler, not the program.
func TestRefusesTooManyProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + 1))
	_, err := Run(Options{Workload: FleetMonthPlateau, Seed: 1, Seconds: 0.1, Sizes: Tiny})
	if !errors.Is(err, ErrTooManyProcs) {
		t.Fatalf("Run at GOMAXPROCS > NumCPU: %v, want ErrTooManyProcs", err)
	}
}

// TestAtReferenceSpeed: on a machine running 1.5 times slower than the
// reference, times shrink and rates grow by 1.5; sizes pass through.
func TestAtReferenceSpeed(t *testing.T) {
	for _, c := range []struct {
		unit    string
		v, want float64
	}{{"s", 3, 2}, {"ms", 3, 2}, {"1/s", 2, 3}, {"MB", 7, 7}} {
		if got := atReferenceSpeed(c.unit, c.v, 1.5); got != c.want {
			t.Errorf("atReferenceSpeed(%q, %v, 1.5) = %v, want %v", c.unit, c.v, got, c.want)
		}
	}
}

// TestGoldenDigests checks the committed tiny-size digests and, with
// -update, regenerates every committed digest (tiny and full sizes).
func TestGoldenDigests(t *testing.T) {
	sizes := []Sizes{Tiny}
	if *update {
		sizes = append(sizes, Full)
	}
	got := map[string]string{}
	for _, s := range sizes {
		for _, w := range []string{FleetMonthPlateau, FleetWeekMixed} {
			for _, seed := range GoldenSeeds {
				in := plateauInput(seed, s)
				if w == FleetWeekMixed {
					in = mixedInput(seed, s)
				}
				out, err := in.replay(0, nil, nil, true)
				if err != nil {
					t.Fatal(err)
				}
				if in.engine == caasper.FleetEngineEvents {
					// Pin the event engine's digest to the stepped
					// reference engine before trusting it.
					stepped := *in
					stepped.engine = caasper.FleetEngineStepped
					ref, err := stepped.replay(0, nil, nil, false)
					if err != nil {
						t.Fatal(err)
					}
					if ref.digest != out.digest {
						t.Fatalf("%s %s seed %d: events digest %s, stepped %s", w, s.Name, seed, out.digest, ref.digest)
					}
				}
				got[goldenKey(w, s.Name, seed, "result")] = out.digest
				if in.events {
					got[goldenKey(w, s.Name, seed, "stream")] = out.stream
				}
			}
		}
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/digests.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests", len(got))
		return
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range got {
		if g[k] != v {
			t.Errorf("%s: digest %s, committed %q (rerun with -update after an intentional change)", k, v, g[k])
		}
	}
}
