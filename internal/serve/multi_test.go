package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// postMultiSamples posts an NDJSON batch carrying RAM/disk readings next
// to the CPU ones.
func postMultiSamples(t *testing.T, base, id string, cpu, ram, disk []float64) {
	t.Helper()
	var b strings.Builder
	for i := range cpu {
		fmt.Fprintf(&b, `{"cpu":%g,"ram_gb":%g,"disk_gb":%g}`+"\n", cpu[i], ram[i], disk[i])
	}
	code, body, _ := do(t, http.MethodPost, base+"/v1/tenants/"+id+"/samples", b.String())
	if code != http.StatusAccepted {
		t.Fatalf("samples: %d %s", code, body)
	}
}

func statusRow(t *testing.T, base, id string) tenantStatus {
	t.Helper()
	code, body, _ := do(t, http.MethodGet, base+"/v1/tenants/"+id, "")
	if code != http.StatusOK {
		t.Fatalf("status: %d %s", code, body)
	}
	var st tenantStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServeMultiTenantLifecycle drives a multi-resource tenant end to
// end: RAM grows under the dual-threshold policy when the reported usage
// outruns the grant, disk grows (and only grows) behind its high-water
// mark, and the decision stream carries the appended ram_from/ram_to and
// disk_to fields.
func TestServeMultiTenantLifecycle(t *testing.T) {
	_, ts := testServer(t, Options{DecisionEveryMinutes: 10})
	register(t, ts.URL, "m",
		`{"policy":"control","max_cores":8,"min_ram_gb":2,"max_ram_gb":16,"initial_ram_gb":4,"disk_gb":10}`)

	n := 60
	cpu := make([]float64, n)
	ram := make([]float64, n)
	disk := make([]float64, n)
	for i := range cpu {
		cpu[i] = 2
		ram[i] = 9 // well above the 4 GB grant
		disk[i] = 9 + float64(i)*0.2
	}
	postMultiSamples(t, ts.URL, "m", cpu, ram, disk)
	waitSamples(t, ts.URL, "m", n)

	st := statusRow(t, ts.URL, "m")
	if st.RAMGB <= 4 || st.MaxRAMGB != 16 {
		t.Fatalf("RAM grant should have grown past 4 GB: %+v", st)
	}
	if st.DiskGB <= 10 {
		t.Fatalf("disk volume should have grown past 10 GB: %+v", st)
	}
	stream := decisionsOf(t, ts.URL, "m")
	if !strings.Contains(stream, `"ram_to"`) || !strings.Contains(stream, `"disk_to"`) {
		t.Fatalf("decision stream misses multi fields:\n%s", stream)
	}
}

// TestServeCPUOnlyUnchanged pins the byte-identity contract on the HTTP
// surface: a CPU-only tenant's status row and decision NDJSON contain
// none of the appended multi fields.
func TestServeCPUOnlyUnchanged(t *testing.T) {
	_, ts := testServer(t, Options{DecisionEveryMinutes: 10})
	register(t, ts.URL, "solo", `{"policy":"caasper","max_cores":8}`)
	postSamples(t, ts.URL, "solo", rampUsage(40))
	waitSamples(t, ts.URL, "solo", 40)

	_, body, _ := do(t, http.MethodGet, ts.URL+"/v1/tenants/solo", "")
	for _, field := range []string{"ram_gb", "max_ram_gb", "disk_gb", "replicas"} {
		if strings.Contains(body, field) {
			t.Fatalf("CPU-only status leaks %q: %s", field, body)
		}
	}
	stream := decisionsOf(t, ts.URL, "solo")
	for _, field := range []string{"ram_from", "ram_to", "disk_to", "replicas"} {
		if strings.Contains(stream, field) {
			t.Fatalf("CPU-only decisions leak %q:\n%s", field, stream)
		}
	}
}

// TestServeAdminRangeMulti retunes a CPU-only tenant into a
// multi-resource one through the admin range verb and checks replicas
// arrive via the horizontal-overflow path when the CPU target pins.
func TestServeAdminRangeMulti(t *testing.T) {
	_, ts := testServer(t, Options{DecisionEveryMinutes: 10})
	register(t, ts.URL, "web", `{"policy":"control","max_cores":4,"initial_cores":4,"min_cores":4}`)

	code, body, _ := do(t, http.MethodPut, ts.URL+"/v1/admin/tenants/web/range",
		`{"min_cores":4,"max_cores":4,"min_ram_gb":2,"max_ram_gb":8,"max_replicas":3}`)
	if code != http.StatusOK {
		t.Fatalf("admin range: %d %s", code, body)
	}
	var st tenantStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.RAMGB != 2 || st.MaxRAMGB != 8 || st.Replicas != 1 {
		t.Fatalf("range upgrade row = %+v", st)
	}

	// Pinned at 4 cores with hot usage → replicas climb.
	n := 40
	cpu := make([]float64, n)
	ram := make([]float64, n)
	disk := make([]float64, n)
	for i := range cpu {
		cpu[i] = 3.9
		ram[i] = 1
	}
	postMultiSamples(t, ts.URL, "web", cpu, ram, disk)
	waitSamples(t, ts.URL, "web", n)
	if st := statusRow(t, ts.URL, "web"); st.Replicas < 2 {
		t.Fatalf("pinned hot tier should have overflowed horizontally: %+v", st)
	}

	// Invalid multi bounds are rejected.
	code, _, _ = do(t, http.MethodPut, ts.URL+"/v1/admin/tenants/web/range",
		`{"min_cores":1,"max_cores":4,"min_ram_gb":9,"max_ram_gb":8}`)
	if code != http.StatusBadRequest {
		t.Fatalf("inverted RAM range accepted: %d", code)
	}
}

// TestServeMultiConfigValidation covers the registration-time checks.
func TestServeMultiConfigValidation(t *testing.T) {
	_, ts := testServer(t, Options{})
	for name, cfg := range map[string]string{
		"ram min without max":   `{"max_cores":4,"min_ram_gb":2}`,
		"ram min above max":     `{"max_cores":4,"min_ram_gb":9,"max_ram_gb":8}`,
		"initial ram outside":   `{"max_cores":4,"min_ram_gb":2,"max_ram_gb":8,"initial_ram_gb":9}`,
		"max disk without disk": `{"max_cores":4,"max_disk_gb":50}`,
		"disk above max disk":   `{"max_cores":4,"disk_gb":60,"max_disk_gb":50}`,
		"negative replicas":     `{"max_cores":4,"max_replicas":-1}`,
	} {
		code, body, _ := do(t, http.MethodPut, ts.URL+"/v1/tenants/bad", cfg)
		if code != http.StatusBadRequest {
			t.Errorf("%s: accepted (%d %s)", name, code, body)
		}
	}
}

// TestSnapshotV1MigrationBitIdentical pins the version migration: a v1
// CPU-only checkpoint (the pre-vector format) restored by the v2 server
// resumes with bit-identical subsequent decisions and RAM/disk left at
// their defaults. The second case also rewrites every decision to the
// pre-vector keys "CurrentCores"/"TargetCores", as real v1 files carry
// them, on a stream that plateaus before the cut so the first resumed
// decision is served from the restored memo; the restored server must
// never write those keys back.
func TestSnapshotV1MigrationBitIdentical(t *testing.T) {
	const cut = 87
	cfg := `{"policy":"caasper","max_cores":10,"initial_cores":5}`
	plateau := rampUsage(200)
	for i := 20; i < len(plateau); i++ {
		plateau[i] = 3
	}

	// The pre-vector decision spelling: the CPU allocation under two
	// scalar keys instead of the Current/Target vectors.
	vectors := regexp.MustCompile(`"Current":\{"CPUCores":(\d+),"RAMGB":0,"DiskGB":0,"Replicas":0\},"Target":\{"CPUCores":(\d+),"RAMGB":0,"DiskGB":0,"Replicas":0\}`)
	for _, tc := range []struct {
		name       string
		usage      []float64
		scalarKeys bool
	}{
		{"header", rampUsage(200), false},
		{"scalar-keys", plateau, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			usage, scalarKeys := tc.usage, tc.scalarKeys
			// Control: uninterrupted server over the full stream.
			_, ctl := testServer(t, Options{DecisionEveryMinutes: 10})
			register(t, ctl.URL, "mig", cfg)
			postSamples(t, ctl.URL, "mig", usage)
			waitSamples(t, ctl.URL, "mig", len(usage))
			want := decisionsOf(t, ctl.URL, "mig")

			// First half on a snapshotting server.
			snap := filepath.Join(t.TempDir(), "serve.snapshot")
			s1, err := New(Options{DecisionEveryMinutes: 10, SnapshotPath: snap})
			if err != nil {
				t.Fatal(err)
			}
			ts1 := newTestFrontend(t, s1)
			register(t, ts1, "mig", cfg)
			postSamples(t, ts1, "mig", usage[:cut])
			waitSamples(t, ts1, "mig", cut)
			if err := s1.Close(); err != nil {
				t.Fatal(err)
			}

			// Downgrade the checkpoint to the v1 format: every v2 tenant
			// field is omitempty, so beyond the header only the decision
			// spelling differs (rewritten in the scalar-keys case).
			raw, err := os.ReadFile(snap)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(raw), `"version":2`) {
				t.Fatalf("snapshot not v2: %s", raw)
			}
			for _, field := range []string{"ram_gb", "disk_gb", "replicas", "ram_peak"} {
				if strings.Contains(string(raw), field) {
					t.Fatalf("CPU-only v2 tenant line leaks %q — v1 compatibility broken: %s", field, raw)
				}
			}
			v1 := strings.Replace(string(raw), `"version":2`, `"version":1`, 1)
			if scalarKeys {
				if !vectors.MatchString(v1) {
					t.Fatalf("no decision vectors to rewrite: %s", v1)
				}
				v1 = vectors.ReplaceAllString(v1, `"CurrentCores":$1,"TargetCores":$2`)
			}
			if err := os.WriteFile(snap, []byte(v1), 0o644); err != nil {
				t.Fatal(err)
			}

			// Restore the v1 file into a fresh v2 server and finish the
			// stream.
			s2, err := New(Options{DecisionEveryMinutes: 10, SnapshotPath: snap})
			if err != nil {
				t.Fatalf("v2 server must restore a v1 checkpoint: %v", err)
			}
			ts2 := newTestFrontend(t, s2)
			if st := statusRow(t, ts2, "mig"); st.RAMGB != 0 || st.DiskGB != 0 || st.Replicas != 0 {
				t.Fatalf("v1 tenant restored with non-default multi state: %+v", st)
			}
			postSamples(t, ts2, "mig", usage[cut:])
			waitSamples(t, ts2, "mig", len(usage))
			got := decisionsOf(t, ts2, "mig")
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			if want != got {
				t.Fatalf("v1-migrated stream diverged:\ncontrol:\n%s\nmigrated:\n%s", want, got)
			}
			written, err := os.ReadFile(snap)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(string(written), "CurrentCores") || strings.Contains(string(written), "TargetCores") {
				t.Fatalf("restored server wrote a pre-vector decision key: %s", written)
			}
		})
	}
}

// TestSnapshotMultiRoundTrip extends the durability contract to the
// vector: a multi-resource tenant interrupted mid-window resumes with the
// same grants and a decision stream identical to an uninterrupted run.
func TestSnapshotMultiRoundTrip(t *testing.T) {
	n := 120
	const cut = 53
	cpu := make([]float64, n)
	ram := make([]float64, n)
	disk := make([]float64, n)
	for i := range cpu {
		cpu[i] = 2 + float64(i%5)
		ram[i] = 3 + float64(i%9)
		disk[i] = 8 + float64(i)*0.1
	}
	cfg := `{"policy":"control","max_cores":8,"min_ram_gb":2,"max_ram_gb":16,"disk_gb":10}`

	_, ctl := testServer(t, Options{DecisionEveryMinutes: 10})
	register(t, ctl.URL, "mv", cfg)
	postMultiSamples(t, ctl.URL, "mv", cpu, ram, disk)
	waitSamples(t, ctl.URL, "mv", n)

	snap := filepath.Join(t.TempDir(), "serve.snapshot")
	s1, err := New(Options{DecisionEveryMinutes: 10, SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := newTestFrontend(t, s1)
	register(t, ts1, "mv", cfg)
	postMultiSamples(t, ts1, "mv", cpu[:cut], ram[:cut], disk[:cut])
	waitSamples(t, ts1, "mv", cut)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Options{DecisionEveryMinutes: 10, SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := newTestFrontend(t, s2)
	defer s2.Close()
	postMultiSamples(t, ts2, "mv", cpu[cut:], ram[cut:], disk[cut:])
	waitSamples(t, ts2, "mv", n)

	if want, got := decisionsOf(t, ctl.URL, "mv"), decisionsOf(t, ts2, "mv"); want != got {
		t.Fatalf("multi stream diverged after restart:\ncontrol:\n%s\nrestored:\n%s", want, got)
	}
	if want, got := statusRow(t, ctl.URL, "mv"), statusRow(t, ts2, "mv"); want != got {
		t.Fatalf("multi status diverged after restart: %+v vs %+v", want, got)
	}
}
