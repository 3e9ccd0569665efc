package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
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

	// Tightening the ranges clamps the current grants immediately.
	code, body, _ = do(t, http.MethodPut, ts.URL+"/v1/admin/tenants/web/range",
		`{"min_cores":2,"max_cores":3,"min_ram_gb":1,"max_ram_gb":1,"max_replicas":1}`)
	if code != http.StatusOK {
		t.Fatalf("admin range: %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Cores != 3 || st.RAMGB != 1 || st.Replicas != 1 {
		t.Fatalf("tightened range row = %+v", st)
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

// v2FixtureCut is the sample count at which testdata/v2.snapshot, a
// checkpoint written by the v2 server, was taken.
const v2FixtureCut = 87

// v2FixtureTenant is one tenant of testdata/v2.snapshot: its config and
// its full sample stream (RAM and disk nil for a CPU-only tenant).
type v2FixtureTenant struct {
	id, cfg        string
	cpu, ram, disk []float64
}

// v2FixtureTenants returns the tenants of testdata/v2.snapshot in ID
// order: the reactive policy over a ramp and over a plateau, the
// proactive one with its forecast active at the cut (its last decision
// carries the prefixed explanation), and a multi-resource tenant. The v2
// server registered each, posted the first v2FixtureCut samples over HTTP
// with a decision every 10 minutes, and wrote the file at Close.
func v2FixtureTenants() []v2FixtureTenant {
	const n = 200
	plateau := rampUsage(n)
	for i := 20; i < n; i++ {
		plateau[i] = 3
	}
	ram, disk := make([]float64, n), make([]float64, n)
	for i := range ram {
		ram[i] = 3 + float64(i%9)
		disk[i] = 8 + float64(i)*0.1
	}
	return []v2FixtureTenant{
		{id: "multi", cfg: `{"policy":"caasper","max_cores":8,"min_ram_gb":2,"max_ram_gb":16,"disk_gb":10}`, cpu: rampUsage(n), ram: ram, disk: disk},
		{id: "plateau", cfg: `{"policy":"caasper","max_cores":10,"initial_cores":5}`, cpu: plateau},
		{id: "pro", cfg: `{"policy":"caasper-proactive","max_cores":10,"initial_cores":5,"window":20,"horizon":15,"season":30}`, cpu: rampUsage(n)},
		{id: "ramp", cfg: `{"policy":"caasper","max_cores":10,"initial_cores":5}`, cpu: rampUsage(n)},
	}
}

// post feeds tn samples [lo, hi) and waits until the server applied them.
func (tn v2FixtureTenant) post(t *testing.T, base string, lo, hi int) {
	t.Helper()
	if tn.ram != nil {
		postMultiSamples(t, base, tn.id, tn.cpu[lo:hi], tn.ram[lo:hi], tn.disk[lo:hi])
	} else {
		postSamples(t, base, tn.id, tn.cpu[lo:hi])
	}
	waitSamples(t, base, tn.id, hi)
}

// checkMigration restores checkpoint, taken at v2FixtureCut samples of
// every tenant's stream, into a fresh server. Its own checkpoint must
// then be, byte for byte, that of a server fed the same samples, so the
// migrated state (explanation template and audit clock included) is the
// state this version keeps. Each tenant is then fed the rest of its
// stream, and its decisions (explanations included) and its
// /v1/tenants/{id} row must equal those of a server that never stopped.
// It returns the checkpoint the restored server writes at Close.
func checkMigration(t *testing.T, checkpoint []byte, tenants []v2FixtureTenant) []byte {
	t.Helper()
	_, ctl := testServer(t, Options{DecisionEveryMinutes: 10})
	cut, cutURL := testServer(t, Options{DecisionEveryMinutes: 10})
	for _, tn := range tenants {
		register(t, ctl.URL, tn.id, tn.cfg)
		tn.post(t, ctl.URL, 0, len(tn.cpu))
		register(t, cutURL.URL, tn.id, tn.cfg)
		tn.post(t, cutURL.URL, 0, v2FixtureCut)
	}
	snap := filepath.Join(t.TempDir(), "serve.snapshot")
	if err := os.WriteFile(snap, checkpoint, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{DecisionEveryMinutes: 10, SnapshotPath: snap})
	if err != nil {
		t.Fatalf("the server must restore the checkpoint: %v", err)
	}
	ts := newTestFrontend(t, s)
	if want, got := snapshotBytes(t, cut), snapshotBytes(t, s); !bytes.Equal(want, got) {
		t.Fatalf("migrated checkpoint differs from the one this version writes at the cut:\nmigrated:\n%s\nwant:\n%s", got, want)
	}
	for _, tn := range tenants {
		if got := statusRow(t, ts, tn.id); got.Samples != v2FixtureCut || tn.ram == nil && (got.RAMGB != 0 || got.DiskGB != 0 || got.Replicas != 0) {
			t.Fatalf("%s restored as %+v", tn.id, got)
		}
		tn.post(t, ts, v2FixtureCut, len(tn.cpu))
		if want, got := decisionsOf(t, ctl.URL, tn.id), decisionsOf(t, ts, tn.id); want != got {
			t.Fatalf("%s: migrated stream diverged:\ncontrol:\n%s\nmigrated:\n%s", tn.id, want, got)
		}
		if want, got := statusRow(t, ctl.URL, tn.id), statusRow(t, ts, tn.id); want != got {
			t.Fatalf("%s: status %+v, control %+v", tn.id, got, want)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(written), fmt.Sprintf(`{"format":"caasper-serve","version":%d,`, snapshotVersion)) || strings.Contains(string(written), `"memo"`) {
		t.Fatalf("the restored server wrote an old layout: %s", written)
	}
	return written
}

// TestSnapshotV2MigrationBitIdentical pins the v2 → v3 migration on a
// checkpoint the v2 server wrote (testdata/v2.snapshot): every tenant
// resumes with the decisions, explanations and status rows of a server
// that never stopped, although Restore drops each line's memo and lifts
// its explanation template and audit clock out of it.
func TestSnapshotV2MigrationBitIdentical(t *testing.T) {
	raw, err := os.ReadFile("testdata/v2.snapshot")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), `{"format":"caasper-serve","version":2,"tenants":4}`) || !strings.Contains(string(raw), `"memo":{`) {
		t.Fatalf("fixture is not a v2 checkpoint with memos: %.200s", raw)
	}
	checkMigration(t, raw, v2FixtureTenants())
}

// TestSnapshotV1MigrationBitIdentical pins the v1 → v3 migration: the
// CPU-only tenants of testdata/v2.snapshot, downgraded to the v1 format
// (every v2 tenant field is omitempty, so beyond the header only the
// decision spelling differs), resume bit-identically with RAM/disk left
// at their defaults. The scalar-keys case also rewrites every decision to
// the pre-vector keys "CurrentCores"/"TargetCores", as real v1 files
// carry them; the restored server must never write those keys back.
func TestSnapshotV1MigrationBitIdentical(t *testing.T) {
	raw, err := os.ReadFile("testdata/v2.snapshot")
	if err != nil {
		t.Fatal(err)
	}
	var cpuOnly []v2FixtureTenant
	v1 := ""
	for _, tn := range v2FixtureTenants() {
		if tn.ram != nil {
			continue
		}
		cpuOnly = append(cpuOnly, tn)
		for _, line := range strings.SplitAfter(string(raw), "\n") {
			if strings.HasPrefix(line, `{"id":"`+tn.id+`",`) {
				v1 += line
			}
		}
	}
	v1 = fmt.Sprintf(`{"format":"caasper-serve","version":1,"tenants":%d}`+"\n", len(cpuOnly)) + v1
	for _, field := range []string{"ram_gb", "disk_gb", "replicas", "ram_peak"} {
		if strings.Contains(v1, field) {
			t.Fatalf("CPU-only v2 tenant line leaks %q — v1 compatibility broken: %s", field, v1)
		}
	}
	for _, scalarKeys := range []bool{false, true} {
		name := map[bool]string{false: "header", true: "scalar-keys"}[scalarKeys]
		t.Run(name, func(t *testing.T) {
			v1 := v1
			if scalarKeys {
				if !v1Decisions.MatchString(v1) {
					t.Fatalf("no decision vectors to rewrite: %s", v1)
				}
				v1 = v1Decisions.ReplaceAllString(v1, `"CurrentCores":$1,"TargetCores":$2`)
			}
			written := checkMigration(t, []byte(v1), cpuOnly)
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

// TestServeScaleInKeepsHeadroom pins the shared overflow rule's scale-in
// guard on the HTTP surface: a replica is removed only when the smaller
// set could absorb the whole set's observed peak with headroom. Three
// pods serving 2.6 cores each (7.8 in total) exceed what two 4-core pods
// carry at 75% (6.0), so the tenant must hold three replicas even though
// the per-pod CPU target has left the ceiling.
func TestServeScaleInKeepsHeadroom(t *testing.T) {
	_, ts := testServer(t, Options{DecisionEveryMinutes: 10})
	register(t, ts.URL, "web", `{"policy":"caasper","min_cores":1,"max_cores":4,"initial_cores":4,"max_replicas":3}`)

	batch := func(cpu float64) ([]float64, []float64, []float64) {
		c, r, d := make([]float64, 60), make([]float64, 60), make([]float64, 60)
		for i := range c {
			c[i] = cpu
		}
		return c, r, d
	}
	cpu, ram, disk := batch(3.95)
	postMultiSamples(t, ts.URL, "web", cpu, ram, disk)
	waitSamples(t, ts.URL, "web", 60)
	if st := statusRow(t, ts.URL, "web"); st.Replicas != 3 {
		t.Fatalf("pinned hot tier should reach 3 replicas: %+v", st)
	}

	cpu, ram, disk = batch(2.6)
	postMultiSamples(t, ts.URL, "web", cpu, ram, disk)
	waitSamples(t, ts.URL, "web", 120)
	if st := statusRow(t, ts.URL, "web"); st.Replicas != 3 {
		t.Fatalf("7.8 cores of load do not fit 2 pods with headroom; want 3 replicas: %+v", st)
	}
}
