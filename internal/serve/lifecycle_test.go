package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"caasper/internal/obs"
	"caasper/internal/recommend"
)

// serveLocal answers one request through s's handler in-process.
func serveLocal(s *Server, method, path, body string) (int, string) {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// waitApplied waits until the shard worker has applied n samples of
// tenant id.
func waitApplied(t testing.TB, s *Server, id string, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
		var got int
		s.lookupQuiet(id, func(ts *tenantState) { got = ts.minute })
		if got == n {
			return
		}
		if got > n {
			t.Fatalf("tenant %s applied %d samples, want %d", id, got, n)
		}
	}
	t.Fatalf("tenant %s never reached %d samples", id, n)
}

// lifecycle is one tenant's life: register cfg, post the first samples,
// retune the range and swap the policy (each skipped when empty), post
// the next samples, restart, then post one decision interval more.
type lifecycle struct {
	cfg, retune, policy string
	first, next         []sample
}

// lifecycleEvery is the decision cadence of lifecycle servers.
const lifecycleEvery = 10

// run plays lc on a server that never stops and on one that is closed
// and restarted from its checkpoint after lc.next. The restart must
// succeed, its checkpoint must re-encode to the same bytes, and the
// status row, the decision stream and the checkpoint after the last
// interval must equal those of the server that never stopped. A config
// the PUT rejects ends the run; ok reports whether it was accepted.
func (lc lifecycle) run(t testing.TB) (ok bool) {
	t.Helper()
	opts := Options{Shards: 1, DecisionEveryMinutes: lifecycleEvery}
	ctl, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	opts.SnapshotPath = filepath.Join(t.TempDir(), "serve.snapshot")
	cut, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cut.Close()
	both := func(method, path, body string) int {
		code, got := serveLocal(ctl, method, path, body)
		if code2, got2 := serveLocal(cut, method, path, body); code2 != code || got2 != got {
			t.Fatalf("%s %s %s: %d %s on one server, %d %s on the other", method, path, body, code, got, code2, got2)
		}
		return code
	}
	if code := both(http.MethodPut, "/v1/tenants/x", lc.cfg); code != http.StatusCreated {
		return false
	}
	applied := 0
	post := func(s *Server, smp []sample) {
		if len(smp) == 0 {
			return
		}
		var b strings.Builder
		for _, x := range smp {
			fmt.Fprintf(&b, `{"cpu":%g,"ram_gb":%g,"disk_gb":%g}`+"\n", x.CPU, x.RAMGB, x.DiskGB)
		}
		if code, body := serveLocal(s, http.MethodPost, "/v1/tenants/x/samples", b.String()); code != http.StatusAccepted {
			t.Fatalf("samples: %d %s", code, body)
		}
		waitApplied(t, s, "x", applied+len(smp))
	}
	for _, s := range []*Server{ctl, cut} {
		post(s, lc.first)
	}
	applied += len(lc.first)
	if lc.retune != "" {
		both(http.MethodPut, "/v1/admin/tenants/x/range", lc.retune)
	}
	if lc.policy != "" {
		both(http.MethodPut, "/v1/admin/tenants/x/policy", fmt.Sprintf(`{"policy":%q}`, lc.policy))
	}
	for _, s := range []*Server{ctl, cut} {
		post(s, lc.next)
	}
	applied += len(lc.next)

	if err := cut.Close(); err != nil {
		t.Fatal(err)
	}
	restored, err := New(opts)
	if err != nil {
		t.Fatalf("restart after config %s, range %s, policy %q: %v", lc.cfg, lc.retune, lc.policy, err)
	}
	defer restored.Close()
	if want, got := snapshotBytes(t, ctl), snapshotBytes(t, restored); !bytes.Equal(want, got) {
		t.Fatalf("restored checkpoint re-encodes to\n%s\nwant\n%s", got, want)
	}
	tail := make([]sample, lifecycleEvery)
	for i := range tail {
		tail[i] = sample{CPU: 2.5 + float64(i%4), RAMGB: 3, DiskGB: 4}
	}
	for _, s := range []*Server{ctl, restored} {
		post(s, tail)
	}
	for _, path := range []string{"/v1/tenants/x", "/v1/tenants/x/decisions"} {
		_, want := serveLocal(ctl, http.MethodGet, path, "")
		if _, got := serveLocal(restored, http.MethodGet, path, ""); got != want {
			t.Fatalf("GET %s after the restart:\n%s\nwant (never restarted):\n%s", path, got, want)
		}
	}
	if want, got := snapshotBytes(t, ctl), snapshotBytes(t, restored); !bytes.Equal(want, got) {
		t.Fatalf("checkpoint after the restart:\n%s\nwant (never restarted):\n%s", got, want)
	}
	return true
}

// lifecycleSamples is a deterministic sample stream of n samples.
func lifecycleSamples(seed int64, n int) []sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]sample, n)
	for i := range out {
		out[i] = sample{
			CPU:    math.Round(rng.Float64()*1200) / 100,
			RAMGB:  math.Round(rng.Float64()*2000) / 100,
			DiskGB: 4 + 0.25*float64(i),
		}
	}
	return out
}

// TestRetuneThenRestart retunes a range, mostly so that it no longer
// holds the tenant's initial grant, then restarts the server. The
// checkpoint must restore, and the restarted server must decide as one
// that never stopped: the policy is rebuilt at the retuned MaxCores on
// both, even when the initial grant stays inside the range.
func TestRetuneThenRestart(t *testing.T) {
	for _, tc := range []struct{ name, cfg, retune string }{
		{"cores tightened", `{"policy":"caasper","max_cores":16,"initial_cores":6}`, `{"min_cores":1,"max_cores":3}`},
		{"cores raised", `{"policy":"caasper","max_cores":4,"initial_cores":1}`, `{"min_cores":4,"max_cores":16}`},
		{"cores tightened above it", `{"policy":"caasper","max_cores":16,"initial_cores":2}`, `{"min_cores":1,"max_cores":8}`},
		{"ram tightened", `{"policy":"caasper","max_cores":8,"max_ram_gb":16,"initial_ram_gb":8}`,
			`{"min_cores":1,"max_cores":8,"min_ram_gb":1,"max_ram_gb":4}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lc := lifecycle{cfg: tc.cfg, retune: tc.retune, first: lifecycleSamples(1, 45), next: lifecycleSamples(2, 23)}
			if !lc.run(t) {
				t.Fatalf("config %s rejected", tc.cfg)
			}
		})
	}
}

// lifecyclePolicies are the policies FuzzTenantLifecycle registers and
// swaps to: those whose state a checkpoint carries, and the stateless
// control policy. The baselines restore cold by design, so a restarted
// server decides differently from one that never stopped.
var lifecyclePolicies = []string{"caasper", "caasper-proactive", "control"}

// FuzzTenantLifecycle runs register config × range retune × policy swap
// × samples, then restarts from the checkpoint (lifecycle.run). The seeds
// include the retunes that move a range away from the initial grant.
func FuzzTenantLifecycle(f *testing.F) {
	// cores tightened below, cores raised above, RAM tightened below the
	// initial grant; then a multi-resource tenant with a policy swap.
	f.Add(uint8(0), int8(0), int8(16), int8(6), int8(0), int8(0), int8(0), int8(0), int8(0),
		int8(1), int8(3), int8(0), int8(0), int8(0), int8(0), uint8(3), int64(1), uint8(45), uint8(23))
	f.Add(uint8(0), int8(0), int8(4), int8(1), int8(0), int8(0), int8(0), int8(0), int8(0),
		int8(4), int8(16), int8(0), int8(0), int8(0), int8(0), uint8(3), int64(2), uint8(45), uint8(23))
	f.Add(uint8(0), int8(0), int8(8), int8(0), int8(0), int8(16), int8(8), int8(0), int8(0),
		int8(1), int8(8), int8(1), int8(4), int8(0), int8(0), uint8(3), int64(3), uint8(45), uint8(23))
	f.Add(uint8(2), int8(2), int8(8), int8(4), int8(2), int8(8), int8(0), int8(5), int8(3),
		int8(1), int8(2), int8(1), int8(2), int8(9), int8(1), uint8(1), int64(4), uint8(17), uint8(9))
	f.Fuzz(func(t *testing.T, pol uint8, minC, maxC, initC, minR, maxR, initR, disk, reps int8,
		rMinC, rMaxC, rMinR, rMaxR, rDisk, rReps int8, swap uint8, seed int64, n1, n2 uint8) {
		cfg, _ := json.Marshal(TenantConfig{
			Policy: lifecyclePolicies[int(pol)%len(lifecyclePolicies)], MinCores: int(minC), MaxCores: int(maxC),
			InitialCores: int(initC), MinRAMGB: int(minR), MaxRAMGB: int(maxR), InitialRAMGB: int(initR),
			DiskGB: int(disk), MaxReplicas: int(reps),
		})
		retune, _ := json.Marshal(TenantConfig{
			MinCores: int(rMinC), MaxCores: int(rMaxC), MinRAMGB: int(rMinR), MaxRAMGB: int(rMaxR),
			DiskGB: int(rDisk), MaxReplicas: int(rReps),
		})
		lc := lifecycle{cfg: string(cfg), retune: string(retune), first: lifecycleSamples(seed, int(n1)%64), next: lifecycleSamples(^seed, int(n2)%64)}
		if int(swap) < len(lifecyclePolicies) {
			lc.policy = lifecyclePolicies[swap]
		}
		lc.run(t)
	})
}

// FuzzIngestBatch posts arbitrary NDJSON batches (the input split at NUL
// bytes) to a multi-resource tenant. Each answer must be all or nothing:
// 202 when json.Unmarshal reads every non-blank line as a sample with a
// "cpu" ≥ 0 and there is at least one, with every line applied, its CPU
// reading bit for bit the newest in the window; otherwise 4xx, and the
// sample clock and serve.samples stay where they were. Fuzz inputs stay
// far below the 1 MiB line and 4 MiB body caps, which
// TestOversizedBatch413 covers. Seeds are in testdata/fuzz/FuzzIngestBatch.
func FuzzIngestBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		reg := obs.NewRegistry()
		s, err := New(Options{Shards: 1, DecisionEveryMinutes: 7, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if code, body := serveLocal(s, http.MethodPut, "/v1/tenants/x", `{"max_cores":8,"max_ram_gb":16,"disk_gb":10}`); code != http.StatusCreated {
			t.Fatalf("register: %d %s", code, body)
		}
		applied := 0
		for _, batch := range bytes.SplitN(data, []byte{0}, 4) {
			var want []float64
			valid := true
			for _, line := range bytes.Split(batch, []byte("\n")) {
				line = bytes.TrimSpace(line)
				if len(line) == 0 {
					continue
				}
				smp := sample{CPU: -1}
				if err := json.Unmarshal(line, &smp); err != nil || smp.CPU < 0 {
					valid = false
					break
				}
				want = append(want, smp.CPU)
			}
			valid = valid && len(want) > 0
			code, body := serveLocal(s, http.MethodPost, "/v1/tenants/x/samples", string(batch))
			if valid != (code == http.StatusAccepted) || !valid && code/100 != 4 {
				t.Fatalf("batch %q answered %d %s; every line valid: %v", batch, code, body, valid)
			}
			if valid {
				if wantBody := fmt.Sprintf("{\"accepted\":%d}\n", len(want)); body != wantBody {
					t.Fatalf("batch %q answered %s, want %s", batch, body, wantBody)
				}
				applied += len(want)
				waitApplied(t, s, "x", applied)
			}
			var minute int
			var window []float64
			s.lookupQuiet("x", func(ts *tenantState) {
				minute = ts.minute
				window = append(window, ts.rec.(recommend.StateSnapshotter).SnapshotState().Window...)
			})
			if n := reg.Counter("serve.samples").Value(); minute != applied || n != int64(applied) {
				t.Fatalf("after batch %q (%d): clock %d, serve.samples %d, want %d", batch, code, minute, n, applied)
			}
			if k := min(len(want), len(window)); valid {
				for i, v := range want[len(want)-k:] {
					if got := window[len(window)-k+i]; math.Float64bits(got) != math.Float64bits(v) {
						t.Fatalf("batch %q: window holds %v where the line reads %v", batch, got, v)
					}
				}
			}
		}
	})
}
