package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"caasper/internal/obs"
	"caasper/internal/recommend"
)

// feedHalves posts usage to a server in two halves with an optional
// action between them, then returns the explained decision stream.
func decisionsOf(t *testing.T, base, id string) string {
	t.Helper()
	code, body, _ := do(t, http.MethodGet, base+"/v1/tenants/"+id+"/decisions?explain=1", "")
	if code != http.StatusOK {
		t.Fatalf("decisions: %d %s", code, body)
	}
	return body
}

// TestSnapshotRestartBitIdentical pins the durability contract: a server
// stopped mid-window, checkpointed and restored emits byte-for-byte the
// same subsequent decision NDJSON as an uninterrupted server fed the
// identical sample stream. The cut points land mid-warm-up, mid-window
// and past a full window to cover the mirrored-ring replay paths.
func TestSnapshotRestartBitIdentical(t *testing.T) {
	usage := rampUsage(240)
	tenants := []struct{ id, cfg string }{
		{"re", `{"policy":"caasper","max_cores":10,"initial_cores":5}`},
		{"pro", `{"policy":"caasper-proactive","max_cores":10,"initial_cores":5}`},
		{"narrow", `{"policy":"caasper","max_cores":10,"initial_cores":5,"window":12}`},
	}

	for _, cut := range []int{17, 90, 203} {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			// Control: one uninterrupted server over the full stream.
			_, ctlURL := testServer(t, Options{DecisionEveryMinutes: 10})
			for _, tn := range tenants {
				register(t, ctlURL.URL, tn.id, tn.cfg)
				postSamples(t, ctlURL.URL, tn.id, usage)
				waitSamples(t, ctlURL.URL, tn.id, len(usage))
			}

			// Interrupted: first half, drain + snapshot, restore into a
			// fresh server, second half.
			snap := filepath.Join(t.TempDir(), "serve.snapshot")
			s1, err := New(Options{DecisionEveryMinutes: 10, SnapshotPath: snap})
			if err != nil {
				t.Fatal(err)
			}
			ts1 := newTestFrontend(t, s1)
			for _, tn := range tenants {
				register(t, ts1, tn.id, tn.cfg)
				postSamples(t, ts1, tn.id, usage[:cut])
				waitSamples(t, ts1, tn.id, cut)
			}
			if err := s1.Close(); err != nil { // drain + checkpoint
				t.Fatal(err)
			}

			s2, err := New(Options{DecisionEveryMinutes: 10, SnapshotPath: snap})
			if err != nil {
				t.Fatal(err)
			}
			ts2 := newTestFrontend(t, s2)
			defer s2.Close()
			for _, tn := range tenants {
				// Restored server already knows the tenant — no re-PUT.
				postSamples(t, ts2, tn.id, usage[cut:])
				waitSamples(t, ts2, tn.id, len(usage))
			}

			for _, tn := range tenants {
				want := decisionsOf(t, ctlURL.URL, tn.id)
				got := decisionsOf(t, ts2, tn.id)
				if want != got {
					t.Errorf("tenant %s: decision stream diverged after restart at sample %d\ncontrol:\n%s\nrestored:\n%s",
						tn.id, cut, want, got)
				}
			}
		})
	}
}

// TestSnapshotBaselineColdRestore pins the documented contract for
// policies without recommend.StateSnapshotter (the decayed-histogram VPA
// baseline): the observation state restores cold, but the allocation,
// sample clock, sequence numbers and decision log all carry over.
func TestSnapshotBaselineColdRestore(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "serve.snapshot")
	s1, err := New(Options{DecisionEveryMinutes: 10, SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := newTestFrontend(t, s1)
	register(t, ts1, "base", `{"policy":"vpa","max_cores":10}`)
	postSamples(t, ts1, "base", rampUsage(50))
	waitSamples(t, ts1, "base", 50)
	preLog := decisionsOf(t, ts1, "base")
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Options{DecisionEveryMinutes: 10, SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := newTestFrontend(t, s2)
	defer s2.Close()
	_, body, _ := do(t, http.MethodGet, ts2+"/v1/tenants/base", "")
	var st tenantStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Samples != 50 || st.Decision != 5 {
		t.Fatalf("restored status = %+v (want sample clock and seq carried over)", st)
	}
	if got := decisionsOf(t, ts2, "base"); got != preLog {
		t.Fatalf("restored decision log diverged:\n%s\nvs\n%s", got, preLog)
	}
	postSamples(t, ts2, "base", rampUsage(10))
	waitSamples(t, ts2, "base", 60)
	_, body, _ = do(t, http.MethodGet, ts2+"/v1/tenants/base/decisions?since=5", "")
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 1 {
		t.Fatalf("want exactly one post-restore decision, got %d", len(lines))
	}
	var rec DecisionRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 6 || rec.Minute != 59 {
		t.Fatalf("post-restore decision = %+v (want seq 6 at minute 59)", rec)
	}
}

// TestSnapshotFileShape pins the checkpoint format: versioned header plus
// one sorted tenant line each.
func TestSnapshotFileShape(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "serve.snapshot")
	s, err := New(Options{SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestFrontend(t, s)
	register(t, ts, "b", `{"max_cores":4}`)
	register(t, ts, "a", `{"max_cores":4}`)
	postSamples(t, ts, "a", rampUsage(25))
	waitSamples(t, ts, "a", 25)

	code, _, _ := do(t, http.MethodPost, ts+"/v1/admin/snapshot", "")
	if code != http.StatusOK {
		t.Fatalf("snapshot endpoint: %d", code)
	}
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 3 {
		t.Fatalf("snapshot has %d lines, want header + 2 tenants", len(lines))
	}
	var hdr snapshotHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Format != "caasper-serve" || hdr.Version != snapshotVersion || hdr.Tenants != 2 {
		t.Fatalf("header = %+v", hdr)
	}
	var first snapshotTenant
	if err := json.Unmarshal([]byte(lines[1]), &first); err != nil {
		t.Fatal(err)
	}
	if first.ID != "a" || !first.HasState {
		t.Fatalf("first tenant line = %+v (want sorted, with state)", first)
	}
	s.Close()
}

// TestSnapshotNonFiniteKeepsPrevious pins the encoder's error path: a
// window sample JSON cannot carry (NaN, ±Inf) fails the checkpoint with
// an error naming the tenant, the previous checkpoint stays byte for byte,
// and no temp file is left behind.
func TestSnapshotNonFiniteKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "serve.snapshot")
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := mixedServer(t, 3)
		if err := s.Snapshot(path); err != nil {
			t.Fatal(err)
		}
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		id := s.tenantIDs()[0] // a caasper tenant
		ts := s.shardFor(id).tenants[id]
		s.apply(batch{t: ts, samples: []sample{{CPU: v}}})
		if w := ts.rec.(recommend.StateSnapshotter).SnapshotState().Window; !math.IsNaN(w[len(w)-1]) && !math.IsInf(w[len(w)-1], 0) {
			t.Fatalf("window ends in %v, want %v", w[len(w)-1], v)
		}
		if err := s.Snapshot(path); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("tenant %q", id)) {
			t.Fatalf("checkpoint of a %v sample: error %v, want one naming tenant %q", v, err, id)
		}
		after, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(after, before) {
			t.Fatalf("failed checkpoint changed the previous one (%v)", err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) != 1 {
			t.Fatalf("%d files left in the snapshot directory (%v), want 1", len(entries), err)
		}
	}
}

// validLine is a well-formed cold tenant line for hand-built snapshots.
func validLine(id string) string {
	return `{"id":"` + id + `","config":{"policy":"caasper","min_cores":1,"max_cores":4},"cores":2,"minute":0,"seq":0,"has_state":false}`
}

// TestRestoreRejectsBadSnapshots pins the restore error contract: every
// bad stream is an error naming what is wrong, and the server it was
// restored into gains no tenant — not even the ones on valid lines
// before the bad one.
func TestRestoreRejectsBadSnapshots(t *testing.T) {
	hdr := func(tenants int) string {
		return fmt.Sprintf(`{"format":"caasper-serve","version":2,"tenants":%d}`, tenants)
	}
	for _, tc := range []struct{ name, payload, want string }{
		{"empty", "", "empty snapshot"},
		{"wrong format", `{"format":"other","version":1,"tenants":0}`, "unsupported snapshot format"},
		{"wrong version", `{"format":"caasper-serve","version":99,"tenants":0}`, "unsupported snapshot format"},
		{"truncated", `{"format":"caasper-serve","version":1,"tenants":3}`, "header says 3 tenants, found 0"},
		{"garbage tenant", `{"format":"caasper-serve","version":1,"tenants":1}` + "\nnot json", "tenant line 1"},
		{"garbage after valid", hdr(2) + "\n" + validLine("a") + "\nnot json", "tenant line 2"},
		{"count short", hdr(2) + "\n" + validLine("a"), "header says 2 tenants, found 1"},
		{"count long", hdr(1) + "\n" + validLine("a") + "\n" + validLine("b"), "header says 1 tenants, found 2"},
		{"duplicate id", hdr(3) + "\n" + validLine("a") + "\n" + validLine("b") + "\n" + validLine("a"), `duplicate tenant "a" (line 3)`},
		{"bad policy after valid", hdr(2) + "\n" + validLine("a") + "\n" + strings.Replace(validLine("b"), "caasper", "bogus", 1), `tenant "b"`},
	} {
		s, err := New(Options{})
		if err != nil {
			t.Fatal(err)
		}
		ts := newTestFrontend(t, s)
		err = s.Restore(strings.NewReader(tc.payload))
		if err == nil {
			t.Errorf("%s: Restore accepted a bad snapshot", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
		if code, body, _ := do(t, http.MethodGet, ts+"/v1/admin/tenants", ""); code != http.StatusOK || strings.TrimSpace(body) != "[]" {
			t.Errorf("%s: failed restore left tenants behind: %d %s", tc.name, code, body)
		}
		s.Close()
	}
}

// TestNewRejectsCorruptSnapshot pins startup on a corrupt checkpoint:
// New fails naming the bad line and stops the shard workers it started.
func TestNewRejectsCorruptSnapshot(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "serve.snapshot")
	payload := `{"format":"caasper-serve","version":2,"tenants":2}` + "\n" + validLine("a") + "\nnot json\n"
	if err := os.WriteFile(snap, []byte(payload), 0o644); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if _, err := New(Options{Shards: 32, SnapshotPath: snap}); err == nil || !strings.Contains(err.Error(), "tenant line 2") {
		t.Fatalf("New on a corrupt snapshot: %v", err)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("failed New left %d goroutines running (had %d)", runtime.NumGoroutine(), before)
		}
	}
}

// TestColdStartWithoutSnapshot pins that a missing checkpoint file is a
// cold start, not an error.
func TestColdStartWithoutSnapshot(t *testing.T) {
	s, err := New(Options{SnapshotPath: filepath.Join(t.TempDir(), "nope.snapshot")})
	if err != nil {
		t.Fatalf("missing snapshot must cold-start: %v", err)
	}
	s.Close()
}

// TestRestoreDecodePaths pins which decoder reads each checkpoint line,
// through the serve.restore_* counters and the restore log line: every
// line of a checkpoint Snapshot wrote (reactive, proactive, VPA-cold,
// RAM/disk and replica tenants) takes the canonical-line decoder, every
// line of a v2 or v1 checkpoint json.Unmarshal.
func TestRestoreDecodePaths(t *testing.T) {
	n := 4 * len(mixedTenantConfigs)
	for _, tc := range []struct {
		name      string
		data      []byte
		lines     int64
		fallbacks int64
	}{
		{"v3", snapshotBytes(t, mixedServer(t, n)), int64(n), 0},
		{"v2", []byte(v2Checkpoint(t)), 4, 4},
		{"v1", []byte(v1Checkpoint(t, 3)), 3, 3},
	} {
		reg := obs.NewRegistry()
		var log bytes.Buffer
		s, err := New(Options{Metrics: reg, Log: obs.NewLogger(&log, obs.LevelInfo)})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Restore(bytes.NewReader(tc.data)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		s.Close()
		lines, fallbacks := reg.Counter("serve.restore_lines").Value(), reg.Counter("serve.restore_fallback_lines").Value()
		if lines != tc.lines || fallbacks != tc.fallbacks {
			t.Errorf("%s: restore_lines %d, restore_fallback_lines %d; want %d, %d", tc.name, lines, fallbacks, tc.lines, tc.fallbacks)
		}
		if want := fmt.Sprintf("(%d lines via json.Unmarshal)", tc.fallbacks); !strings.Contains(log.String(), want) {
			t.Errorf("%s: restore log %q lacks %q", tc.name, log.String(), want)
		}
	}
}

// TestDecodeInternsNames pins the decoder's name interning: every policy
// and branch name in a mixedServer checkpoint comes back as the shared
// knownNames string, not a per-line copy, and an unknown name is still
// read as itself.
func TestDecodeInternsNames(t *testing.T) {
	shared := func(s string) bool {
		for _, n := range knownNames {
			if unsafe.StringData(s) == unsafe.StringData(n) {
				return true
			}
		}
		return false
	}
	v2 := strings.TrimSuffix(string(snapshotBytes(t, mixedServer(t, len(mixedTenantConfigs)))), "\n")
	names := 0
	for _, line := range strings.Split(v2, "\n")[1:] {
		var st snapshotTenant
		if !decodeTenantLine([]byte(line), &st) {
			t.Fatalf("line takes the fallback: %s", line)
		}
		check := func(what, s string) {
			if s == "" {
				return
			}
			names++
			if !shared(s) {
				t.Errorf("%s %q of %s is a fresh copy", what, s, st.ID)
			}
		}
		check("config policy", st.Config.Policy)
		check("last branch", string(st.State.LastDecision.Branch))
		for _, r := range st.Log {
			check("record policy", r.Policy)
			check("record branch", r.Branch)
		}
	}
	if names == 0 {
		t.Fatal("checkpoint holds no policy or branch names")
	}
	var st snapshotTenant
	if !decodeTenantLine([]byte(`{"id":"a","config":{"policy":"custom"}}`), &st) || st.Config.Policy != "custom" {
		t.Errorf("unknown policy decoded as %q", st.Config.Policy)
	}
}
