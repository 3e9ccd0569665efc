package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"caasper/internal/recommend"
)

// mixedTenantConfigs covers every snapshot line shape: both stateful
// CaaSPER policies, the stateless VPA baseline (has_state false) and
// multi-resource tenants with RAM, disk and replicas.
var mixedTenantConfigs = []string{
	`{"policy":"caasper","max_cores":10,"initial_cores":5}`,
	`{"policy":"caasper-proactive","max_cores":10,"initial_cores":5,"window":20,"horizon":15,"season":30}`,
	`{"policy":"vpa","max_cores":8}`,
	`{"policy":"caasper","max_cores":8,"min_ram_gb":2,"max_ram_gb":16,"disk_gb":10}`,
	`{"policy":"control","max_cores":4,"min_ram_gb":2,"max_ram_gb":8,"disk_gb":5,"max_disk_gb":40,"max_replicas":3}`,
}

// mixedServer builds a server holding n tenants cycling through
// mixedTenantConfigs, each fed its own sample stream in-process (no HTTP)
// so that windows, last decisions, decision logs and peaks all differ.
func mixedServer(t testing.TB, n int) *Server {
	t.Helper()
	s, err := New(Options{DecisionEveryMinutes: 10, DecisionLogSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	for i := 0; i < n; i++ {
		var cfg TenantConfig
		if err := json.Unmarshal([]byte(mixedTenantConfigs[i%len(mixedTenantConfigs)]), &cfg); err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("t%04d", (i*7919)%n) // registration order ≠ ID order
		ts, err := s.newTenant(id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sh := s.shardFor(id)
		sh.tenants[id] = ts
		samples := make([]sample, 25+i%40)
		for k := range samples {
			x := float64(i + k)
			samples[k] = sample{
				CPU:    2.5 + 2*math.Sin(x/7) + float64(i%3),
				RAMGB:  3 + float64((i+k)%9),
				DiskGB: 6 + 0.1*float64(k),
			}
		}
		s.apply(batch{t: ts, samples: samples})
	}
	return s
}

// serialSnapshot is the reference checkpoint writer: one encoder, one
// tenant after the other in sorted ID order. It unrolls each decision
// ring by hand (records from head to the end, then the wrapped prefix)
// rather than through decisionLog.oldestFirst, and leaves the ring as it
// found it.
func serialSnapshot(t testing.TB, s *Server) []byte {
	t.Helper()
	ids := s.tenantIDs()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(snapshotHeader{Format: "caasper-serve", Version: snapshotVersion, Tenants: len(ids)}); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		ts := s.shardFor(id).tenants[id]
		log := append(append([]DecisionRecord(nil), ts.log.recs[ts.log.head:]...), ts.log.recs[:ts.log.head]...)
		st := snapshotTenant{ID: ts.id, Config: ts.cfg, Cores: ts.cur.CPUCores, Minute: ts.minute, Seq: ts.seq, Log: log}
		if ts.multi() {
			st.RAMGB, st.DiskGB, st.Replicas = ts.cur.RAMGB, ts.cur.DiskGB, ts.cur.Replicas
			st.RAMPeak, st.DiskHigh, st.CPUPeak = ts.peak.RAMGB, ts.peak.DiskGB, ts.peak.TotalCPU
		}
		if snap, ok := ts.rec.(recommend.StateSnapshotter); ok {
			st.HasState, st.State = true, snap.SnapshotState()
		}
		if err := enc.Encode(st); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// snapshotBytes checkpoints s through the production writer.
func snapshotBytes(t testing.TB, s *Server) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.writeSnapshot(&buf, s.tenantIDs()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withProcs runs fn under runtime.GOMAXPROCS(p), which sets the
// snapshot and restore worker count.
func withProcs(p int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
	fn()
}

// TestSnapshotBytesWorkerIndependent pins the parallel checkpoint's
// byte-identity contract: over more tenants than one encode round holds,
// the file is the serial reference writer's, byte for byte, at every
// worker count, and a restore of it re-encodes to the same bytes. A
// corrupted copy reports its lowest bad line at every worker count.
func TestSnapshotBytesWorkerIndependent(t *testing.T) {
	n := 2*snapshotBatch + 77
	s := mixedServer(t, n)
	want := serialSnapshot(t, s)
	if got := strings.Count(string(want), "\n"); got != n+1 {
		t.Fatalf("reference snapshot has %d lines, want %d", got, n+1)
	}
	for _, p := range []int{1, 2, 4} {
		withProcs(p, func() {
			file := t.TempDir() + "/serve.snapshot"
			if err := s.Snapshot(file); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("GOMAXPROCS=%d: snapshot differs from the serial reference (%d vs %d bytes)", p, len(got), len(want))
			}
			s2, err := New(Options{DecisionEveryMinutes: 10, DecisionLogSize: 4, SnapshotPath: file})
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: restore: %v", p, err)
			}
			defer s2.Close()
			if got := snapshotBytes(t, s2); !bytes.Equal(got, want) {
				t.Fatalf("GOMAXPROCS=%d: restored server re-encodes differently", p)
			}
		})
	}

	lines := strings.SplitAfter(string(want), "\n")
	corrupt := func(edits map[int]string) string {
		out := append([]string(nil), lines...)
		for no, line := range edits {
			out[no] = line + "\n" // tenant line no is lines[no]
		}
		return strings.Join(out, "")
	}
	cases := []struct {
		name, payload, want string
	}{
		// Two bad lines in one decode batch, and one in a later batch.
		{"lowest in batch", corrupt(map[int]string{9: "{", 3: "nope", snapshotBatch + 5: "]"}), "tenant line 3:"},
		// A duplicate ID before a garbage line in the same batch.
		{"duplicate first", corrupt(map[int]string{40: lines[2][:len(lines[2])-1], 41: "x"}), fmt.Sprintf("duplicate tenant %q (line 40)", idOf(t, lines[2]))},
		// Garbage in the second batch, a duplicate in the third.
		{"later batch", corrupt(map[int]string{2*snapshotBatch + 9: lines[1][:len(lines[1])-1], snapshotBatch + 30: "{}x"}), fmt.Sprintf("tenant line %d:", snapshotBatch+30)},
	}
	for _, tc := range cases {
		for _, p := range []int{1, 2, 4} {
			withProcs(p, func() {
				s3, err := New(Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer s3.Close()
				err = s3.Restore(strings.NewReader(tc.payload))
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s, GOMAXPROCS=%d: error %v, want it to name %q", tc.name, p, err, tc.want)
				}
				if ids := s3.tenantIDs(); len(ids) != 0 {
					t.Errorf("%s, GOMAXPROCS=%d: failed restore published %d tenants", tc.name, p, len(ids))
				}
			})
		}
	}
}

func idOf(t *testing.T, line string) string {
	t.Helper()
	var st snapshotTenant
	if err := json.Unmarshal([]byte(line), &st); err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// TestSnapshotDuringIngest checkpoints while shard workers keep applying
// batches that fire decisions and rotate full decision logs. Each tenant
// line is encoded under the tenant's lock, so under -race no line reads
// state a concurrent apply is writing, and every checkpoint restores.
func TestSnapshotDuringIngest(t *testing.T) {
	s, err := New(Options{DecisionEveryMinutes: 1, DecisionLogSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var tenants []*tenantState
	for i := 0; i < 2*snapshotBatch; i++ {
		id := fmt.Sprintf("t%04d", i)
		ts, err := s.newTenant(id, TenantConfig{Policy: "caasper", MaxCores: 8})
		if err != nil {
			t.Fatal(err)
		}
		s.shardFor(id).tenants[id] = ts
		tenants = append(tenants, ts)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		smp := []sample{{CPU: 3}, {CPU: 5}, {CPU: 2}}
		for {
			for _, ts := range tenants {
				select {
				case <-stop:
					return
				default:
				}
				s.apply(batch{t: ts, samples: smp})
			}
		}
	}()
	for k := 0; k < 5; k++ {
		snap := snapshotBytes(t, s)
		s2, err := New(Options{DecisionEveryMinutes: 1, DecisionLogSize: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := s2.Restore(bytes.NewReader(snap)); err != nil {
			t.Errorf("checkpoint %d taken during ingest does not restore: %v", k, err)
		}
		s2.Close()
	}
	close(stop)
	<-done
}

// TestRestoreHugeLines restores lines padded so that every third one
// passes restoreBatchBytes and ends its batch early: the restore still
// succeeds, and tenant line numbers count across those batches.
func TestRestoreHugeLines(t *testing.T) {
	pad := strings.Repeat(" ", restoreBatchBytes/3)
	var lines []string
	for i := 0; i < 7; i++ {
		lines = append(lines, strings.Replace(validLine(fmt.Sprintf("t%d", i)), `"config"`, pad+`"config"`, 1))
	}
	restore := func(lines []string) (*Server, error) {
		s, err := New(Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		hdr := fmt.Sprintf(`{"format":"caasper-serve","version":2,"tenants":%d}`, len(lines))
		return s, s.Restore(strings.NewReader(hdr + "\n" + strings.Join(lines, "\n")))
	}
	if s, err := restore(lines); err != nil || len(s.tenantIDs()) != len(lines) {
		t.Fatalf("restore of padded lines: %v, %d tenants", err, len(s.tenantIDs()))
	}
	lines[5] = "garbage"
	if s, err := restore(lines); err == nil || !strings.Contains(err.Error(), "tenant line 6:") || len(s.tenantIDs()) != 0 {
		t.Fatalf("bad line 6 after byte-bounded batches: %v, %d tenants", err, len(s.tenantIDs()))
	}
}
