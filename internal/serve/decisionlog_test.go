package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"caasper/internal/obs"
)

// logTenantConfig is the tenant every decision-log test registers: a
// narrow CaaSPER window, so its decisions move early in the stream.
const logTenantConfig = `{"policy":"caasper","max_cores":10,"initial_cores":5,"window":12}`

// logUsage is a deterministic per-minute CPU stream.
func logUsage(n int) []sample {
	out := make([]sample, n)
	for k := range out {
		x := float64(k)
		out[k] = sample{CPU: 4 + 3*math.Sin(x/5) + 0.5*math.Cos(x/2)}
	}
	return out
}

// logServer builds a one-shard server with a metrics registry, deciding
// after every sample with a decision log of size records, registers
// tenant "t" and applies usage to it in-process.
func logServer(t testing.TB, size int, usage []sample) (*Server, *tenantState) {
	t.Helper()
	s, err := New(Options{Shards: 1, DecisionEveryMinutes: 1, DecisionLogSize: size, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	var cfg TenantConfig
	if err := json.Unmarshal([]byte(logTenantConfig), &cfg); err != nil {
		t.Fatal(err)
	}
	ts, err := s.newTenant("t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.shardFor("t").tenants["t"] = ts
	if len(usage) > 0 {
		s.apply(batch{t: ts, samples: usage})
	}
	return s, ts
}

// getDecisions reads a decision stream through the HTTP handler.
func getDecisions(t testing.TB, s *Server, id, query string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/tenants/"+id+"/decisions"+query, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET decisions%s: %d %s", query, rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}

// encodeRecords is the expected stream body for recs.
func encodeRecords(t testing.TB, recs []DecisionRecord, withExplain bool) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	for _, r := range recs {
		if withExplain {
			r.Explanation = explain(r)
		}
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// TestDecisionLogModel checks the decision ring against a plain last-N
// slice over log sizes 1, 2, 4 and 7 and every decision count up to
// three wraps. The model is the full history of a server whose log never
// fills. For each count it checks the stream for every since cursor in
// [0, seq+1], the checkpoint bytes (the ring sits at every head position
// across the counts), and that snapshot → restore → more decisions
// equals a server that was never interrupted.
func TestDecisionLogModel(t *testing.T) {
	for _, size := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			more := size + 1
			usage := logUsage(4*size + 3 + more)
			_, full := logServer(t, len(usage), usage)
			history := full.log.recs
			if len(history) != len(usage) || full.log.head != 0 {
				t.Fatalf("reference log holds %d records at head %d, want %d at 0", len(history), full.log.head, len(usage))
			}
			heads := make(map[int]bool)
			for c := 0; c <= 3*size+2; c++ {
				model := history[max(c-size, 0):c]
				s, ts := logServer(t, size, usage[:c])
				if n := len(ts.log.recs); n != len(model) || cap(ts.log.recs) > size {
					t.Fatalf("c=%d: ring holds %d records with capacity %d, want %d within %d", c, n, cap(ts.log.recs), len(model), size)
				}
				heads[ts.log.head] = true

				for since := int64(0); since <= int64(c)+1; since++ {
					var want []DecisionRecord
					for _, r := range model {
						if r.Seq > since {
							want = append(want, r)
						}
					}
					withExplain := since%2 == 1
					q := fmt.Sprintf("?since=%d", since)
					if withExplain {
						q += "&explain=1"
					}
					if got, want := getDecisions(t, s, "t", q), encodeRecords(t, want, withExplain); got != want {
						t.Fatalf("c=%d %s:\n got %s\nwant %s", c, q, got, want)
					}
				}

				// The checkpoint equals the one of a server holding the
				// model slice as its log.
				refServer, ref := logServer(t, len(usage), usage[:c])
				ref.log = decisionLog{recs: append([]DecisionRecord(nil), model...)}
				before := getDecisions(t, s, "t", "")
				snap := snapshotBytes(t, s)
				if want := serialSnapshot(t, refServer); !bytes.Equal(snap, want) {
					t.Fatalf("c=%d (head %d): checkpoint\n%s\nwant\n%s", c, ts.log.head, snap, want)
				}
				if after := getDecisions(t, s, "t", ""); after != before {
					t.Fatalf("c=%d: checkpointing changed the stream", c)
				}

				// Restore, continue, and compare with the uninterrupted run.
				s2, err := New(Options{Shards: 1, DecisionEveryMinutes: 1, DecisionLogSize: size})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s2.Close() })
				if err := s2.Restore(bytes.NewReader(snap)); err != nil {
					t.Fatalf("c=%d: restore: %v", c, err)
				}
				s2.apply(batch{t: s2.shardFor("t").tenants["t"], samples: usage[c : c+more]})
				ctl, _ := logServer(t, size, usage[:c+more])
				if got, want := getDecisions(t, s2, "t", "?explain=1"), getDecisions(t, ctl, "t", "?explain=1"); got != want {
					t.Fatalf("c=%d: restored stream\n%s\nwant\n%s", c, got, want)
				}
				if got, want := snapshotBytes(t, s2), snapshotBytes(t, ctl); !bytes.Equal(got, want) {
					t.Fatalf("c=%d: restored checkpoint\n%s\nwant\n%s", c, got, want)
				}
			}
			if len(heads) != size {
				t.Fatalf("ring visited %d head positions, want all %d", len(heads), size)
			}
		})
	}
}

// TestDecisionLogPollDuringWrap polls since= cursors while the shard
// path applies batches that wrap a small ring many times over (run it
// with -race). Every response holds consecutive Seq values past the
// cursor, at most a ring's worth, and starts right after the cursor
// unless the ring overran the poller.
func TestDecisionLogPollDuringWrap(t *testing.T) {
	const size, batches, per = 8, 4000, 1
	usage := logUsage(batches * per)
	s, ts := logServer(t, size, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < batches; k++ {
			s.apply(batch{t: ts, samples: usage[k*per : (k+1)*per]})
			runtime.Gosched() // let the poller at the tenant lock
		}
	}()
	defer func() { <-done }() // a failed poll still waits for the applier
	var cursor int64
	polls, overruns := 0, 0
	for running := true; running; polls++ {
		select {
		case <-done:
			running = false
		default:
		}
		var recs []DecisionRecord
		sc := bufio.NewScanner(strings.NewReader(getDecisions(t, s, "t", fmt.Sprintf("?since=%d", cursor))))
		for sc.Scan() {
			var r DecisionRecord
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				t.Fatal(err)
			}
			recs = append(recs, r)
		}
		if len(recs) > size {
			t.Fatalf("since=%d returned %d records from a ring of %d", cursor, len(recs), size)
		}
		for i, r := range recs {
			if r.Seq <= cursor || i > 0 && r.Seq != recs[i-1].Seq+1 {
				t.Fatalf("since=%d returned seq %d at %d: %+v", cursor, r.Seq, i, recs)
			}
		}
		if len(recs) == 0 {
			continue
		}
		if recs[0].Seq != cursor+1 {
			if len(recs) < size {
				t.Fatalf("since=%d skipped to seq %d although the ring held the gap", cursor, recs[0].Seq)
			}
			overruns++
		}
		cursor = recs[len(recs)-1].Seq
	}
	if cursor != batches*per {
		t.Fatalf("last polled seq %d, want %d", cursor, batches*per)
	}
	t.Logf("%d polls, %d overran by the ring", polls, overruns)
}

// TestRestoreTrimsDecisionLog pins the restore bound: a checkpoint taken
// with a 16-record log and restored into a server keeping 4 holds the
// newest 4, and keeps 4 after 100 more decisions.
func TestRestoreTrimsDecisionLog(t *testing.T) {
	usage := logUsage(130)
	s, _ := logServer(t, 16, usage[:30])
	all := getDecisions(t, s, "t", "")
	lines := strings.SplitAfter(strings.TrimSpace(all), "\n")
	if len(lines) != 16 {
		t.Fatalf("source log holds %d records, want 16", len(lines))
	}
	s2, err := New(Options{Shards: 1, DecisionEveryMinutes: 1, DecisionLogSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Restore(bytes.NewReader(snapshotBytes(t, s))); err != nil {
		t.Fatal(err)
	}
	if got, want := getDecisions(t, s2, "t", ""), strings.Join(lines[12:], "")+"\n"; got != want {
		t.Fatalf("restored log\n%s\nwant the newest 4\n%s", got, want)
	}
	ts := s2.shardFor("t").tenants["t"]
	s2.apply(batch{t: ts, samples: usage[30:]})
	got := strings.Split(strings.TrimSpace(getDecisions(t, s2, "t", "")), "\n")
	var last DecisionRecord
	if err := json.Unmarshal([]byte(got[len(got)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || last.Seq != 130 || cap(ts.log.recs) != 4 {
		t.Fatalf("after 100 more decisions: %d records up to seq %d, capacity %d; want 4 up to 130, capacity 4",
			len(got), last.Seq, cap(ts.log.recs))
	}
}

// TestRestoreRejectsForkedLog pins the cursor invariant on restore: a
// tenant line whose decision log starts below Seq 1, does not strictly
// increase, or runs past the tenant's seq fails naming its line, and no
// tenant is published.
func TestRestoreRejectsForkedLog(t *testing.T) {
	line := func(seq int64, logSeqs ...int64) string {
		var recs []string
		for _, q := range logSeqs {
			recs = append(recs, fmt.Sprintf(`{"seq":%d,"minute":%d,"policy":"caasper","from":2,"to":2}`, q, 10*q-1))
		}
		return fmt.Sprintf(`{"id":"b","config":{"policy":"caasper","min_cores":1,"max_cores":4},"cores":2,"minute":%d,"seq":%d,"has_state":false,"log":[%s]}`,
			10*seq, seq, strings.Join(recs, ","))
	}
	hdr := `{"format":"caasper-serve","version":2,"tenants":2}` + "\n" + validLine("a") + "\n"
	for _, tc := range []struct{ name, line, want string }{
		{"repeated seq", line(3, 1, 3, 3), "seq 3 after 3 does not increase"},
		{"decreasing seq", line(3, 2, 1), "seq 1 after 2 does not increase"},
		{"zero seq", line(3, 0, 1), "seq 0 < 1"},
		{"negative seq", line(3, -4), "seq -4 < 1"},
		{"past the tenant", line(2, 1, 2, 3), "ends at seq 3 past the tenant's seq 2"},
	} {
		s, err := New(Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		err = s.Restore(strings.NewReader(hdr + tc.line))
		if err == nil || !strings.Contains(err.Error(), "tenant line 2: decision log") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want tenant line 2 and %q", tc.name, err, tc.want)
		}
		if ids := s.tenantIDs(); len(ids) != 0 {
			t.Errorf("%s: failed restore published %v", tc.name, ids)
		}
		s.Close()
	}
	// The same shape with a valid log restores.
	s, err := New(Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Restore(strings.NewReader(hdr + line(5, 2, 4, 5))); err != nil {
		t.Fatalf("valid log: %v", err)
	}
}

// BenchmarkServeDecideFullLog times one decision (one sample observed,
// Algorithm 1, one record into the log) for a tenant whose decision log
// is already full, at three log sizes: the ring makes the cost
// independent of the size.
func BenchmarkServeDecideFullLog(b *testing.B) {
	for _, size := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("log=%d", size), func(b *testing.B) {
			usage := logUsage(size + 1024)
			s, ts := logServer(b, size, usage[:size])
			if len(ts.log.recs) != size {
				b.Fatalf("log holds %d records, want %d", len(ts.log.recs), size)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := size + i%1024
				s.apply(batch{t: ts, samples: usage[k : k+1]})
			}
		})
	}
}
