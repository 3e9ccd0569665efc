package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"caasper/internal/obs"
	"caasper/internal/recommend"
)

// testServer builds a server plus an httptest front end.
func testServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// newTestFrontend exposes an already-built Server over httptest without
// tying the Server's lifecycle to the test (snapshot tests close and
// rebuild servers mid-test).
func newTestFrontend(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func do(t *testing.T, method, url, body string) (int, string, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw), resp.Header
}

// register creates a tenant and fails the test on a non-2xx answer.
func register(t *testing.T, base, id, cfg string) {
	t.Helper()
	code, body, _ := do(t, http.MethodPut, base+"/v1/tenants/"+id, cfg)
	if code != http.StatusCreated && code != http.StatusOK {
		t.Fatalf("register %s: %d %s", id, code, body)
	}
}

// postSamples posts a usage series as one NDJSON batch.
func postSamples(t *testing.T, base, id string, usage []float64) {
	t.Helper()
	var b strings.Builder
	for _, u := range usage {
		fmt.Fprintf(&b, `{"cpu":%g}`+"\n", u)
	}
	code, body, _ := do(t, http.MethodPost, base+"/v1/tenants/"+id+"/samples", b.String())
	if code != http.StatusAccepted {
		t.Fatalf("post samples: %d %s", code, body)
	}
}

// waitSamples polls the tenant status until n samples have been applied
// by the shard worker (ingest is asynchronous).
func waitSamples(t *testing.T, base, id string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		code, body, _ := do(t, http.MethodGet, base+"/v1/tenants/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("status: %d %s", code, body)
		}
		var st tenantStatus
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		if st.Samples >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("tenant %s never reached %d samples", id, n)
}

// rampUsage is a deterministic series that exercises scale-up, hold and
// scale-down across 120 samples.
func rampUsage(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 2.5 + 2*math.Sin(float64(i)/9)
		if i%40 > 30 {
			out[i] += 3
		}
	}
	return out
}

func TestIngestAndDecisionStream(t *testing.T) {
	_, ts := testServer(t, Options{DecisionEveryMinutes: 10})
	register(t, ts.URL, "alpha", `{"policy":"caasper","max_cores":8,"initial_cores":4}`)

	postSamples(t, ts.URL, "alpha", rampUsage(120))
	waitSamples(t, ts.URL, "alpha", 120)

	code, body, hdr := do(t, http.MethodGet, ts.URL+"/v1/tenants/alpha/decisions", "")
	if code != http.StatusOK {
		t.Fatalf("decisions: %d %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("decision stream content type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 12 {
		t.Fatalf("120 samples at cadence 10 → want 12 decisions, got %d:\n%s", len(lines), body)
	}
	var first DecisionRecord
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Seq != 1 || first.Minute != 9 || first.Policy != "caasper" || first.From != 4 {
		t.Fatalf("first decision = %+v", first)
	}
	if first.Explanation != "" {
		t.Fatalf("explanation materialised without explain=1: %q", first.Explanation)
	}

	// since= cursor resumes mid-stream.
	code, body, _ = do(t, http.MethodGet, ts.URL+"/v1/tenants/alpha/decisions?since=10", "")
	if code != http.StatusOK {
		t.Fatal(code)
	}
	if got := len(strings.Split(strings.TrimSpace(body), "\n")); got != 2 {
		t.Fatalf("since=10 → want 2 records, got %d", got)
	}

	// explain=1 lazily materialises prose on every record.
	code, body, _ = do(t, http.MethodGet, ts.URL+"/v1/tenants/alpha/decisions?explain=1", "")
	if code != http.StatusOK {
		t.Fatal(code)
	}
	for i, ln := range strings.Split(strings.TrimSpace(body), "\n") {
		var rec DecisionRecord
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Explanation == "" {
			t.Fatalf("record %d has no explanation under explain=1: %s", i, ln)
		}
	}
}

func TestMalformedAndUnknown(t *testing.T) {
	_, ts := testServer(t, Options{})
	register(t, ts.URL, "alpha", `{"max_cores":8}`)

	for _, tc := range []struct {
		name, method, path, body string
		want                     int
	}{
		{"malformed ndjson", "POST", "/v1/tenants/alpha/samples", "{\"cpu\":1}\nnot json\n", http.StatusBadRequest},
		{"missing cpu field", "POST", "/v1/tenants/alpha/samples", "{\"usage\":1}\n", http.StatusBadRequest},
		{"negative cpu", "POST", "/v1/tenants/alpha/samples", "{\"cpu\":-3}\n", http.StatusBadRequest},
		{"empty batch", "POST", "/v1/tenants/alpha/samples", "", http.StatusBadRequest},
		{"unknown tenant samples", "POST", "/v1/tenants/ghost/samples", "{\"cpu\":1}\n", http.StatusNotFound},
		{"unknown tenant decisions", "GET", "/v1/tenants/ghost/decisions", "", http.StatusNotFound},
		{"unknown tenant status", "GET", "/v1/tenants/ghost", "", http.StatusNotFound},
		{"bad since", "GET", "/v1/tenants/alpha/decisions?since=x", "", http.StatusBadRequest},
		{"bad policy", "PUT", "/v1/tenants/beta", `{"policy":"nope","max_cores":4}`, http.StatusBadRequest},
		{"missing max", "PUT", "/v1/tenants/beta", `{"policy":"caasper"}`, http.StatusBadRequest},
		{"bad range", "PUT", "/v1/admin/tenants/alpha/range", `{"min_cores":5,"max_cores":2}`, http.StatusBadRequest},
		{"range above core cap", "PUT", "/v1/admin/tenants/alpha/range", `{"min_cores":1,"max_cores":4097}`, http.StatusBadRequest},
		{"max_cores above cap", "PUT", "/v1/tenants/beta", `{"max_cores":4097}`, http.StatusBadRequest},
		{"window above cap", "PUT", "/v1/tenants/beta", `{"max_cores":8,"window":40321}`, http.StatusBadRequest},
		{"horizon above cap", "PUT", "/v1/tenants/beta", `{"policy":"caasper-proactive","max_cores":8,"horizon":40321}`, http.StatusBadRequest},
		{"season above cap", "PUT", "/v1/tenants/beta", `{"policy":"caasper-proactive","max_cores":8,"season":40321}`, http.StatusBadRequest},
	} {
		code, body, _ := do(t, tc.method, ts.URL+tc.path, tc.body)
		if code != tc.want {
			t.Errorf("%s: status = %d (want %d): %s", tc.name, code, tc.want, body)
		}
	}

	// The malformed batch above must not have applied its valid prefix.
	_, body, _ := do(t, http.MethodGet, ts.URL+"/v1/tenants/alpha", "")
	var st tenantStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Samples != 0 {
		t.Fatalf("malformed batch applied %d samples; want all-or-nothing", st.Samples)
	}
}

// gatedRec wraps a recommender so its first Observe parks until the test
// releases it — a deterministic way to wedge a shard worker mid-apply.
type gatedRec struct {
	recommend.Recommender
	started chan struct{}
	gate    chan struct{}
	once    sync.Once
}

func (g *gatedRec) Observe(m int, u float64) {
	g.once.Do(func() {
		close(g.started)
		<-g.gate
	})
	g.Recommender.Observe(m, u)
}

func TestBackpressure429(t *testing.T) {
	s, ts := testServer(t, Options{QueueDepth: 1, Shards: 1})
	register(t, ts.URL, "alpha", `{"max_cores":8}`)

	// Wedge the shard worker inside the first apply, then fill the
	// single-slot queue and watch the next post bounce.
	sh := s.shards[0]
	sh.mu.Lock()
	tn := sh.tenants["alpha"]
	sh.mu.Unlock()
	g := &gatedRec{Recommender: tn.rec, started: make(chan struct{}), gate: make(chan struct{})}
	tn.mu.Lock()
	tn.rec = g
	tn.mu.Unlock()

	code1, body1, _ := do(t, http.MethodPost, ts.URL+"/v1/tenants/alpha/samples", `{"cpu":1}`+"\n")
	if code1 != http.StatusAccepted {
		t.Fatalf("first post: %d %s", code1, body1)
	}
	<-g.started // worker is mid-apply; queue is empty again

	code2, body2, _ := do(t, http.MethodPost, ts.URL+"/v1/tenants/alpha/samples", `{"cpu":1}`+"\n")
	if code2 != http.StatusAccepted {
		t.Fatalf("second post must fill the queue: %d %s", code2, body2)
	}
	code3, body3, hdr3 := do(t, http.MethodPost, ts.URL+"/v1/tenants/alpha/samples", `{"cpu":1}`+"\n")
	if code3 != http.StatusTooManyRequests {
		t.Fatalf("third post with full queue and wedged worker: %d %s", code3, body3)
	}
	if hdr3.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	close(g.gate)
	waitSamples(t, ts.URL, "alpha", 2)
}

// TestOversizedBatch413 posts a body one line over maxSamplesBody: it is
// refused with 413 and applies nothing, and the next normal POST is
// accepted.
func TestOversizedBatch413(t *testing.T) {
	s, ts := testServer(t, Options{})
	register(t, ts.URL, "alpha", `{"max_cores":8}`)
	line := `{"cpu":1}` + "\n"
	big := strings.Repeat(line, maxSamplesBody/len(line)+1)
	if code, body, _ := do(t, http.MethodPost, ts.URL+"/v1/tenants/alpha/samples", big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized post: %d %s", code, body)
	}
	if code, body, _ := do(t, http.MethodPost, ts.URL+"/v1/tenants/alpha/samples", line); code != http.StatusAccepted {
		t.Fatalf("post after the oversized one: %d %s", code, body)
	}
	waitSamples(t, ts.URL, "alpha", 1)
	if n := s.opts.Metrics.Counter("serve.samples").Value(); n != 1 {
		t.Fatalf("serve.samples = %d, want 1: the oversized batch applied a prefix", n)
	}
}

func TestPolicyHotSwapMidStream(t *testing.T) {
	_, ts := testServer(t, Options{DecisionEveryMinutes: 10})
	register(t, ts.URL, "alpha", `{"policy":"caasper","max_cores":8,"initial_cores":4}`)

	postSamples(t, ts.URL, "alpha", rampUsage(50))
	waitSamples(t, ts.URL, "alpha", 50)

	code, body, _ := do(t, http.MethodPut, ts.URL+"/v1/admin/tenants/alpha/policy", `{"policy":"autopilot"}`)
	if code != http.StatusOK {
		t.Fatalf("hot-swap: %d %s", code, body)
	}
	var st tenantStatus
	json.Unmarshal([]byte(body), &st)
	if st.Policy != "autopilot" {
		t.Fatalf("policy after swap = %q", st.Policy)
	}

	postSamples(t, ts.URL, "alpha", rampUsage(50))
	waitSamples(t, ts.URL, "alpha", 100)

	_, body, _ = do(t, http.MethodGet, ts.URL+"/v1/tenants/alpha/decisions", "")
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 10 {
		t.Fatalf("want 10 decisions across the swap, got %d", len(lines))
	}
	var recs []DecisionRecord
	for _, ln := range lines {
		var r DecisionRecord
		if err := json.Unmarshal([]byte(ln), &r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	for i, r := range recs {
		wantPolicy := "caasper"
		if i >= 5 {
			wantPolicy = "autopilot"
		}
		if r.Policy != wantPolicy {
			t.Fatalf("decision %d policy = %q, want %q (hot-swap at sample 50)", i, r.Policy, wantPolicy)
		}
		if r.Seq != int64(i+1) {
			t.Fatalf("seq %d at index %d: sequence must survive the swap", r.Seq, i)
		}
	}
}

func TestAdminRangeAndList(t *testing.T) {
	_, ts := testServer(t, Options{})
	register(t, ts.URL, "b", `{"max_cores":8,"initial_cores":6}`)
	register(t, ts.URL, "a", `{"max_cores":4}`)

	// Tightening the range clamps the current allocation immediately.
	code, body, _ := do(t, http.MethodPut, ts.URL+"/v1/admin/tenants/b/range", `{"min_cores":1,"max_cores":3}`)
	if code != http.StatusOK {
		t.Fatalf("range: %d %s", code, body)
	}
	var st tenantStatus
	json.Unmarshal([]byte(body), &st)
	if st.Cores != 3 || st.MaxCores != 3 {
		t.Fatalf("after tightening: %+v", st)
	}

	code, body, _ = do(t, http.MethodGet, ts.URL+"/v1/admin/tenants", "")
	if code != http.StatusOK {
		t.Fatal(code)
	}
	var rows []tenantStatus
	if err := json.Unmarshal([]byte(body), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].ID != "a" || rows[1].ID != "b" {
		t.Fatalf("admin list = %+v (want sorted a, b)", rows)
	}
}

// TestControlSwapAfterRangeTightening: a range retune can leave
// initial_cores above max_cores, and the control policy's allocation is
// initial_cores. Swapping to control afterwards must still succeed (the
// constructor refuses an allocation above the ladder), and its decisions
// stay within the tightened range.
func TestControlSwapAfterRangeTightening(t *testing.T) {
	_, ts := testServer(t, Options{DecisionEveryMinutes: 10})
	register(t, ts.URL, "c", `{"policy":"caasper","max_cores":8,"initial_cores":6}`)
	if code, body, _ := do(t, http.MethodPut, ts.URL+"/v1/admin/tenants/c/range", `{"min_cores":1,"max_cores":3}`); code != http.StatusOK {
		t.Fatalf("range: %d %s", code, body)
	}
	if code, body, _ := do(t, http.MethodPut, ts.URL+"/v1/admin/tenants/c/policy", `{"policy":"control"}`); code != http.StatusOK {
		t.Fatalf("swap to control: %d %s", code, body)
	}
	postSamples(t, ts.URL, "c", rampUsage(20))
	waitSamples(t, ts.URL, "c", 20)
	_, body, _ := do(t, http.MethodGet, ts.URL+"/v1/tenants/c/decisions", "")
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 decisions, got %d: %s", len(lines), body)
	}
	for _, ln := range lines {
		var r DecisionRecord
		if err := json.Unmarshal([]byte(ln), &r); err != nil {
			t.Fatal(err)
		}
		if r.Policy != "control" || r.To != 3 {
			t.Fatalf("decision %+v: want control at the 3-core cap", r)
		}
	}
}

func TestMetricsAndHealth(t *testing.T) {
	_, ts := testServer(t, Options{})
	register(t, ts.URL, "alpha", `{"max_cores":8}`)
	postSamples(t, ts.URL, "alpha", rampUsage(20))
	waitSamples(t, ts.URL, "alpha", 20)

	code, body, _ := do(t, http.MethodGet, ts.URL+"/metrics", "")
	if code != http.StatusOK || !strings.Contains(body, "serve.samples") {
		t.Fatalf("metrics: %d\n%s", code, body)
	}
	code, body, _ = do(t, http.MethodGet, ts.URL+"/healthz", "")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %s", code, body)
	}
}

func TestRequestSpansEmitted(t *testing.T) {
	sink := obs.NewMemorySink()
	_, ts := testServer(t, Options{Events: sink})
	register(t, ts.URL, "alpha", `{"max_cores":8}`)
	postSamples(t, ts.URL, "alpha", []float64{1, 2})
	waitSamples(t, ts.URL, "alpha", 2)

	spans := 0
	events := sink.Events()
	for _, e := range events {
		if e.Type == "serve.span" {
			spans++
		}
	}
	if spans < 2 {
		t.Fatalf("want ≥ 2 serve.span events (put + post), got %d of %d events", spans, len(events))
	}
}

// TestPutResetsTenant pins re-PUT semantics: a fresh window and log.
func TestPutResetsTenant(t *testing.T) {
	_, ts := testServer(t, Options{})
	register(t, ts.URL, "alpha", `{"max_cores":8}`)
	postSamples(t, ts.URL, "alpha", rampUsage(20))
	waitSamples(t, ts.URL, "alpha", 20)

	code, body, _ := do(t, http.MethodPut, ts.URL+"/v1/tenants/alpha", `{"max_cores":8}`)
	if code != http.StatusOK {
		t.Fatalf("re-PUT: %d %s", code, body)
	}
	var st tenantStatus
	json.Unmarshal([]byte(body), &st)
	if st.Samples != 0 || st.Decision != 0 {
		t.Fatalf("re-PUT did not reset: %+v", st)
	}
}

// TestDecisionLogBounded pins the ring bound: only the newest
// DecisionLogSize records are retained.
func TestDecisionLogBounded(t *testing.T) {
	_, ts := testServer(t, Options{DecisionEveryMinutes: 1, DecisionLogSize: 4})
	register(t, ts.URL, "alpha", `{"max_cores":8}`)
	postSamples(t, ts.URL, "alpha", rampUsage(10))
	waitSamples(t, ts.URL, "alpha", 10)

	_, body, _ := do(t, http.MethodGet, ts.URL+"/v1/tenants/alpha/decisions", "")
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 4 {
		t.Fatalf("log holds %d records, want 4", len(lines))
	}
	var first DecisionRecord
	json.Unmarshal([]byte(lines[0]), &first)
	if first.Seq != 7 {
		t.Fatalf("oldest retained seq = %d, want 7 (10 decisions, ring of 4)", first.Seq)
	}
}

// TestLockedSinkConcurrency exercises the shared event sink under
// parallel ingest (run with -race).
func TestLockedSinkConcurrency(t *testing.T) {
	var buf bytes.Buffer
	_, ts := testServer(t, Options{Events: obs.NewNDJSONSink(&buf), Shards: 4, DecisionEveryMinutes: 5})
	ids := []string{"a", "b", "c", "d", "e", "f"}
	for _, id := range ids {
		register(t, ts.URL, id, `{"max_cores":8}`)
	}
	done := make(chan struct{})
	for _, id := range ids {
		id := id
		go func() {
			defer func() { done <- struct{}{} }()
			postSamples(t, ts.URL, id, rampUsage(40))
		}()
	}
	for range ids {
		<-done
	}
	for _, id := range ids {
		waitSamples(t, ts.URL, id, 40)
	}
}
