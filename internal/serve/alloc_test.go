// Ingest-path allocation pins. The serve ingest hot path recycles its
// parse scratch (scanner buffer + samples slice travel through the
// shard queue and back into their pools) and decodes canonical sample
// lines with a hand-rolled parser instead of encoding/json; these tests
// fail the build if either half regresses — the parser by diverging
// from json.Unmarshal, the pooling by re-introducing per-batch garbage.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"caasper/internal/obs"
	"caasper/internal/recommend"
)

// TestParseSampleFastMatchesJSON cross-checks the fast parser against
// encoding/json on canonical, exotic and malformed inputs: whenever the
// fast path accepts a line it must produce the exact struct the full
// decoder does, and it must decline (not misparse) everything unusual.
func TestParseSampleFastMatchesJSON(t *testing.T) {
	cases := []struct {
		in       string
		wantFast bool // fast path must handle it itself
	}{
		{`{"cpu": 1.5, "ram_gb": 3.2, "disk_gb": 12}`, true},
		{`{"cpu":0}`, true},
		{`{"cpu":3.25,"ram_gb":0.5}`, true},
		{`{"cpu":7e2}`, true},
		{`{"cpu":1.25E+1}`, true},
		{`{"cpu":-0}`, true},
		{`{"disk_gb":40,"cpu":2}`, true}, // order-independent
		{`  {"cpu": 2}  `, true},
		{`{}`, true},
		{`{"cpu":0.1}`, true}, // repeating binary fraction
		{`{"cpu":33.33}`, true},
		// Outside the fast path: must fall back, never misparse.
		{`{"cpu":1e999}`, false},                   // overflow → +Inf via ParseFloat... json rejects? fallback decides
		{`{"cpu":12345678901234567890123}`, false}, // >19 digits
		{`{"cpu":2,"note":"hi"}`, false},           // unknown key (json ignores it)
		{`{"cpu":null}`, false},                    // null → json leaves sentinel
		{`{"cpu":"3"}`, false},                     // wrong type → json error
		{`{"cpus":2}`, false},                      // unknown key (json ignores it)
		{`{"\u0063pu":2}`, false},                  // escaped key → fall back
		{`{"cpu":2}{"cpu":3}`, false},              // trailing garbage
		{`{"cpu":2,}`, false},                      // trailing comma
		{`{"cpu":.5}`, false},                      // no leading digit
		{`{"cpu":01}`, false},                      // leading zero
		{`not json`, false},
	}
	for _, tc := range cases {
		fast := sample{CPU: -1}
		ok := parseSampleFast([]byte(tc.in), &fast)
		if ok != tc.wantFast {
			t.Errorf("parseSampleFast(%q) ok = %v, want %v", tc.in, ok, tc.wantFast)
		}
		if !ok {
			continue
		}
		ref := sample{CPU: -1}
		if err := json.Unmarshal([]byte(tc.in), &ref); err != nil {
			t.Errorf("fast path accepted %q but json.Unmarshal rejects it: %v", tc.in, err)
			continue
		}
		if fast != ref {
			t.Errorf("parseSampleFast(%q) = %+v, json.Unmarshal = %+v", tc.in, fast, ref)
		}
	}
}

// TestParseSampleFastRandomizedNumbers sweeps generated numeric shapes
// through both decoders — the bit-identical contract for the Clinger
// fast-path window, across signs, fractions and exponents.
func TestParseSampleFastRandomizedNumbers(t *testing.T) {
	var nums []string
	for _, mant := range []string{"0", "1", "7", "12", "999", "4503599627370495", "9007199254740991", "1.5", "0.125", "3.1415926", "0.0071", "123.456"} {
		for _, exp := range []string{"", "e0", "e1", "e-1", "E5", "e+10", "e-20", "e22"} {
			nums = append(nums, mant+exp, "-"+mant+exp)
		}
	}
	for _, n := range nums {
		line := fmt.Sprintf(`{"cpu":%s,"ram_gb":%s}`, n, n)
		fast := sample{CPU: -1}
		if !parseSampleFast([]byte(line), &fast) {
			// Outside the exact-conversion window — allowed, the real
			// handler falls back to json.Unmarshal.
			continue
		}
		ref := sample{CPU: -1}
		if err := json.Unmarshal([]byte(line), &ref); err != nil {
			t.Fatalf("json.Unmarshal(%q): %v", line, err)
		}
		if fast != ref {
			t.Errorf("number %q: fast %v/%v, json %v/%v", n, fast.CPU, fast.RAMGB, ref.CPU, ref.RAMGB)
		}
	}
}

// FuzzParseSampleFast is the differential fuzz of the ingest fast path:
// whatever line parseSampleFast accepts, json.Unmarshal must accept too
// and decode to the same sample, floats bit for bit. Its seeds are in
// testdata/fuzz/FuzzParseSampleFast.
func FuzzParseSampleFast(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		fast := sample{CPU: -1}
		if !parseSampleFast(line, &fast) {
			return
		}
		ref := sample{CPU: -1}
		if err := json.Unmarshal(line, &ref); err != nil {
			t.Fatalf("fast path accepts %q, json.Unmarshal rejects it: %v", line, err)
		}
		if !sameBits(reflect.ValueOf(fast), reflect.ValueOf(ref)) {
			t.Fatalf("parseSampleFast(%q) = %+v, json.Unmarshal = %+v", line, fast, ref)
		}
	})
}

// TestParseSampleFastAllocBudget pins the fast parser at zero
// allocations per canonical line — the whole point of bypassing
// encoding/json on the ingest hot path.
func TestParseSampleFastAllocBudget(t *testing.T) {
	raw := []byte(`{"cpu": 3.27, "ram_gb": 12.5, "disk_gb": 40}`)
	var smp sample
	allocs := testing.AllocsPerRun(100, func() {
		smp = sample{CPU: -1}
		if !parseSampleFast(raw, &smp) {
			t.Fatal("canonical line fell off the fast path")
		}
	})
	if allocs != 0 {
		t.Fatalf("parseSampleFast allocated %.0f times per line, want 0", allocs)
	}
	if smp.CPU != 3.27 || smp.RAMGB != 12.5 || smp.DiskGB != 40 {
		t.Fatalf("parsed %+v", smp)
	}
}

// TestIngestAllocBudget drives a warmed-up 60-sample batch straight into
// the handler (no HTTP client, a recycled recorder) and budgets the
// whole POST: with pooled parse scratch and the fast-path decoder, the
// per-batch cost is dominated by net/http request plumbing and the due
// decisions — around 85 allocations, under 1.5 per sample — where the
// seed implementation spent ~370 more on the parse path alone (a fresh
// 64 KiB scanner buffer, samples-slice growth and one json.Unmarshal
// per line).
func TestIngestAllocBudget(t *testing.T) {
	s, err := New(Options{Metrics: obs.NewRegistry(), Shards: 1, DecisionEveryMinutes: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mux := s.Handler()

	cfgBody := `{"policy":"caasper","min_cores":1,"max_cores":16,"initial_cores":2,"window":40}`
	req := httptest.NewRequest("PUT", "/v1/tenants/t0", strings.NewReader(cfgBody))
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("tenant PUT: %d %s", rec.Code, rec.Body.String())
	}

	var body bytes.Buffer
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&body, `{"cpu": %.2f, "ram_gb": %.2f, "disk_gb": 12}`+"\n", 1.5+float64(i%7), 3.2+float64(i%5))
	}
	lines := body.Bytes()

	post := func() {
		req := httptest.NewRequest("POST", "/v1/tenants/t0/samples", bytes.NewReader(lines))
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("samples POST: %d %s", rec.Code, rec.Body.String())
		}
	}
	// Warm up the pools, the tenant window and the drain worker's scratch
	// high-water marks, then wait for the queue to empty so measured runs
	// recycle batch boxes instead of racing the worker for fresh ones.
	const warmups = 8
	for i := 0; i < warmups; i++ {
		post()
	}
	applied := s.opts.Metrics.Counter("serve.samples")
	for applied.Value() < warmups*60 {
		time.Sleep(time.Millisecond)
	}
	// The drain worker runs concurrently and a GC mid-measurement would
	// charge pool refills to the loop; pause collection so the pin is
	// about the code path (same technique as the top-level alloc tests).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(20, post)
	const budget = 120 // one 60-sample batch; the seed's parse path alone spent ~370 on top of this
	if allocs > budget {
		t.Fatalf("60-sample ingest POST allocated %.0f times, budget %d", allocs, budget)
	}
}

// TestDecideFullLogZeroAlloc pins a decision on a full decision ring at
// zero allocations: the record overwrites the oldest one in place and
// the metric handles are resolved up front, so observing a sample,
// running Algorithm 1 and logging the decision allocate nothing.
func TestDecideFullLogZeroAlloc(t *testing.T) {
	const size = 8
	usage := logUsage(size + 64)
	s, ts := logServer(t, size, usage[:size])
	k := size
	allocs := testing.AllocsPerRun(50, func() {
		s.apply(batch{t: ts, samples: usage[k : k+1], enq: time.Now()})
		k++
	})
	if allocs != 0 {
		t.Fatalf("a decision on a full log allocated %.1f times, want 0", allocs)
	}
	if n, head := len(ts.log.recs), ts.log.head; n != size || head != k%size {
		t.Fatalf("ring holds %d records at head %d after %d decisions", n, head, k)
	}
}

// TestEncodeTenantAllocBudget pins a warm caasper tenant's checkpoint
// line at zero allocations: the encoder reads the window in place under
// the tenant lock (SnapshotState aliases it) and appends the
// line to a reused buffer without reflection, so a copy of the state or
// a return to encoding/json fails here.
func TestEncodeTenantAllocBudget(t *testing.T) {
	s, ts := logServer(t, 8, logUsage(64))
	if len(ts.log.recs) != 8 || len(ts.rec.(recommend.StateSnapshotter).SnapshotState().Window) == 0 {
		t.Fatal("tenant is not warm")
	}
	b := make([]byte, 0, 64<<10)
	var err error
	allocs := testing.AllocsPerRun(50, func() {
		b, err = s.encodeTenant(b[:0], "t")
	})
	if err != nil || len(b) == 0 {
		t.Fatalf("encodeTenant wrote %d bytes: %v", len(b), err)
	}
	if allocs != 0 {
		t.Fatalf("encodeTenant allocated %.0f times per line, want 0", allocs)
	}
}
