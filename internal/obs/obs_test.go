package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"
)

func TestEventNDJSONEncoding(t *testing.T) {
	e := Event{T: 42, Type: "core.decision", Fields: []Field{
		S("branch", "scale-up"),
		F("slope", 1.25),
		I("cores", 8),
		B("memo", true),
		B("throttled", false),
		S("note", "a \"quoted\"\nline\twith → unicode"),
		F("nan", math.NaN()),
		F("inf", math.Inf(1)),
	}}
	got := string(e.AppendNDJSON(nil))
	want := `{"t":42,"type":"core.decision","branch":"scale-up","slope":1.25,"cores":8,` +
		`"memo":true,"throttled":false,"note":"a \"quoted\"\nline\twith → unicode","nan":null,"inf":null}`
	if got != want {
		t.Errorf("encoding mismatch:\n got  %s\n want %s", got, want)
	}
	// Every line must parse as standard JSON.
	var m map[string]any
	if err := json.Unmarshal([]byte(got), &m); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if m["t"].(float64) != 42 || m["branch"] != "scale-up" || m["memo"] != true {
		t.Errorf("decoded fields wrong: %v", m)
	}
}

// byteLoopJSONString is appendJSONString as one append per byte, the
// oracle of TestAppendJSONStringMatchesByteLoop.
func byteLoopJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c == '\n':
			dst = append(dst, '\\', 'n')
		case c == '\t':
			dst = append(dst, '\\', 't')
		case c == '\r':
			dst = append(dst, '\\', 'r')
		case c < 0x20:
			const hex = "0123456789abcdef"
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

// TestAppendJSONStringMatchesByteLoop checks the run-at-a-time escape
// against the byte loop on every byte 0x00–0xFF alone, leading, trailing
// and between runs, and on multi-byte UTF-8 (the explanations' ≥, ×, ·),
// invalid UTF-8 and runs of escapes. The JSON-valid outputs must also
// decode back to the input.
func TestAppendJSONStringMatchesByteLoop(t *testing.T) {
	inputs := []string{"", "plain", "≥ 2 cores × 0.95 · walk-down", "\xff\xfe", "\"\\\n\t\r\x00\x1f", "a\"\"b", "€\n€"}
	for c := 0; c < 256; c++ {
		b := string([]byte{byte(c)})
		inputs = append(inputs, b, b+"tail", "head"+b, "run "+b+" run "+b+b+" ≥")
	}
	for _, s := range inputs {
		got, want := appendJSONString([]byte("x"), s), byteLoopJSONString([]byte("x"), s)
		if !bytes.Equal(got, want) {
			t.Fatalf("%q: got %q, byte loop %q", s, got, want)
		}
		var back string
		if err := json.Unmarshal(got[1:], &back); err == nil && utf8.ValidString(s) && back != s {
			t.Fatalf("%q decodes back to %q", s, back)
		}
	}
}

func TestNDJSONSinkConcurrentLines(t *testing.T) {
	var buf bytes.Buffer
	sink := NewNDJSONSink(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sink.Emit(Event{T: int64(i), Type: "test", Fields: []Field{I("g", int64(g))}})
			}
		}(g)
	}
	wg.Wait()
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 400 {
		t.Fatalf("got %d lines, want 400", len(lines))
	}
	if sink.Count() != 400 {
		t.Errorf("Count = %d", sink.Count())
	}
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("interleaved write produced invalid JSON line %q: %v", ln, err)
		}
	}
}

// errWriter fails after the first write.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > 1 {
		return 0, io.ErrClosedPipe
	}
	return len(p), nil
}

func TestNDJSONSinkStickyError(t *testing.T) {
	sink := NewNDJSONSink(&errWriter{})
	big := strings.Repeat("x", 8192) // defeat bufio buffering
	sink.Emit(Event{Type: "a", Fields: []Field{S("pad", big)}})
	sink.Emit(Event{Type: "b", Fields: []Field{S("pad", big)}})
	sink.Emit(Event{Type: "c", Fields: []Field{S("pad", big)}})
	if sink.Err() == nil {
		t.Fatal("expected sticky error")
	}
	if sink.Flush() == nil {
		t.Error("Flush should report the sticky error")
	}
}

func TestDiscardAndEnabled(t *testing.T) {
	if Discard.Enabled() {
		t.Error("Discard must be disabled")
	}
	if Enabled(nil) || Enabled(Discard) {
		t.Error("Enabled must be false for nil and Discard")
	}
	if !Enabled(NewMemorySink()) {
		t.Error("MemorySink must be enabled")
	}
	Discard.Emit(Event{})
	if err := Discard.Flush(); err != nil {
		t.Error(err)
	}
}

func TestMemorySinkReplayPreservesOrder(t *testing.T) {
	mem := NewMemorySink()
	for i := 0; i < 10; i++ {
		mem.Emit(Event{T: int64(i), Type: "seq"})
	}
	dst := NewMemorySink()
	mem.ReplayTo(dst)
	got := dst.Events()
	if len(got) != 10 {
		t.Fatalf("replayed %d events", len(got))
	}
	for i, e := range got {
		if e.T != int64(i) {
			t.Fatalf("order broken at %d: %+v", i, e)
		}
	}
	mem.ReplayTo(Discard) // must be a no-op, not a panic
	if len(mem.Events()) != 10 {
		t.Errorf("events = %d", len(mem.Events()))
	}
}

func TestSpan(t *testing.T) {
	mem := NewMemorySink()
	sp := StartSpan(mem, "k8s.resize-completed", 100)
	sp.End(160, I("to", 8))
	evs := mem.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events", len(evs))
	}
	line := string(evs[0].AppendNDJSON(nil))
	want := `{"t":100,"type":"k8s.resize-completed","dur":60,"to":8}`
	if line != want {
		t.Errorf("span event = %s, want %s", line, want)
	}
	// Disabled spans are inert.
	StartSpan(Discard, "x", 0).End(5)
	StartSpan(nil, "x", 0).End(5)
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sim.decisions")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d", c.Value())
	}
	if r.Counter("sim.decisions") != c {
		t.Error("get-or-create must return the same counter")
	}
	g := r.Gauge("pool.max_queue")
	g.Set(3)
	if g.Value() != 3 {
		t.Errorf("gauge = %v", g.Value())
	}

	// Nil instruments are inert.
	var nilReg *Registry
	nilReg.Counter("x").Inc()
	nilReg.Gauge("y").Set(1)
	nilReg.Histogram("z").Observe(1)
	if nilReg.Counter("x").Value() != 0 || nilReg.Summary() != "" {
		t.Error("nil registry must be inert")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewDurationHistogram()
	// 100 samples: 1ms..100ms uniformly.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 1e6)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Mean(); math.Abs(got-50.5e6) > 1 {
		t.Errorf("mean = %v", got)
	}
	p50 := h.Quantile(0.5)
	if p50 < 20e6 || p50 > 80e6 {
		t.Errorf("p50 = %vms, want ≈50ms", p50/1e6)
	}
	p99 := h.Quantile(0.99)
	if p99 < 80e6 || p99 > 100e6 {
		t.Errorf("p99 = %vms, want ≈99ms", p99/1e6)
	}
	if h.Max() != 100e6 {
		t.Errorf("max = %v", h.Max())
	}
	if h.Quantile(1) > 100e6 {
		t.Errorf("p100 = %v exceeds max", h.Quantile(1))
	}
	var empty *Histogram
	if empty.Quantile(0.5) != 0 || empty.Count() != 0 || empty.Mean() != 0 {
		t.Error("nil histogram must report zeros")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewDurationHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= 1000; i++ {
				h.Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d, want 8000", h.Count())
	}
	if got, want := h.Sum(), 8*1000.0*1001/2; math.Abs(got-want) > 0.5 {
		t.Errorf("sum = %v, want %v", got, want)
	}
	if h.Max() != 1000 {
		t.Errorf("max = %v", h.Max())
	}
}

func TestRegistrySummaryTable(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim.resizes").Add(10)
	r.Gauge("pool.workers").Set(4)
	r.Histogram("pool.task_latency").Observe(5e6)
	s := r.Summary()
	for _, want := range []string{"sim.resizes", "pool.workers", "pool.task_latency", "p99="} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	if NewRegistry().Summary() == "" {
		t.Error("empty registry should still render a header")
	}
}

func TestLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	l.Infof("info %d", 1)
	l.Errorf("error shown")
	out := buf.String()
	if !strings.Contains(out, "info 1") || !strings.Contains(out, "error shown") {
		t.Errorf("missing lines: %q", out)
	}
	var quiet bytes.Buffer
	NewLogger(&quiet, 0).Infof("info hidden")
	if quiet.Len() != 0 {
		t.Errorf("info leaked at quiet level: %q", quiet.String())
	}
	var nilLog *Logger
	nilLog.Infof("x")
	nilLog.Errorf("x")
}

func TestCLISessionLifecycle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.ndjson")

	var cfg CLIConfig
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cfg.Register(fs)
	if err := fs.Parse([]string{"-events", path, "-obs", "-v", "1"}); err != nil {
		t.Fatal(err)
	}
	sess, err := cfg.Start()
	if err != nil {
		t.Fatal(err)
	}
	if !Enabled(sess.Events) {
		t.Fatal("events sink should be enabled")
	}
	sess.Events.Emit(Event{T: 1, Type: "test.event", Fields: []Field{I("n", 1)}})
	sess.Metrics.Counter("test.counter").Inc()

	var out bytes.Buffer
	if err := sess.Finish(&out); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"type":"test.event"`) {
		t.Errorf("events file content: %q", data)
	}
	if !strings.Contains(out.String(), "test.counter") {
		t.Errorf("-obs summary missing counter: %q", out.String())
	}

	// No -events: Discard, and Finish is quiet without -obs.
	sess2, err := (&CLIConfig{}).Start()
	if err != nil {
		t.Fatal(err)
	}
	if Enabled(sess2.Events) {
		t.Error("default events sink must be disabled")
	}
	var out2 bytes.Buffer
	if err := sess2.Finish(&out2); err != nil {
		t.Fatal(err)
	}
	if out2.Len() != 0 {
		t.Errorf("quiet finish wrote %q", out2.String())
	}
}

func TestObserveSince(t *testing.T) {
	h := NewDurationHistogram()
	t0 := time.Now()
	d := h.ObserveSince(t0)
	if d < 0 || h.Count() != 1 {
		t.Errorf("ObserveSince: d=%v count=%d", d, h.Count())
	}
}
