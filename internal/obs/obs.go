// Package obs is the repository's structured telemetry layer: a
// stdlib-only event stream, metrics registry and timing toolkit shared by
// the decision core, the trace-driven simulator, the Kubernetes substrate,
// the parallel evaluation engine, the tuning harness and every CLI.
//
// Two kinds of telemetry flow through it, with different contracts:
//
//   - Events (this file) are the decision audit trail: structured records
//     keyed on *simulated* time, encoded as NDJSON with a stable field
//     order. Given the same inputs a run emits a bit-identical stream for
//     every worker count — the golden event-stream tests pin this.
//
//   - Metrics (metrics.go) are runtime counters, gauges and latency
//     histograms measured on the wall clock. They describe how fast the
//     engine ran, not what it decided, and are deliberately excluded from
//     the determinism contract.
//
// The hot paths guard every emission behind a nil/Enabled check, so with
// telemetry disabled (the default) the layer costs one predictable branch
// per potential event and allocates nothing.
package obs

import (
	"bufio"
	"io"
	"strconv"
	"sync"
)

// Event is one structured telemetry record. T is simulated time in the
// emitting layer's native unit (minutes in the simulator, seconds on the
// Kubernetes substrate, sample indices in the tuning harness); Type is a
// dotted lower-case name ("core.decision", "k8s.resize-completed");
// Fields preserve emission order, which is what makes the NDJSON encoding
// deterministic.
type Event struct {
	T      int64
	Type   string
	Fields []Field
}

// Field is one key/value pair of an event. Values are restricted to the
// four kinds the telemetry schema uses (string, float, int, bool) so that
// encoding never reflects and never varies across runs.
type Field struct {
	Key  string
	kind fieldKind
	s    string
	f    float64
	i    int64
}

type fieldKind uint8

const (
	kindString fieldKind = iota
	kindFloat
	kindInt
	kindBool
)

// S builds a string field.
func S(key, v string) Field { return Field{Key: key, kind: kindString, s: v} }

// F builds a float field.
func F(key string, v float64) Field { return Field{Key: key, kind: kindFloat, f: v} }

// I builds an integer field.
func I(key string, v int64) Field { return Field{Key: key, kind: kindInt, i: v} }

// B builds a boolean field.
func B(key string, v bool) Field {
	var i int64
	if v {
		i = 1
	}
	return Field{Key: key, kind: kindBool, i: i}
}

// AppendNDJSON appends the event's single-line JSON encoding (no trailing
// newline) to dst and returns it. The encoding is byte-deterministic:
// fields appear in emission order, floats use the shortest round-trippable
// form, and NaN/Inf (never produced by healthy emitters) encode as null.
func (e Event) AppendNDJSON(dst []byte) []byte {
	dst = append(dst, `{"t":`...)
	dst = strconv.AppendInt(dst, e.T, 10)
	dst = append(dst, `,"type":`...)
	dst = appendJSONString(dst, e.Type)
	for _, f := range e.Fields {
		dst = append(dst, ',')
		dst = appendJSONString(dst, f.Key)
		dst = append(dst, ':')
		switch f.kind {
		case kindString:
			dst = appendJSONString(dst, f.s)
		case kindFloat:
			dst = appendJSONFloat(dst, f.f)
		case kindInt:
			dst = strconv.AppendInt(dst, f.i, 10)
		case kindBool:
			if f.i != 0 {
				dst = append(dst, `true`...)
			} else {
				dst = append(dst, `false`...)
			}
		}
	}
	return append(dst, '}')
}

// appendJSONString appends a JSON-escaped quoted string. Printable
// characters (including multi-byte UTF-8, which the decision explanations
// use) pass through untouched, each run of them in one append; quotes,
// backslashes and control characters are escaped per RFC 8259.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	from := 0 // start of the run of bytes not yet appended
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		dst = append(dst, s[from:i]...)
		from = i + 1
		switch c {
		case '"', '\\':
			dst = append(dst, '\\', c)
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\t':
			dst = append(dst, '\\', 't')
		case '\r':
			dst = append(dst, '\\', 'r')
		default:
			const hex = "0123456789abcdef"
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
	}
	dst = append(dst, s[from:]...)
	return append(dst, '"')
}

// appendJSONFloat appends a float in shortest round-trippable form;
// non-finite values become null (JSON has no representation for them).
func appendJSONFloat(dst []byte, v float64) []byte {
	if v != v || v > maxFinite || v < -maxFinite {
		return append(dst, `null`...)
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

const maxFinite = 1.7976931348623157e308

// Sink consumes structured events. Implementations must be safe for
// concurrent Emit calls; the determinism contract is the *emitters'*
// responsibility (a single simulation run emits sequentially; multi-run
// drivers buffer per run and replay in run order — see sim.RunMatrix).
type Sink interface {
	// Enabled reports whether emissions are consumed. Emitters check it
	// (or Enabled(sink)) before building an event, so a disabled sink
	// costs one branch and zero allocations per call site.
	Enabled() bool
	// Emit consumes one event. Implementations that retain the event past
	// the call (buffers, replayers) must copy its Fields, because callers
	// are allowed to reuse the Fields backing array for the next event —
	// that reuse is what keeps hot emit sites allocation-free. Encoding
	// sinks that serialize before returning need no copy.
	Emit(e Event)
	// Flush forces buffered output down to the underlying writer.
	Flush() error
}

// Enabled reports whether s is a non-nil, enabled sink — the standard
// emission guard.
func Enabled(s Sink) bool { return s != nil && s.Enabled() }

// Discard is the no-op sink: disabled, so guarded emitters skip event
// construction entirely and the telemetry layer compiles down to a
// predictable branch per call site.
var Discard Sink = nopSink{}

type nopSink struct{}

func (nopSink) Enabled() bool { return false }
func (nopSink) Emit(Event)    {}
func (nopSink) Flush() error  { return nil }

// NDJSONSink encodes events as newline-delimited JSON onto a writer. It
// is safe for concurrent use; lines are written atomically under a mutex,
// and the encoding buffer is reused across events.
type NDJSONSink struct {
	mu    sync.Mutex
	bw    *bufio.Writer
	buf   []byte
	count int64
	err   error
}

// NewNDJSONSink wraps w (buffered internally; call Flush before reading
// the output).
func NewNDJSONSink(w io.Writer) *NDJSONSink {
	return &NDJSONSink{bw: bufio.NewWriter(w)}
}

// Enabled implements Sink.
func (s *NDJSONSink) Enabled() bool { return true }

// Emit implements Sink. Write errors are sticky: the first one is kept
// (see Err) and later emissions become no-ops, so a dying disk does not
// take the run down with it.
func (s *NDJSONSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.buf = e.AppendNDJSON(s.buf[:0])
	s.buf = append(s.buf, '\n')
	if _, err := s.bw.Write(s.buf); err != nil {
		s.err = err
		return
	}
	s.count++
}

// Flush implements Sink.
func (s *NDJSONSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.err = s.bw.Flush()
	return s.err
}

// Count returns the number of events successfully encoded.
func (s *NDJSONSink) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Err returns the sticky write error, if any.
func (s *NDJSONSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// MemorySink collects events in memory — the buffering half of the
// multi-run determinism story (per-run capture, ordered replay) and the
// assertion surface of the golden event-stream tests.
type MemorySink struct {
	mu     sync.Mutex
	events []Event
	// arena backs the collected events' Fields: Emit copies each event's
	// fields in (the Sink contract lets emitters reuse their backing), so
	// a long capture costs one growing arena instead of one slice header
	// per event — and pooled sinks reuse it across runs after Reset.
	arena []Field
}

// NewMemorySink returns an empty collecting sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// Enabled implements Sink.
func (m *MemorySink) Enabled() bool { return true }

// Emit implements Sink. The event's Fields are copied into the sink's
// arena, so callers may reuse their backing array immediately.
func (m *MemorySink) Emit(e Event) {
	m.mu.Lock()
	if n := len(e.Fields); n > 0 {
		if cap(m.arena)-len(m.arena) < n {
			// Chunked growth: open a fresh block instead of reallocating,
			// so already-captured events keep pointing into the old chunks
			// (immutable, alive until the events are) and no capture ever
			// re-copies what it already copied.
			size := 2 * cap(m.arena)
			if size < 512 {
				size = 512
			}
			if size < n {
				size = n
			}
			m.arena = make([]Field, 0, size)
		}
		start := len(m.arena)
		m.arena = append(m.arena, e.Fields...)
		e.Fields = m.arena[start:len(m.arena):len(m.arena)]
	}
	m.events = append(m.events, e)
	m.mu.Unlock()
}

// Flush implements Sink.
func (m *MemorySink) Flush() error { return nil }

// Events returns the collected events in emission order. The events'
// Fields alias the sink's internal arena: they are immutable, but only
// valid until the next Reset (which recycles the arena for new events) —
// consume or deep-copy them before resetting.
func (m *MemorySink) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Event, len(m.events))
	copy(out, m.events)
	return out
}

// Reset discards the collected events but keeps the backing storage, so
// a sink can be pooled across runs instead of reallocated.
func (m *MemorySink) Reset() {
	m.mu.Lock()
	m.events = m.events[:0]
	m.arena = m.arena[:0]
	m.mu.Unlock()
}

// ReplayTo re-emits every collected event into dst in order.
func (m *MemorySink) ReplayTo(dst Sink) {
	if !Enabled(dst) {
		return
	}
	for _, e := range m.Events() {
		dst.Emit(e)
	}
}

// Span is a simulated-time interval under construction: begin it at the
// start of an operation, End it when the operation completes, and one
// event typed after the span is emitted carrying t = start and the
// simulated duration. A zero Span (disabled sink) is inert.
type Span struct {
	sink  Sink
	typ   string
	start int64
}

// StartSpan opens a span at simulated time start. No event is emitted
// until End.
func StartSpan(sink Sink, typ string, start int64) Span {
	if !Enabled(sink) {
		return Span{}
	}
	return Span{sink: sink, typ: typ, start: start}
}

// End closes the span at simulated time end, emitting the span event with
// a "dur" field followed by any extra fields.
func (sp Span) End(end int64, extra ...Field) {
	if sp.sink == nil {
		return
	}
	fields := make([]Field, 0, 1+len(extra))
	fields = append(fields, I("dur", end-sp.start))
	fields = append(fields, extra...)
	sp.sink.Emit(Event{T: sp.start, Type: sp.typ, Fields: fields})
}
