package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"caasper/internal/obs"
)

// routes builds the HTTP surface:
//
//	PUT  /v1/tenants/{id}                register (or reconfigure) a tenant
//	GET  /v1/tenants/{id}                tenant status
//	POST /v1/tenants/{id}/samples        ingest NDJSON samples {"cpu": 1.5, "ram_gb": 3.2, "disk_gb": 12}
//	GET  /v1/tenants/{id}/decisions      decision stream (since=, explain=1)
//	GET  /v1/admin/tenants               list tenants with their ranges
//	PUT  /v1/admin/tenants/{id}/range    retune {"min_cores","max_cores"} (+ optional
//	                                     "min_ram_gb","max_ram_gb","disk_gb","max_replicas")
//	PUT  /v1/admin/tenants/{id}/policy   hot-swap {"policy": "vpa"}
//	POST /v1/admin/snapshot              checkpoint now
//	GET  /metrics                        runtime metrics table
//	GET  /healthz                        liveness
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/tenants/{id}", s.span("tenant.put", s.handleTenantPut))
	mux.HandleFunc("GET /v1/tenants/{id}", s.span("tenant.get", s.handleTenantGet))
	mux.HandleFunc("POST /v1/tenants/{id}/samples", s.span("samples.post", s.handleSamples))
	mux.HandleFunc("GET /v1/tenants/{id}/decisions", s.span("decisions.get", s.handleDecisions))
	mux.HandleFunc("GET /v1/admin/tenants", s.span("admin.list", s.handleAdminList))
	mux.HandleFunc("PUT /v1/admin/tenants/{id}/range", s.span("admin.range", s.handleAdminRange))
	mux.HandleFunc("PUT /v1/admin/tenants/{id}/policy", s.span("admin.policy", s.handleAdminPolicy))
	mux.HandleFunc("POST /v1/admin/snapshot", s.span("admin.snapshot", s.handleAdminSnapshot))
	mux.HandleFunc("GET /metrics", s.span("metrics", s.handleMetrics))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	return mux
}

// span wraps a handler with request-span telemetry: a latency sample in
// the registry and, when events are on, one "serve.span" event stamped
// with milliseconds since server start.
func (s *Server) span(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		dur := s.met.requestLatency.ObserveSince(t0)
		s.met.requests.Inc()
		if s.events.Enabled() {
			s.events.Emit(obs.Event{T: time.Since(s.start).Milliseconds(), Type: "serve.span", Fields: []obs.Field{
				obs.S("route", route),
				obs.I("status", int64(sw.status)),
				obs.I("dur_us", dur.Microseconds()),
			}})
		}
	}
}

// statusWriter captures the response status for spans.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// lookup resolves a tenant (shard lock, briefly) and hands it to fn
// under the tenant's own lock, or answers 404.
func (s *Server) lookup(w http.ResponseWriter, id string, fn func(*tenantState)) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	t, ok := sh.tenants[id]
	sh.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown tenant %q", id)
		return
	}
	t.mu.Lock()
	fn(t)
	t.mu.Unlock()
}

// maxConfigBody caps a tenant, range or policy body in bytes; a config
// is a few hundred.
const maxConfigBody = 64 << 10

// decodeConfig reads a config body of at most maxConfigBody bytes and
// decodes it into v as one JSON value. A longer body answers 413 and a
// malformed one 400; it reports whether v may be used.
func decodeConfig(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxConfigBody))
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		httpError(w, http.StatusRequestEntityTooLarge, "%s body over %d bytes", what, tooBig.Limit)
	case err != nil:
		httpError(w, http.StatusBadRequest, "reading %s: %v", what, err)
	default:
		if err := json.Unmarshal(raw, v); err != nil {
			httpError(w, http.StatusBadRequest, "%s: %v", what, err)
			return false
		}
		return true
	}
	return false
}

// handleTenantPut registers a tenant (idempotent re-PUT reconfigures it
// from scratch: fresh window, fresh decision log). Its initial grants
// must lie inside its range: a range retune or a restore clamps them
// instead, so only registration checks them.
func (s *Server) handleTenantPut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var cfg TenantConfig
	if !decodeConfig(w, r, "tenant config", &cfg) {
		return
	}
	t, err := s.newTenant(id, cfg)
	if err == nil {
		err = t.cfg.checkInitial(t.cur, t.lim)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Snapshot the status row before publishing t: once it is in the
	// map a concurrent ingest could start mutating it.
	row := s.statusOf(t)
	sh := s.shardFor(id)
	sh.mu.Lock()
	_, existed := sh.tenants[id]
	sh.tenants[id] = t
	sh.mu.Unlock()
	status := http.StatusCreated
	if existed {
		status = http.StatusOK
	}
	writeJSON(w, status, row)
}

// tenantStatus is the status body of GET /v1/tenants/{id} and the admin
// list rows.
type tenantStatus struct {
	ID       string `json:"id"`
	Policy   string `json:"policy"`
	Cores    int    `json:"cores"`
	MinCores int    `json:"min_cores"`
	MaxCores int    `json:"max_cores"`
	Samples  int    `json:"samples"`
	Decision int64  `json:"decisions"`
	// Multi-resource grants, appended after the v1 fields and omitted for
	// CPU-only tenants (their rows stay byte-identical).
	RAMGB    int `json:"ram_gb,omitempty"`
	MaxRAMGB int `json:"max_ram_gb,omitempty"`
	DiskGB   int `json:"disk_gb,omitempty"`
	Replicas int `json:"replicas,omitempty"`
}

// statusOf snapshots a tenant's status row. Caller holds the tenant lock
// (or exclusively owns the tenant, as handleTenantPut does pre-insert).
func (s *Server) statusOf(t *tenantState) tenantStatus {
	return tenantStatus{
		ID:       t.id,
		Policy:   t.cfg.Policy,
		Cores:    t.cur.CPUCores,
		MinCores: t.lim.Min.CPUCores,
		MaxCores: t.lim.Max.CPUCores,
		Samples:  t.minute,
		Decision: t.seq,
		RAMGB:    t.cur.RAMGB,
		MaxRAMGB: t.lim.Max.RAMGB,
		DiskGB:   t.cur.DiskGB,
		Replicas: t.cur.Replicas,
	}
}

func (s *Server) handleTenantGet(w http.ResponseWriter, r *http.Request) {
	s.lookup(w, r.PathValue("id"), func(t *tenantState) {
		writeJSON(w, http.StatusOK, s.statusOf(t))
	})
}

// maxSamplesBody caps one ingest body in bytes. A week of minute samples
// with all three fields is under 1 MB.
const maxSamplesBody = 4 << 20

// handleSamples ingests an NDJSON body of samples. The whole batch is
// parsed before anything is enqueued, so a malformed line rejects the
// request (400) without applying a prefix of it. A body over
// maxSamplesBody answers 413, and a full shard queue answers 429 with
// Retry-After — the backpressure contract.
func (s *Server) handleSamples(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sh := s.shardFor(id)
	sh.mu.Lock()
	t, ok := sh.tenants[id]
	sh.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown tenant %q", id)
		return
	}

	// Parse scratch comes from the ingest pools: the scanner buffer is
	// returned on every path, while the samples slice travels with the
	// batch through the shard queue and is recycled by the drain worker —
	// except on reject paths (400/429), where the deferred check returns
	// it here instead.
	bufp := scanBufPool.Get().(*[]byte)
	defer scanBufPool.Put(bufp)
	box := samplesPool.Get().(*[]sample)
	samples := (*box)[:0]
	enqueued := false
	defer func() {
		if !enqueued {
			*box = samples[:0]
			samplesPool.Put(box)
		}
	}()
	sc := bufio.NewScanner(http.MaxBytesReader(w, r.Body, maxSamplesBody))
	sc.Buffer(*bufp, 1<<20)
	line := 0
	for sc.Scan() {
		if sc.Err() != nil {
			// The read failed under the buffered lines, and the last may
			// be cut short: the read error answers the request.
			break
		}
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var smp sample
		smp.CPU = -1
		if !parseSampleFast(raw, &smp) {
			smp = sample{CPU: -1}
			if err := json.Unmarshal(raw, &smp); err != nil {
				httpError(w, http.StatusBadRequest, "sample line %d: %v", line, err)
				return
			}
		}
		if smp.CPU < 0 {
			httpError(w, http.StatusBadRequest, `sample line %d: "cpu" must be present and ≥ 0`, line)
			return
		}
		samples = append(samples, smp)
	}
	if err := sc.Err(); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "sample batch over %d bytes", tooBig.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "reading samples: %v", err)
		return
	}
	if len(samples) == 0 {
		httpError(w, http.StatusBadRequest, "empty sample batch")
		return
	}

	select {
	case sh.queue <- batch{t: t, samples: samples, box: box, enq: time.Now()}:
		enqueued = true
		s.met.batches.Inc()
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, "{\"accepted\":%d}\n", len(samples))
	default:
		s.met.rejected.Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "ingest queue full (depth %d)", s.opts.QueueDepth)
	}
}

// handleDecisions streams the tenant's decision log as NDJSON. since=N
// skips records with Seq ≤ N (a resume cursor, found by binary search);
// explain=1 materialises each record's prose explanation.
func (s *Server) handleDecisions(w http.ResponseWriter, r *http.Request) {
	var since int64
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "since=%q is not a non-negative integer", v)
			return
		}
		since = n
	}
	withExplain := r.URL.Query().Get("explain") == "1"

	// Copy the eligible records out under the lock, format outside it.
	var out []DecisionRecord
	found := false
	s.lookup(w, r.PathValue("id"), func(t *tenantState) {
		found = true
		out = t.log.since(since)
	})
	if !found {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetEscapeHTML(false)
	for i := range out {
		if withExplain {
			out[i].Explanation = explain(out[i])
		}
		enc.Encode(out[i])
	}
	bw.Flush()
}

func (s *Server) handleAdminList(w http.ResponseWriter, _ *http.Request) {
	var rows []tenantStatus
	for _, id := range s.tenantIDs() {
		s.lookupQuiet(id, func(t *tenantState) {
			rows = append(rows, s.statusOf(t))
		})
	}
	if rows == nil {
		rows = []tenantStatus{}
	}
	writeJSON(w, http.StatusOK, rows)
}

// lookupQuiet is lookup without the HTTP 404 (admin sweeps tolerate a
// tenant vanishing between the ID listing and the row read).
func (s *Server) lookupQuiet(id string, fn func(*tenantState)) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	t, ok := sh.tenants[id]
	sh.mu.Unlock()
	if !ok {
		return
	}
	t.mu.Lock()
	fn(t)
	t.mu.Unlock()
}

// handleAdminRange retunes a tenant's resource ranges (the Zerops
// scaling-API verb: adjust the autoscaling bounds, let the autoscaler
// move inside them). The CPU pair is the tenant PUT's; the multi-resource
// fields are optional and, when zero, leave that dimension's bounds
// untouched, so a CPU-only PUT behaves exactly as it did before the
// vector API. The new config resolves as a registered one does, and the
// policy is rebuilt at the new MaxCores with its state carried over.
// Current grants are clamped into the new ranges immediately.
func (s *Server) handleAdminRange(w http.ResponseWriter, r *http.Request) {
	var body TenantConfig // only its range fields are read
	if !decodeConfig(w, r, "range", &body) {
		return
	}
	s.lookup(w, r.PathValue("id"), func(t *tenantState) {
		cfg := t.cfg
		cfg.MinCores, cfg.MaxCores = body.MinCores, body.MaxCores
		if body.MinRAMGB != 0 || body.MaxRAMGB != 0 {
			cfg.MinRAMGB, cfg.MaxRAMGB = body.MinRAMGB, body.MaxRAMGB
		}
		if body.DiskGB != 0 {
			cfg.DiskGB = body.DiskGB
			if cfg.MaxDiskGB > 0 {
				cfg.MaxDiskGB = max(cfg.MaxDiskGB, body.DiskGB)
			}
		}
		if body.MaxReplicas != 0 {
			cfg.MaxReplicas = body.MaxReplicas
		}
		if _, err := s.configure(t, cfg, true); err != nil {
			httpError(w, http.StatusBadRequest, "range: %v", err)
			return
		}
		// Volumes only grow: an admin can provision ahead of demand but
		// never shrink under live data. A newly managed RAM or replica
		// dimension starts at its floor.
		cur := t.cur
		cur.DiskGB = max(cur.DiskGB, body.DiskGB)
		t.cur = t.lim.Clamp(cur)
		writeJSON(w, http.StatusOK, s.statusOf(t))
	})
}

// handleAdminPolicy hot-swaps a tenant's recommender without a restart.
// The new policy starts with a cold observation window (policies have
// incompatible state shapes); the decision log, sequence numbers and
// sample clock carry over, so streams resume seamlessly mid-flight.
func (s *Server) handleAdminPolicy(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Policy string `json:"policy"`
	}
	if !decodeConfig(w, r, "policy", &body) {
		return
	}
	if body.Policy == "" {
		httpError(w, http.StatusBadRequest, `policy: body must be {"policy": "<name>"}`)
		return
	}
	s.lookup(w, r.PathValue("id"), func(t *tenantState) {
		cfg := t.cfg
		cfg.Policy = body.Policy
		if _, err := s.configure(t, cfg, false); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, s.statusOf(t))
	})
}

func (s *Server) handleAdminSnapshot(w http.ResponseWriter, _ *http.Request) {
	if s.opts.SnapshotPath == "" {
		httpError(w, http.StatusConflict, "no snapshot path configured")
		return
	}
	if err := s.Snapshot(s.opts.SnapshotPath); err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"snapshot": s.opts.SnapshotPath})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.opts.Metrics == nil {
		io.WriteString(w, "metrics disabled\n")
		return
	}
	io.WriteString(w, s.opts.Metrics.Summary())
}

// parseSampleFast decodes the canonical flat sample object — plain
// escape-free keys from the fixed schema, plain RFC 8259 numbers, no
// nesting — without encoding/json's reflection machinery or its
// per-token allocations. It is strictly conservative: anything unusual
// (unknown keys, string escapes, nested values, null, numbers outside
// the exact-conversion fast path below) returns false and the caller
// retries the line with json.Unmarshal, so every accepted input decodes
// bit-identically on both paths and rejection semantics never change.
func parseSampleFast(b []byte, out *sample) bool {
	i := 0
	skipWS := func() {
		for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
			i++
		}
	}
	skipWS()
	if i >= len(b) || b[i] != '{' {
		return false
	}
	i++
	skipWS()
	if i < len(b) && b[i] == '}' {
		i++
		skipWS()
		return i == len(b)
	}
	for {
		skipWS()
		if i >= len(b) || b[i] != '"' {
			return false
		}
		i++
		keyStart := i
		for i < len(b) && b[i] != '"' {
			if b[i] == '\\' {
				return false
			}
			i++
		}
		if i >= len(b) {
			return false
		}
		key := b[keyStart:i]
		i++
		skipWS()
		if i >= len(b) || b[i] != ':' {
			return false
		}
		i++
		skipWS()
		v, ok := parseNumberFast(b, &i)
		if !ok {
			return false
		}
		switch string(key) { // compiler elides the conversion in a switch
		case "cpu":
			out.CPU = v
		case "ram_gb":
			out.RAMGB = v
		case "disk_gb":
			out.DiskGB = v
		default:
			return false
		}
		skipWS()
		if i >= len(b) {
			return false
		}
		switch b[i] {
		case ',':
			i++
		case '}':
			i++
			skipWS()
			return i == len(b)
		default:
			return false
		}
	}
}

// pow10Exact holds the powers of ten exactly representable as float64 —
// the range where one multiply or divide is correctly rounded.
var pow10Exact = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// parseNumberFast reads a JSON number at b[*i] via Clinger's exact
// conversion: when the mantissa fits in 53 bits and the decimal
// exponent stays within ±22, float64(mantissa) scaled by an exact power
// of ten is correctly rounded — bit-identical to strconv.ParseFloat,
// with no intermediate string. Anything outside that window (too many
// digits, extreme exponents, malformed syntax) reports !ok and the
// caller falls back to the full decoder.
func parseNumberFast(b []byte, ip *int) (float64, bool) {
	i := *ip
	neg := false
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	var mant uint64
	digits := 0
	switch {
	case i < len(b) && b[i] == '0':
		i++
		digits = 1
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			mant = mant*10 + uint64(b[i]-'0')
			digits++
			if digits > 19 {
				return 0, false
			}
			i++
		}
	default:
		return 0, false
	}
	exp10 := 0
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return 0, false
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			mant = mant*10 + uint64(b[i]-'0')
			digits++
			exp10--
			if digits > 19 {
				return 0, false
			}
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return 0, false
		}
		e := 0
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			e = e*10 + int(b[i]-'0')
			if e > 400 {
				return 0, false
			}
			i++
		}
		if eneg {
			exp10 -= e
		} else {
			exp10 += e
		}
	}
	if mant >= 1<<53 || exp10 < -22 || exp10 > 22 {
		return 0, false
	}
	v := float64(mant)
	if exp10 > 0 {
		v *= pow10Exact[exp10]
	} else if exp10 < 0 {
		v /= pow10Exact[-exp10]
	}
	if neg {
		v = -v
	}
	*ip = i
	return v, true
}

// appendNumberFast is parseNumberFast's inverse: it appends v's shortest
// round-trip decimal, the bytes strconv.AppendFloat(b, v, 'f', -1, 64)
// writes, when v is the double nearest to a decimal with at most six
// fraction digits, and reports !ok otherwise. With m = round(|v|·10⁶)
// and 1 ≤ m < 2⁵², both operands of m/10⁶ are exact, so the division is
// correctly rounded: when it gives |v| back, v is the double nearest to
// m·10⁻⁶. Below 2⁵²·10⁻⁶ < 2³³ the ulp of v is at most 2⁻²⁰ < 10⁻⁶, so
// no other decimal on the 10⁻⁶ grid, and none with fewer digits, rounds
// to v: m's digits, trailing zeros trimmed, are the shortest.
func appendNumberFast(b []byte, v float64) ([]byte, bool) {
	a := math.Abs(v)
	x := math.Round(a * 1e6)
	if !(x >= 1 && x < 1<<52) || x/1e6 != a {
		return b, false
	}
	m := uint64(x)
	if v < 0 {
		b = append(b, '-')
	}
	b = strconv.AppendUint(b, m/1e6, 10)
	frac := m % 1e6
	if frac == 0 {
		return b, true
	}
	n := 6
	for frac%10 == 0 {
		frac /= 10
		n--
	}
	var d [7]byte
	d[0] = '.'
	for i := n; i > 0; i-- {
		d[i] = byte('0' + frac%10)
		frac /= 10
	}
	return append(b, d[:n+1]...), true
}
