package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"caasper/internal/core"
	"caasper/internal/parallel"
	"caasper/internal/recommend"
)

// snapshotVersion is the checkpoint format version. Version 2 added the
// multi-resource tenant fields (all omitempty) and spells each decision's
// allocation as Current/Target vectors. Restore still accepts v1
// checkpoints: their tenants resume with RAM/disk/replicas at their
// config defaults, and their decisions' pre-vector CPU keys are read by
// backfillV1Decisions.
const snapshotVersion = 2

// snapshotVersionV1 is the CPU-only predecessor Restore migrates from.
const snapshotVersionV1 = 1

// snapshotHeader is the first NDJSON line of a checkpoint.
type snapshotHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Tenants int    `json:"tenants"`
}

// snapshotTenant is one tenant's checkpoint line. PolicyState carries
// the recommend.StateSnapshotter payload (window, total, scratch memo);
// policies without the interface restore cold, flagged by HasState.
type snapshotTenant struct {
	ID       string           `json:"id"`
	Config   TenantConfig     `json:"config"`
	Cores    int              `json:"cores"`
	Minute   int              `json:"minute"`
	Seq      int64            `json:"seq"`
	HasState bool             `json:"has_state"`
	State    recommend.State  `json:"state,omitempty"`
	Log      []DecisionRecord `json:"log,omitempty"`
	// Multi-resource state (v2, omitted for CPU-only tenants): current
	// grants plus the between-decision peaks, so a restored tenant's next
	// multi decision is bit-identical too.
	RAMGB    int     `json:"ram_gb,omitempty"`
	DiskGB   int     `json:"disk_gb,omitempty"`
	Replicas int     `json:"replicas,omitempty"`
	RAMPeak  float64 `json:"ram_peak,omitempty"`
	DiskHigh float64 `json:"disk_high,omitempty"`
	CPUPeak  float64 `json:"cpu_peak,omitempty"`
}

// snapshotBatch is how many tenant lines one parallel step encodes per
// worker, or decodes in all: it bounds the checkpoint bytes a Snapshot or
// Restore holds at once to a few hundred lines per worker, whatever the
// tenant count. A restore batch also ends once its lines pass
// restoreBatchBytes, so a stream of huge lines holds one line more than
// that at most, not snapshotBatch of them.
const (
	snapshotBatch     = 256
	restoreBatchBytes = 4 << 20
)

// Snapshot checkpoints every tenant to path as versioned NDJSON: one
// header line, then one line per tenant in sorted ID order. The write is
// atomic (temp file + rename), so a crash mid-snapshot leaves the
// previous checkpoint intact. Each tenant serialises under its own
// lock; in-flight batches for other tenants keep draining.
//
// Lines are encoded in rounds: each worker encodes a contiguous run of
// the round's sorted IDs into its own buffer, and the buffers are
// written in ID order, so the file is byte-identical for every worker
// count.
func (s *Server) Snapshot(path string) error {
	start := time.Now()
	ids := s.tenantIDs()
	tmp, err := os.CreateTemp(filepath.Dir(path), ".snapshot-*")
	if err != nil {
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	written, err := s.writeSnapshot(tmp, ids)
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	s.opts.Log.Infof("snapshot: %d tenants → %s in %v (%d bytes)",
		len(ids), path, time.Since(start).Round(time.Microsecond), written)
	return nil
}

// writeSnapshot writes the header and the tenant lines of ids to w.
func (s *Server) writeSnapshot(w io.Writer, ids []string) (int64, error) {
	workers := parallel.Workers(0, len(ids))
	bufs := make([][]byte, workers)
	e := lineEncoder{}
	e.open()
	e.strField("format", "caasper-serve")
	putInt(&e, "version", snapshotVersion)
	putInt(&e, "tenants", len(ids))
	e.close()
	n, err := w.Write(append(e.b, '\n'))
	written := int64(n)
	if err != nil {
		return written, err
	}
	for lo := 0; lo < len(ids); lo += workers * snapshotBatch {
		round := ids[lo:min(lo+workers*snapshotBatch, len(ids))]
		per := (len(round) + workers - 1) / workers
		err := parallel.ForEach(context.TODO(), workers, workers, func(k int) error {
			b := bufs[k][:0]
			var err error
			run := round[min(k*per, len(round)):min((k+1)*per, len(round))]
			for i, id := range run {
				if b, err = s.encodeTenant(b, id); err != nil {
					return err
				}
				if i == 0 { // size the buffer once, from the first line
					b = slices.Grow(b, len(b)*(len(run)-1))
				}
			}
			bufs[k] = b
			return nil
		})
		if err != nil {
			return written, err
		}
		for _, b := range bufs {
			n, err := w.Write(b)
			written += int64(n)
			if err != nil {
				return written, err
			}
		}
	}
	return written, nil
}

// encodeTenant appends one tenant's checkpoint line to b under its lock;
// a tenant that vanished since the ID listing writes nothing.
func (s *Server) encodeTenant(b []byte, id string) ([]byte, error) {
	var err error
	s.lookupQuiet(id, func(t *tenantState) {
		st := snapshotTenant{
			ID:     t.id,
			Config: t.cfg,
			Cores:  t.cores,
			Minute: t.minute,
			Seq:    t.seq,
			Log:    t.log.oldestFirst(),
		}
		if t.cfg.multi() {
			st.RAMGB = t.ramGB
			st.DiskGB = t.diskGB
			st.Replicas = t.replicas
			st.RAMPeak = t.ramPeak
			st.DiskHigh = t.diskHigh
			st.CPUPeak = t.cpuPeak
		}
		if snap, can := t.rec.(recommend.StateSnapshotter); can {
			// The line is encoded under the lock, so the state's
			// windows may alias the adapter's own buffers.
			st.HasState, st.State = true, snap.SnapshotState()
		}
		b, err = appendTenantLine(b, &st)
	})
	return b, err
}

// restoreIfPresent loads the checkpoint at path when one exists; a
// missing file is a cold start, not an error.
func (s *Server) restoreIfPresent(path string) error {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("serve: restore: %w", err)
	}
	defer f.Close()
	return s.Restore(f)
}

// backfillV1Decisions restores the CPU allocation of a v1 tenant line's
// decisions, which v1 wrote under pre-vector keys
// (core.Decision.BackfillV1).
func backfillV1Decisions(line []byte, st *recommend.State) error {
	var v1 struct {
		State struct {
			Memo         struct{ Decision json.RawMessage } `json:"memo"`
			LastDecision json.RawMessage                    `json:"last_decision"`
		} `json:"state"`
	}
	if err := json.Unmarshal(line, &v1); err != nil {
		return err
	}
	if err := st.Memo.Decision.BackfillV1(v1.State.Memo.Decision); err != nil {
		return err
	}
	return st.LastDecision.BackfillV1(v1.State.LastDecision)
}

// Restore rebuilds the tenant map from a Snapshot stream. Each tenant is
// reconstructed from its config (same policy, same knobs) and its
// serialised state is restored, so the first post-restore decision is
// bit-identical to the one the snapshotted server would have made next —
// the round-trip contract pinned by TestSnapshotRestartBitIdentical.
//
// Lines are read in bounded batches (snapshotBatch lines, or
// restoreBatchBytes) and each batch is decoded in parallel; an error
// names the lowest failing line, whatever the worker count. Restore is
// all-or-nothing: tenants join the shard maps only after the whole
// stream has decoded, every ID is unique and the header's tenant count
// matches, so a failed Restore leaves the server without a single
// restored tenant.
func (s *Server) Restore(r io.Reader) error {
	start := time.Now()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	if !sc.Scan() {
		return fmt.Errorf("serve: restore: empty snapshot")
	}
	var hdr snapshotHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return fmt.Errorf("serve: restore: header: %w", err)
	}
	if hdr.Format != "caasper-serve" || (hdr.Version != snapshotVersion && hdr.Version != snapshotVersionV1) {
		return fmt.Errorf("serve: restore: unsupported snapshot format %q version %d", hdr.Format, hdr.Version)
	}

	var (
		tenants   []*tenantState
		fallbacks atomic.Int64 // lines json.Unmarshal decoded
		seen      = make(map[string]struct{})
		arena     []byte // the batch's lines, back to back
		ends      []int  // ends[i] is line i's end in arena
	)
	// flush decodes the batch in parallel, then checks IDs in line order,
	// so the error reported is the lowest failing line's.
	flush := func() error {
		first := len(tenants) + 1 // the batch's first tenant line
		batch, err := parallel.Map(context.TODO(), len(ends), 0, func(i int) (*tenantState, error) {
			lo := 0
			if i > 0 {
				lo = ends[i-1]
			}
			return s.restoreTenant(arena[lo:ends[i]], first+i, hdr.Version, &fallbacks)
		})
		for i, t := range batch {
			if t == nil {
				return err // the lowest failing line: every earlier one decoded
			}
			if _, dup := seen[t.id]; dup {
				return fmt.Errorf("serve: restore: duplicate tenant %q (line %d)", t.id, first+i)
			}
			seen[t.id] = struct{}{}
			tenants = append(tenants, t)
		}
		arena, ends = arena[:0], ends[:0]
		return nil
	}
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		arena = append(arena, line...)
		ends = append(ends, len(arena))
		if len(ends) == snapshotBatch || len(arena) >= restoreBatchBytes {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("serve: restore: %w", err)
	}
	if err := flush(); err != nil {
		return err
	}
	if len(tenants) != hdr.Tenants {
		return fmt.Errorf("serve: restore: snapshot truncated: header says %d tenants, found %d", hdr.Tenants, len(tenants))
	}
	for _, t := range tenants {
		sh := s.shardFor(t.id)
		sh.mu.Lock()
		sh.tenants[t.id] = t
		sh.mu.Unlock()
	}
	s.met.restoreLines.Add(int64(len(tenants)))
	s.met.restoreFallbacks.Add(fallbacks.Load())
	s.opts.Log.Infof("restore: %d tenants from snapshot in %v (%d lines via json.Unmarshal)",
		len(tenants), time.Since(start).Round(time.Microsecond), fallbacks.Load())
	return nil
}

// restoreTenant rebuilds one tenant from its checkpoint line (tenant
// line number no) without publishing it. It returns a nil tenant exactly
// when it fails. A v2 line in the layout Snapshot writes is decoded by
// decodeTenantLine; any other line — v1, hand-edited or hostile — by
// json.Unmarshal, counted in fallbacks.
func (s *Server) restoreTenant(line []byte, no, version int, fallbacks *atomic.Int64) (*tenantState, error) {
	var st snapshotTenant
	if version != snapshotVersion || !decodeTenantLine(line, &st) {
		fallbacks.Add(1)
		st = snapshotTenant{}
		if err := json.Unmarshal(line, &st); err != nil {
			return nil, fmt.Errorf("serve: restore: tenant line %d: %w", no, err)
		}
	}
	if version == snapshotVersionV1 && st.HasState {
		if err := backfillV1Decisions(line, &st.State); err != nil {
			return nil, fmt.Errorf("serve: restore: tenant line %d: %w", no, err)
		}
	}
	if err := checkDecisionLog(st.Log, st.Seq); err != nil {
		return nil, fmt.Errorf("serve: restore: tenant line %d: %w", no, err)
	}
	t, err := s.newTenant(st.ID, st.Config)
	if err != nil {
		return nil, fmt.Errorf("serve: restore: tenant %q: %w", st.ID, err)
	}
	t.cores = st.Cores
	t.minute = st.Minute
	t.seq = st.Seq
	t.log.restore(st.Log, s.opts.DecisionLogSize)
	if t.cfg.multi() {
		// v1 lines carry no multi fields: zero grants keep the
		// newTenant config defaults, peaks restart cold.
		if st.RAMGB > 0 {
			t.ramGB = st.RAMGB
		}
		if st.DiskGB > 0 {
			t.diskGB = st.DiskGB
		}
		if st.Replicas > 0 {
			t.replicas = st.Replicas
		}
		t.ramPeak = st.RAMPeak
		t.diskHigh = st.DiskHigh
		t.cpuPeak = st.CPUPeak
	}
	if st.HasState {
		snap, can := t.rec.(recommend.StateSnapshotter)
		if !can {
			return nil, fmt.Errorf("serve: restore: tenant %q: policy %q lost its snapshot capability", st.ID, st.Config.Policy)
		}
		if err := snap.RestoreState(st.State); err != nil {
			return nil, fmt.Errorf("serve: restore: tenant %q: %w", st.ID, err)
		}
	}
	return t, nil
}

// decodeTenantLine decodes one v2 tenant line in the exact layout
// Snapshot writes — encoding/json's field order and omitempty rules, no
// whitespace, plain integers, strings with no escapes and valid UTF-8 —
// without reflection. Floats take parseNumberFast and fall back to
// strconv.ParseFloat, so each keeps the bits json.Unmarshal gives it.
// Any member may be absent, as omitempty allows, but the ones present
// must come in struct order. Anything else reports false, st is then
// partly filled, and the caller decodes the line with json.Unmarshal:
// every line this accepts decodes to the struct json.Unmarshal would
// build (FuzzSnapshotLine).
func decodeTenantLine(b []byte, st *snapshotTenant) bool {
	d := lineDecoder{b: b, ok: true}
	d.open()
	d.strField("id", &st.ID)
	if d.key("config") {
		d.config(&st.Config)
	}
	intField(&d, "cores", &st.Cores)
	intField(&d, "minute", &st.Minute)
	intField(&d, "seq", &st.Seq)
	d.boolField("has_state", &st.HasState)
	if d.key("state") {
		d.state(&st.State)
	}
	if d.key("log") {
		st.Log = array(&d, d.countToClose('{'), d.record)
	}
	intField(&d, "ram_gb", &st.RAMGB)
	intField(&d, "disk_gb", &st.DiskGB)
	intField(&d, "replicas", &st.Replicas)
	d.floatField("ram_peak", &st.RAMPeak)
	d.floatField("disk_high", &st.DiskHigh)
	d.floatField("cpu_peak", &st.CPUPeak)
	d.close()
	return d.ok && d.i == len(b)
}

// lineDecoder is decodeTenantLine's cursor over b. ok turns false at the
// first byte outside the canonical layout and stays false, which makes
// every later step a no-op.
type lineDecoder struct {
	b  []byte
	i  int
	ok bool
}

// lit consumes s if the input continues with it.
func (d *lineDecoder) lit(s string) bool {
	if !d.ok || len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

func (d *lineDecoder) open() {
	if !d.lit("{") {
		d.ok = false
	}
}

func (d *lineDecoder) close() {
	if !d.lit("}") {
		d.ok = false
	}
}

// key consumes the member name, with its leading comma unless it opens
// the object, when it is the next member. Otherwise it consumes nothing:
// the member is absent, and a member out of order is left for close to
// reject.
func (d *lineDecoder) key(name string) bool {
	if !d.ok {
		return false
	}
	j := d.i
	if d.b[j-1] != '{' { // no value ends in '{', so this is not the first member
		if j >= len(d.b) || d.b[j] != ',' {
			return false
		}
		j++
	}
	n := len(name)
	if len(d.b)-j < n+3 || d.b[j] != '"' || string(d.b[j+1:j+1+n]) != name || d.b[j+1+n] != '"' || d.b[j+2+n] != ':' {
		return false
	}
	d.i = j + n + 3
	return true
}

// intField decodes member name, when present, as a plain integer that
// fits *p.
func intField[T int | int64 | uint8](d *lineDecoder, name string, p *T) {
	if !d.key(name) {
		return
	}
	i := d.i
	neg := i < len(d.b) && d.b[i] == '-'
	if neg {
		if ^T(0) > 0 { // unsigned: json.Unmarshal rejects a sign, even on -0
			d.ok = false
			return
		}
		i++
	}
	var v int64
	digits := 0
	for ; i < len(d.b) && d.b[i] >= '0' && d.b[i] <= '9'; i++ {
		if digits++; digits > 18 || digits == 2 && v == 0 {
			d.ok = false // may overflow, or a leading zero
			return
		}
		v = v*10 + int64(d.b[i]-'0')
	}
	if neg {
		v = -v
	}
	if t := T(v); digits > 0 && int64(t) == v {
		*p, d.i = t, i
	} else {
		d.ok = false
	}
}

func (d *lineDecoder) floatField(name string, p *float64) {
	if d.key(name) {
		*p = d.float()
	}
}

func (d *lineDecoder) strField(name string, p *string) {
	if d.key(name) {
		*p = d.str()
	}
}

func (d *lineDecoder) boolField(name string, p *bool) {
	switch {
	case !d.key(name):
	case d.lit("true"):
		*p = true
	case !d.lit("false"):
		d.ok = false
	}
}

// float reads a JSON number: parseNumberFast where it is exact,
// strconv.ParseFloat on the number's bytes otherwise.
func (d *lineDecoder) float() float64 {
	if !d.ok {
		return 0
	}
	if v, ok := parseNumberFast(d.b, &d.i); ok {
		return v
	}
	end := numberEnd(d.b, d.i)
	if end < 0 {
		d.ok = false
		return 0
	}
	v, err := strconv.ParseFloat(string(d.b[d.i:end]), 64)
	if err != nil {
		d.ok = false // out of range: json.Unmarshal fails too
		return 0
	}
	d.i = end
	return v
}

// numberEnd returns the end of the RFC 8259 number at b[i:], or -1.
func numberEnd(b []byte, i int) int {
	digits := func() bool {
		j := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return -1
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return -1
		}
	}
	return i
}

// knownNames are the policy and branch names every checkpoint line
// repeats: str returns these shared strings instead of a fresh copy.
var knownNames = append(recommend.Names(), "caasper-reactive",
	string(core.BranchScaleUp), string(core.BranchScaleDown), string(core.BranchWalkDown), string(core.BranchHold))

// str reads a string with no escape and no control byte that is valid
// UTF-8, which json.Unmarshal decodes to the same bytes. A knownNames
// entry comes back shared (the comparison does not allocate), any other
// value as a copy.
func (d *lineDecoder) str() string {
	if !d.lit(`"`) {
		d.ok = false
		return ""
	}
	for j := d.i; j < len(d.b) && d.b[j] != '\\' && d.b[j] >= 0x20; j++ {
		if d.b[j] == '"' {
			s := d.b[d.i:j]
			if !utf8.Valid(s) {
				break
			}
			d.i = j + 1
			for _, n := range knownNames {
				if string(s) == n {
					return n
				}
			}
			return string(s)
		}
	}
	d.ok = false
	return ""
}

// array reads an array whose elements elem decodes in place into a slice
// of capacity n. null is a nil slice and [] an empty one, as
// json.Unmarshal gives them.
func array[T any](d *lineDecoder, n int, elem func(*T)) []T {
	if d.lit("null") {
		return nil
	}
	if !d.lit("[") {
		d.ok = false
		return nil
	}
	out := make([]T, 0, n)
	if d.lit("]") {
		return out
	}
	for d.ok {
		out = append(out, *new(T))
		elem(&out[len(out)-1])
		if d.lit("]") {
			return out
		}
		if !d.lit(",") {
			d.ok = false
		}
	}
	return nil
}

// countToClose counts the bytes c before the next ']', to size an array
// up front: an array of n numbers holds n−1 commas, a decision log of n
// records n '{'.
func (d *lineDecoder) countToClose(c byte) int {
	rest := d.b[d.i:]
	return bytes.Count(rest[:max(bytes.IndexByte(rest, ']'), 0)], []byte{c})
}

func (d *lineDecoder) floats() []float64 {
	return array(d, 1+d.countToClose(','), func(v *float64) { *v = d.float() })
}

func (d *lineDecoder) config(c *TenantConfig) {
	d.open()
	d.strField("policy", &c.Policy)
	intField(d, "min_cores", &c.MinCores)
	intField(d, "max_cores", &c.MaxCores)
	intField(d, "initial_cores", &c.InitialCores)
	intField(d, "window", &c.Window)
	intField(d, "horizon", &c.Horizon)
	intField(d, "season", &c.Season)
	intField(d, "min_ram_gb", &c.MinRAMGB)
	intField(d, "max_ram_gb", &c.MaxRAMGB)
	intField(d, "initial_ram_gb", &c.InitialRAMGB)
	intField(d, "disk_gb", &c.DiskGB)
	intField(d, "max_disk_gb", &c.MaxDiskGB)
	intField(d, "max_replicas", &c.MaxReplicas)
	d.close()
}

func (d *lineDecoder) state(st *recommend.State) {
	d.open()
	if d.key("window") {
		st.Window = d.floats()
	}
	intField(d, "total", &st.Total)
	if d.key("memo") {
		m := &st.Memo
		d.open()
		d.boolField("Valid", &m.Valid)
		intField(d, "Cores", &m.Cores)
		if d.key("Window") {
			m.Window = d.floats()
		}
		if d.key("Decision") {
			d.decision(&m.Decision)
		}
		intField(d, "ExpKind", &m.ExpKind)
		d.floatField("ExpPeak", &m.ExpPeak)
		intField(d, "Now", &m.Now)
		d.close()
	}
	if d.key("last_decision") {
		d.decision(&st.LastDecision)
	}
	d.boolField("last_used_forecast", &st.LastUsedForecast)
	d.close()
}

func (d *lineDecoder) decision(dec *core.Decision) {
	d.open()
	if d.key("Current") {
		d.resources(&dec.Current)
	}
	if d.key("Target") {
		d.resources(&dec.Target)
	}
	intField(d, "Delta", &dec.Delta)
	d.strField("Branch", (*string)(&dec.Branch))
	d.floatField("Slope", &dec.Slope)
	d.floatField("Skew", &dec.Skew)
	d.floatField("RawSF", &dec.RawSF)
	d.floatField("Quantile", &dec.Quantile)
	d.strField("Explanation", &dec.Explanation)
	d.close()
}

func (d *lineDecoder) resources(r *core.Resources) {
	d.open()
	intField(d, "CPUCores", &r.CPUCores)
	intField(d, "RAMGB", &r.RAMGB)
	intField(d, "DiskGB", &r.DiskGB)
	intField(d, "Replicas", &r.Replicas)
	d.close()
}

func (d *lineDecoder) record(r *DecisionRecord) {
	d.open()
	intField(d, "seq", &r.Seq)
	intField(d, "minute", &r.Minute)
	d.strField("policy", &r.Policy)
	intField(d, "from", &r.From)
	intField(d, "to", &r.To)
	d.strField("branch", &r.Branch)
	d.floatField("slope", &r.Slope)
	d.floatField("skew", &r.Skew)
	d.floatField("raw_sf", &r.RawSF)
	d.floatField("quantile", &r.Quantile)
	d.strField("explanation", &r.Explanation)
	intField(d, "ram_from", &r.RAMFrom)
	intField(d, "ram_to", &r.RAMTo)
	intField(d, "disk_to", &r.DiskTo)
	intField(d, "replicas", &r.Replicas)
	d.close()
}

// appendTenantLine appends st as one checkpoint line, decodeTenantLine's
// mirror: the bytes a json.Encoder with SetEscapeHTML(false) writes for
// st, newline included, without reflection. Members come in struct order
// under the struct's omitempty rules (state is a struct, so it is always
// written; a nil memo window is null, an empty one []); strings take
// encoding/json's escapes and floats its number format. A NaN or ±Inf,
// which JSON cannot carry, fails the line.
func appendTenantLine(b []byte, st *snapshotTenant) ([]byte, error) {
	e := lineEncoder{b: b}
	e.open()
	e.strField("id", st.ID)
	e.key("config")
	e.config(&st.Config)
	putInt(&e, "cores", st.Cores)
	putInt(&e, "minute", st.Minute)
	putInt(&e, "seq", st.Seq)
	e.boolField("has_state", st.HasState)
	e.key("state")
	e.state(&st.State)
	if len(st.Log) > 0 {
		e.key("log")
		e.b = append(e.b, '[')
		for i := range st.Log {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.record(&st.Log[i])
		}
		e.b = append(e.b, ']')
	}
	putIntOmitEmpty(&e, "ram_gb", st.RAMGB)
	putIntOmitEmpty(&e, "disk_gb", st.DiskGB)
	putIntOmitEmpty(&e, "replicas", st.Replicas)
	e.floatOmitEmpty("ram_peak", st.RAMPeak)
	e.floatOmitEmpty("disk_high", st.DiskHigh)
	e.floatOmitEmpty("cpu_peak", st.CPUPeak)
	e.close()
	if e.err != nil {
		return b, fmt.Errorf("tenant %q: %w", st.ID, e.err)
	}
	return append(e.b, '\n'), nil
}

// lineEncoder is appendTenantLine's output buffer. err records the first
// float JSON cannot carry; the rest of the line is still appended, and
// then dropped.
type lineEncoder struct {
	b   []byte
	err error
}

func (e *lineEncoder) open()  { e.b = append(e.b, '{') }
func (e *lineEncoder) close() { e.b = append(e.b, '}') }

// key appends the member name, with a leading comma unless it opens the
// object.
func (e *lineEncoder) key(name string) {
	if e.b[len(e.b)-1] != '{' {
		e.b = append(e.b, ',')
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, name...)
	e.b = append(e.b, '"', ':')
}

// putInt appends member name as a plain integer.
func putInt[T int | int64 | uint8](e *lineEncoder, name string, v T) {
	e.key(name)
	e.b = strconv.AppendInt(e.b, int64(v), 10)
}

// putIntOmitEmpty appends member name unless v is 0.
func putIntOmitEmpty(e *lineEncoder, name string, v int) {
	if v != 0 {
		putInt(e, name, v)
	}
}

func (e *lineEncoder) boolField(name string, v bool) {
	e.key(name)
	e.b = strconv.AppendBool(e.b, v)
}

func (e *lineEncoder) floatField(name string, v float64) {
	e.key(name)
	e.float(v)
}

// floatOmitEmpty appends member name unless v is 0 or -0, as omitempty
// drops both.
func (e *lineEncoder) floatOmitEmpty(name string, v float64) {
	if v != 0 {
		e.floatField(name, v)
	}
}

func (e *lineEncoder) strField(name, v string) {
	e.key(name)
	e.str(v)
}

// strOmitEmpty appends member name unless v is empty.
func (e *lineEncoder) strOmitEmpty(name, v string) {
	if v != "" {
		e.strField(name, v)
	}
}

// float appends v as encoding/json does: the shortest round-trip digits,
// in 'f' layout for 1e-6 ≤ |v| < 1e21 and in 'e' layout, with a one-digit
// negative exponent written without its leading zero, outside it.
// appendNumberFast writes the short decimals window samples usually are.
func (e *lineEncoder) float(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if e.err == nil {
			e.err = fmt.Errorf("unsupported value: %v", v)
		}
		return
	}
	var ok bool
	if e.b, ok = appendNumberFast(e.b, v); ok {
		return
	}
	if a := math.Abs(v); a != 0 && (a < 1e-6 || a >= 1e21) {
		e.b = strconv.AppendFloat(e.b, v, 'e', -1, 64)
		if n := len(e.b); e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1] // e-07 → e-7
			e.b = e.b[:n-1]
		}
		return
	}
	e.b = strconv.AppendFloat(e.b, v, 'f', -1, 64)
}

// floats appends a float array; nil is null and empty [], as
// encoding/json writes them.
func (e *lineEncoder) floats(vs []float64) {
	if vs == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i, v := range vs {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.float(v)
	}
	e.b = append(e.b, ']')
}

// str appends s quoted under encoding/json's escaping with HTML escaping
// off: '"' and '\\' backslashed, \b \f \n \r \t by name, other control
// bytes as \u00XX, each byte of invalid UTF-8 as \ufffd, and U+2028 and
// U+2029 as \u2028 and \u2029.
func (e *lineEncoder) str(s string) {
	const hex = "0123456789abcdef"
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	e.b = append(b, '"')
}

func (e *lineEncoder) config(c *TenantConfig) {
	e.open()
	e.strField("policy", c.Policy)
	putInt(e, "min_cores", c.MinCores)
	putInt(e, "max_cores", c.MaxCores)
	putIntOmitEmpty(e, "initial_cores", c.InitialCores)
	putIntOmitEmpty(e, "window", c.Window)
	putIntOmitEmpty(e, "horizon", c.Horizon)
	putIntOmitEmpty(e, "season", c.Season)
	putIntOmitEmpty(e, "min_ram_gb", c.MinRAMGB)
	putIntOmitEmpty(e, "max_ram_gb", c.MaxRAMGB)
	putIntOmitEmpty(e, "initial_ram_gb", c.InitialRAMGB)
	putIntOmitEmpty(e, "disk_gb", c.DiskGB)
	putIntOmitEmpty(e, "max_disk_gb", c.MaxDiskGB)
	putIntOmitEmpty(e, "max_replicas", c.MaxReplicas)
	e.close()
}

func (e *lineEncoder) state(st *recommend.State) {
	e.open()
	if len(st.Window) > 0 {
		e.key("window")
		e.floats(st.Window)
	}
	putInt(e, "total", st.Total)
	e.key("memo")
	m := &st.Memo
	e.open()
	e.boolField("Valid", m.Valid)
	putInt(e, "Cores", m.Cores)
	e.key("Window")
	e.floats(m.Window)
	e.key("Decision")
	e.decision(&m.Decision)
	putInt(e, "ExpKind", m.ExpKind)
	e.floatField("ExpPeak", m.ExpPeak)
	putInt(e, "Now", m.Now)
	e.close()
	e.key("last_decision")
	e.decision(&st.LastDecision)
	if st.LastUsedForecast {
		e.boolField("last_used_forecast", true)
	}
	e.close()
}

func (e *lineEncoder) decision(d *core.Decision) {
	e.open()
	e.key("Current")
	e.resources(&d.Current)
	e.key("Target")
	e.resources(&d.Target)
	putInt(e, "Delta", d.Delta)
	e.strField("Branch", string(d.Branch))
	e.floatField("Slope", d.Slope)
	e.floatField("Skew", d.Skew)
	e.floatField("RawSF", d.RawSF)
	e.floatField("Quantile", d.Quantile)
	e.strField("Explanation", d.Explanation)
	e.close()
}

func (e *lineEncoder) resources(r *core.Resources) {
	e.open()
	putInt(e, "CPUCores", r.CPUCores)
	putInt(e, "RAMGB", r.RAMGB)
	putInt(e, "DiskGB", r.DiskGB)
	putInt(e, "Replicas", r.Replicas)
	e.close()
}

func (e *lineEncoder) record(r *DecisionRecord) {
	e.open()
	putInt(e, "seq", r.Seq)
	putInt(e, "minute", r.Minute)
	e.strField("policy", r.Policy)
	putInt(e, "from", r.From)
	putInt(e, "to", r.To)
	e.strOmitEmpty("branch", r.Branch)
	e.floatOmitEmpty("slope", r.Slope)
	e.floatOmitEmpty("skew", r.Skew)
	e.floatOmitEmpty("raw_sf", r.RawSF)
	e.floatOmitEmpty("quantile", r.Quantile)
	e.strOmitEmpty("explanation", r.Explanation)
	putIntOmitEmpty(e, "ram_from", r.RAMFrom)
	putIntOmitEmpty(e, "ram_to", r.RAMTo)
	putIntOmitEmpty(e, "disk_to", r.DiskTo)
	putIntOmitEmpty(e, "replicas", r.Replicas)
	e.close()
}
