// Package serve turns the batch-replay recommenders into a long-running
// recommender-as-a-service: the paper frames CaaSPER as a control plane
// that continuously resizes live customer databases (Figure 1), and this
// is the missing online half — tenants POST metric samples over
// HTTP/NDJSON, decisions stream back with lazily materialised
// explanations, and an admin surface (shaped after the Zerops scaling
// API: per-service min/max resource ranges) retunes ranges and hot-swaps
// policies without a restart.
//
// The state model is a sharded in-memory tenant map: tenants hash to one
// of a fixed number of shards, each shard owns a mutex guarding map
// membership plus a bounded ingest queue drained by one worker
// goroutine, and each tenant carries its own lock for its mutable state. A tenant reuses
// the same machinery the replay engines do — a window.Ring observation
// window and a core.Scratch decision memo inside the recommend adapters —
// so a serve decision is bit-identical to the decision the simulator
// would have made on the same sample stream.
//
// Durability is a versioned NDJSON checkpoint (Server.Snapshot): ring
// windows, totals and scratch memos serialise through
// recommend.StateSnapshotter, and a server restarted from its checkpoint
// resumes mid-window with bit-identical subsequent decisions — the
// round-trip equality test in snapshot_test.go pins that contract.
package serve

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"sync"
	"time"

	"caasper/internal/core"
	"caasper/internal/errs"
	"caasper/internal/obs"
	"caasper/internal/recommend"
)

// Options configures a Server. The zero value serves with the defaults
// below.
type Options struct {
	// Shards is the tenant-map shard count (default 16). More shards
	// mean more ingest parallelism and finer-grained locking.
	Shards int
	// QueueDepth bounds each shard's pending ingest batches; a full
	// queue answers 429 with Retry-After (default 256).
	QueueDepth int
	// DecisionEveryMinutes is the decision cadence in samples: a tenant
	// decides after every DecisionEveryMinutes-th sample (default 10,
	// the paper's five-to-ten-minute decision interval).
	DecisionEveryMinutes int
	// DecisionLogSize bounds the per-tenant decision ring served by the
	// decision stream (default 512).
	DecisionLogSize int
	// SnapshotPath, when set, is where Close and the snapshot endpoint
	// checkpoint the tenant state.
	SnapshotPath string
	// Events, when enabled, receives the decision-audit stream
	// ("core.decision" via each tenant's scratch) plus "serve.span"
	// request spans. Concurrent shard workers share it through an
	// internal lock.
	Events obs.Sink
	// Metrics, when non-nil, receives the serve.* counters and latency
	// histograms (also served at GET /metrics).
	Metrics *obs.Registry
	// Log is the server's logger (default: quiet stderr logger).
	Log *obs.Logger
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Shards <= 0 {
		out.Shards = 16
	}
	if out.QueueDepth <= 0 {
		out.QueueDepth = 256
	}
	if out.DecisionEveryMinutes <= 0 {
		out.DecisionEveryMinutes = 10
	}
	if out.DecisionLogSize <= 0 {
		out.DecisionLogSize = 512
	}
	if out.Events == nil {
		out.Events = obs.Discard
	}
	if out.Log == nil {
		out.Log = obs.NewLogger(nil, 0)
	}
	return out
}

// TenantConfig is a tenant's registration body: which policy decides for
// it and over which core range. Mirroring the Zerops scaling-API shape,
// the min/max range is the admin-tunable contract and the autoscaler
// moves freely inside it.
type TenantConfig struct {
	// Policy is the recommender name (recommend.Names).
	Policy string `json:"policy"`
	// MinCores / MaxCores bound the allocation (1 ≤ Min ≤ Max).
	MinCores int `json:"min_cores"`
	MaxCores int `json:"max_cores"`
	// InitialCores is the starting allocation (default MinCores).
	InitialCores int `json:"initial_cores,omitempty"`
	// Window / Horizon / Season tune the CaaSPER policies (defaults 40 /
	// 60 / 1440, as everywhere else).
	Window  int `json:"window,omitempty"`
	Horizon int `json:"horizon,omitempty"`
	Season  int `json:"season,omitempty"`

	// Multi-resource bounds (all omitted for CPU-only tenants, keeping
	// their JSON — and the v1 snapshot shape — byte-identical).

	// MinRAMGB / MaxRAMGB bound the RAM grant in GB; a non-zero
	// MaxRAMGB enables RAM scaling under the dual-threshold policy.
	MinRAMGB int `json:"min_ram_gb,omitempty"`
	MaxRAMGB int `json:"max_ram_gb,omitempty"`
	// InitialRAMGB is the starting grant (default MinRAMGB).
	InitialRAMGB int `json:"initial_ram_gb,omitempty"`
	// DiskGB is the initial volume size in GB; a non-zero value enables
	// grow-only volume sizing, bounded by MaxDiskGB (0 = unbounded).
	DiskGB    int `json:"disk_gb,omitempty"`
	MaxDiskGB int `json:"max_disk_gb,omitempty"`
	// MaxReplicas enables horizontal overflow for stateless tiers: a
	// replica is recommended when the CPU target pins at MaxCores under
	// high observed usage (0 = vertical only).
	MaxReplicas int `json:"max_replicas,omitempty"`
}

// multi reports whether the tenant manages any non-CPU dimension.
func (c *TenantConfig) multi() bool {
	return c.MaxRAMGB > 0 || c.DiskGB > 0 || c.MaxReplicas > 0
}

func (c *TenantConfig) normalize() error {
	if c.Policy == "" {
		c.Policy = "caasper"
	}
	if c.MinCores <= 0 {
		c.MinCores = 1
	}
	if c.MaxCores <= 0 {
		return fmt.Errorf("serve: max_cores is required: %w", errs.ErrInvalidConfig)
	}
	if c.MinCores > c.MaxCores {
		return fmt.Errorf("serve: min_cores %d > max_cores %d: %w", c.MinCores, c.MaxCores, errs.ErrInvalidConfig)
	}
	if c.InitialCores == 0 {
		c.InitialCores = c.MinCores
	}
	if c.InitialCores < c.MinCores || c.InitialCores > c.MaxCores {
		return fmt.Errorf("serve: initial_cores %d outside [%d, %d]: %w",
			c.InitialCores, c.MinCores, c.MaxCores, errs.ErrInvalidConfig)
	}
	if c.MaxRAMGB > 0 {
		if c.MinRAMGB <= 0 {
			c.MinRAMGB = 1
		}
		if c.MinRAMGB > c.MaxRAMGB {
			return fmt.Errorf("serve: min_ram_gb %d > max_ram_gb %d: %w", c.MinRAMGB, c.MaxRAMGB, errs.ErrInvalidConfig)
		}
		if c.InitialRAMGB == 0 {
			c.InitialRAMGB = c.MinRAMGB
		}
		if c.InitialRAMGB < c.MinRAMGB || c.InitialRAMGB > c.MaxRAMGB {
			return fmt.Errorf("serve: initial_ram_gb %d outside [%d, %d]: %w",
				c.InitialRAMGB, c.MinRAMGB, c.MaxRAMGB, errs.ErrInvalidConfig)
		}
	} else if c.MinRAMGB > 0 || c.InitialRAMGB > 0 {
		return fmt.Errorf("serve: RAM bounds need max_ram_gb: %w", errs.ErrInvalidConfig)
	}
	if c.DiskGB < 0 || c.MaxDiskGB < 0 {
		return fmt.Errorf("serve: negative disk bounds: %w", errs.ErrInvalidConfig)
	}
	if c.MaxDiskGB > 0 {
		if c.DiskGB == 0 {
			return fmt.Errorf("serve: max_disk_gb needs disk_gb: %w", errs.ErrInvalidConfig)
		}
		if c.DiskGB > c.MaxDiskGB {
			return fmt.Errorf("serve: disk_gb %d > max_disk_gb %d: %w", c.DiskGB, c.MaxDiskGB, errs.ErrInvalidConfig)
		}
	}
	if c.MaxReplicas < 0 {
		return fmt.Errorf("serve: negative max_replicas: %w", errs.ErrInvalidConfig)
	}
	return nil
}

// limits maps the tenant config onto the bounds of the shared vector
// rule. Disk has no floor (volumes only grow from DiskGB) and MaxDiskGB 0
// leaves it unbounded; replicas keep at least one pod.
func (c *TenantConfig) limits() core.Limits {
	return core.Limits{
		Min: core.Resources{CPUCores: c.MinCores, RAMGB: c.MinRAMGB, Replicas: 1},
		Max: core.Resources{CPUCores: c.MaxCores, RAMGB: c.MaxRAMGB, DiskGB: c.MaxDiskGB, Replicas: c.MaxReplicas},
	}
}

// settings maps the tenant config onto the shared constructor knobs. A
// range retune may leave InitialCores above MaxCores; the control
// policy's allocation is capped there, as every decision is clamped to
// the range anyway.
func (c *TenantConfig) settings() recommend.Settings {
	return recommend.Settings{
		MaxCores:     c.MaxCores,
		Window:       c.Window,
		Horizon:      c.Horizon,
		Season:       c.Season,
		ControlCores: min(c.InitialCores, c.MaxCores),
	}
}

// DecisionRecord is one decision as served by the decision stream. Field
// order is the NDJSON golden contract of scripts/serve.sh — append, never
// reorder. Explanation is only materialised (from the numeric fields)
// when the stream is asked for it.
type DecisionRecord struct {
	// Seq numbers the tenant's decisions from 1, monotone across
	// restarts (it is part of the snapshot).
	Seq int64 `json:"seq"`
	// Minute is the sample index the decision was made at.
	Minute int `json:"minute"`
	// Policy is the deciding recommender's name.
	Policy string `json:"policy"`
	// From / To are the allocation before and after (To is clamped to
	// the tenant's range).
	From int `json:"from"`
	To   int `json:"to"`
	// Branch, Slope, Skew, RawSF and Quantile carry the Algorithm 1
	// intermediate state when the policy exposes it
	// (recommend.DecisionReporter); baselines leave them zero.
	Branch   string  `json:"branch,omitempty"`
	Slope    float64 `json:"slope,omitempty"`
	Skew     float64 `json:"skew,omitempty"`
	RawSF    float64 `json:"raw_sf,omitempty"`
	Quantile float64 `json:"quantile,omitempty"`
	// Explanation is the lazily materialised prose (explain=1 only).
	Explanation string `json:"explanation,omitempty"`
	// RAMFrom/RAMTo, DiskTo and Replicas carry the non-CPU moves of a
	// multi-resource tenant. Appended after v1's fields and omitted for
	// CPU-only tenants, so their stream stays byte-identical.
	RAMFrom  int `json:"ram_from,omitempty"`
	RAMTo    int `json:"ram_to,omitempty"`
	DiskTo   int `json:"disk_to,omitempty"`
	Replicas int `json:"replicas,omitempty"`
}

// sample is one parsed metric sample. RAM and disk readings are optional
// (absent for CPU-only tenants) and only consulted when the tenant's
// config manages the dimension.
type sample struct {
	CPU    float64 `json:"cpu"`
	RAMGB  float64 `json:"ram_gb,omitempty"`
	DiskGB float64 `json:"disk_gb,omitempty"`
}

// batch is one enqueued ingest unit: samples for one tenant, stamped at
// enqueue time so the decision latency includes queueing. box, when
// non-nil, is the pooled backing the samples were parsed into; the drain
// worker returns it to samplesPool once apply is done with it.
type batch struct {
	t       *tenantState
	samples []sample
	box     *[]sample
	enq     time.Time
}

// Ingest scratch pools. A sample batch lives from the HTTP handler
// (parse) through the shard queue until apply() finishes with it, so
// both the scanner buffer and the parsed-samples slice can be recycled
// across requests instead of being reallocated per POST — a steady
// ingest stream then costs O(1) buffer allocations, not 64 KiB plus a
// grown slice each batch. The slices are boxed (*[]T) so a Put never
// allocates a fresh interface header for the slice value.
var (
	scanBufPool = sync.Pool{New: func() any { b := make([]byte, 64<<10); return &b }}
	samplesPool = sync.Pool{New: func() any { return new([]sample) }}
)

// tenantState is one tenant's live state. The shard mutex guards only
// map membership; every field below mu is guarded by mu itself, so a
// status read on one tenant never stalls behind a shard-mate's bulk
// apply. Lock order is always shard.mu → tenantState.mu, never the
// reverse.
type tenantState struct {
	id string

	mu  sync.Mutex
	cfg TenantConfig
	rec recommend.Recommender
	// cores is the current allocation (decisions move it inside
	// [MinCores, MaxCores]).
	cores int
	// minute counts samples observed — the tenant's logical clock.
	minute int
	// seq counts decisions made.
	seq int64
	// log is the bounded decision ring.
	log decisionLog

	// Multi-resource state, all zero for CPU-only tenants. ramGB/diskGB/
	// replicas are the current grants; the peaks accumulate between
	// decisions and reset at each tick.
	ramGB    int
	diskGB   int
	replicas int
	ramPeak  float64
	diskHigh float64
	cpuPeak  float64
}

// shard is one lock domain of the tenant map plus its ingest lane. Its
// mutex guards only the map — tenant state has its own lock — so map
// lookups stay O(1) even while the shard worker is deep in a bulk apply.
type shard struct {
	mu      sync.Mutex
	tenants map[string]*tenantState
	queue   chan batch
	wg      sync.WaitGroup
}

// Server is the recommender service. Create with New, expose via
// Handler, stop with Close.
type Server struct {
	opts   Options
	shards []*shard
	events *lockedSink
	met    serveMetrics
	mux    *http.ServeMux
	start  time.Time

	closeOnce sync.Once
	closeErr  error
}

// New builds a Server and starts its shard workers.
func New(opts Options) (*Server, error) {
	o := opts.withDefaults()
	s := &Server{
		opts:   o,
		shards: make([]*shard, o.Shards),
		events: &lockedSink{sink: o.Events},
		met:    newServeMetrics(o.Metrics),
		start:  time.Now(),
	}
	for i := range s.shards {
		sh := &shard{
			tenants: make(map[string]*tenantState),
			queue:   make(chan batch, o.QueueDepth),
		}
		sh.wg.Add(1)
		go s.drain(sh)
		s.shards[i] = sh
	}
	s.mux = s.routes()
	if o.SnapshotPath != "" {
		if err := s.restoreIfPresent(o.SnapshotPath); err != nil {
			s.Drain() // stop the shard workers of the server never returned
			return nil, err
		}
	}
	return s, nil
}

// serveMetrics holds the serve.* instruments, resolved from the registry
// once in New so that no request or decision takes the registry lock.
// With no registry every instrument is nil, and nil instruments are
// no-ops.
type serveMetrics struct {
	samples, decisions, batches, rejected, requests *obs.Counter
	// restoreLines counts restored tenant lines, restoreFallbacks those
	// json.Unmarshal decoded rather than decodeTenantLine.
	restoreLines, restoreFallbacks  *obs.Counter
	decisionLatency, requestLatency *obs.Histogram
}

func newServeMetrics(r *obs.Registry) serveMetrics {
	return serveMetrics{
		samples:          r.Counter("serve.samples"),
		decisions:        r.Counter("serve.decisions"),
		batches:          r.Counter("serve.batches"),
		rejected:         r.Counter("serve.rejected"),
		requests:         r.Counter("serve.requests"),
		restoreLines:     r.Counter("serve.restore_lines"),
		restoreFallbacks: r.Counter("serve.restore_fallback_lines"),
		decisionLatency:  r.Histogram("serve.decision_latency"),
		requestLatency:   r.Histogram("serve.request_latency"),
	}
}

// shardFor hashes a tenant ID onto its shard.
func (s *Server) shardFor(id string) *shard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return s.shards[int(h.Sum32())%len(s.shards)]
}

// drain is one shard's ingest worker: it applies queued batches until
// the queue closes.
func (s *Server) drain(sh *shard) {
	defer sh.wg.Done()
	for b := range sh.queue {
		s.apply(b)
		if b.box != nil {
			*b.box = b.samples[:0]
			samplesPool.Put(b.box)
		}
	}
}

// apply observes one batch's samples and fires any due decisions, under
// the tenant's own lock.
func (s *Server) apply(b batch) {
	t := b.t
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, smp := range b.samples {
		t.rec.Observe(t.minute, smp.CPU)
		if t.cfg.multi() {
			if smp.CPU > t.cpuPeak {
				t.cpuPeak = smp.CPU
			}
			if smp.RAMGB > t.ramPeak {
				t.ramPeak = smp.RAMGB
			}
			if smp.DiskGB > t.diskHigh {
				t.diskHigh = smp.DiskGB
			}
		}
		t.minute++
		if t.minute%s.opts.DecisionEveryMinutes == 0 {
			s.decide(t, b.enq)
		}
	}
	s.met.samples.Add(int64(len(b.samples)))
}

// decide runs the tenant's policy once and appends the decision record.
// The recommender's CPU target goes through the shared vector rule
// (recommend.NextResources) with the CPU-only tenant as the vector whose
// other dimensions are unmanaged. Samples are per pod, so the replica
// set's peak total CPU is the per-pod peak times the serving replicas.
// Caller holds the tenant lock.
func (s *Server) decide(t *tenantState, enq time.Time) {
	cur := core.Resources{CPUCores: t.cores, RAMGB: t.ramGB, DiskGB: t.diskGB, Replicas: t.replicas}
	peak := recommend.WindowPeaks{RAMGB: t.ramPeak, DiskGB: t.diskHigh, TotalCPU: t.cpuPeak * float64(t.replicas)}
	next := recommend.NextResources(t.rec.Recommend(t.cores), cur, peak, t.cfg.limits(), t.cfg.MaxReplicas > 0)
	t.seq++
	rec := DecisionRecord{
		Seq:    t.seq,
		Minute: t.minute - 1,
		Policy: t.cfg.Policy,
		From:   cur.CPUCores,
		To:     next.CPUCores,
	}
	if dr, ok := t.rec.(recommend.DecisionReporter); ok {
		d := dr.LastFullDecision()
		rec.Branch = string(d.Branch)
		rec.Slope = d.Slope
		rec.Skew = d.Skew
		rec.RawSF = d.RawSF
		rec.Quantile = d.Quantile
	}
	if next.RAMGB != cur.RAMGB {
		rec.RAMFrom, rec.RAMTo = cur.RAMGB, next.RAMGB
	}
	if next.DiskGB != cur.DiskGB {
		rec.DiskTo = next.DiskGB
	}
	if next.Replicas != cur.Replicas {
		rec.Replicas = next.Replicas
	}
	t.cores, t.ramGB, t.diskGB, t.replicas = next.CPUCores, next.RAMGB, next.DiskGB, next.Replicas
	t.ramPeak, t.diskHigh, t.cpuPeak = 0, 0, 0
	t.log.add(rec, s.opts.DecisionLogSize)
	s.met.decisions.Inc()
	if !enq.IsZero() {
		s.met.decisionLatency.ObserveSince(enq)
	}
}

// newTenant constructs a tenant from its config (the recommender wired
// to the server's audit sink when one is attached).
func (s *Server) newTenant(id string, cfg TenantConfig) (*tenantState, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	rec, err := recommend.NewByName(cfg.Policy, cfg.settings())
	if err != nil {
		return nil, err
	}
	if in, ok := rec.(recommend.Instrumentable); ok && obs.Enabled(s.events.sink) {
		in.SetEventSink(s.events)
	}
	t := &tenantState{id: id, cfg: cfg, rec: rec, cores: cfg.InitialCores}
	t.ramGB = cfg.InitialRAMGB
	t.diskGB = cfg.DiskGB
	if cfg.MaxReplicas > 0 {
		t.replicas = 1
	}
	return t, nil
}

// Handler returns the server's HTTP handler (see routes in handlers.go).
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops the ingest lanes and waits until every queued batch has
// been applied. The HTTP handler must no longer receive ingest traffic
// (callers shut the http.Server down first).
func (s *Server) Drain() {
	for _, sh := range s.shards {
		close(sh.queue)
	}
	for _, sh := range s.shards {
		sh.wg.Wait()
	}
}

// Close drains the shards and, when a snapshot path is configured,
// checkpoints the final state. Idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.Drain()
		if s.opts.SnapshotPath != "" {
			s.closeErr = s.Snapshot(s.opts.SnapshotPath)
		}
	})
	return s.closeErr
}

// tenantIDs returns every tenant ID, sorted — the stable iteration order
// of the admin list and the snapshot.
func (s *Server) tenantIDs() []string {
	var ids []string
	for _, sh := range s.shards {
		sh.mu.Lock()
		for id := range sh.tenants {
			ids = append(ids, id)
		}
		sh.mu.Unlock()
	}
	sort.Strings(ids)
	return ids
}

// lockedSink serialises concurrent shard workers onto one event sink
// (the NDJSON sink's buffered writer is single-writer).
type lockedSink struct {
	mu   sync.Mutex
	sink obs.Sink
}

func (l *lockedSink) Enabled() bool { return obs.Enabled(l.sink) }

func (l *lockedSink) Emit(e obs.Event) {
	l.mu.Lock()
	l.sink.Emit(e)
	l.mu.Unlock()
}

func (l *lockedSink) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sink.Flush()
}

// explain materialises the prose for a decision record from its stored
// numeric fields — the serve-side lazy analogue of core.Scratch's
// deferred explanation: nothing is formatted until a stream asks with
// explain=1.
func explain(r DecisionRecord) string {
	switch core.Branch(r.Branch) {
	case core.BranchScaleUp:
		return fmt.Sprintf("scale-up: slope %.2f steep or head-room thin (P-quantile %.2f of %d cores); SF %.2f → +%d cores",
			r.Slope, r.Quantile, r.From, r.RawSF, r.To-r.From)
	case core.BranchScaleDown:
		return fmt.Sprintf("scale-down: slope %.2f flat or idle share large (P-quantile %.2f); SF %.2f → -%d cores",
			r.Slope, r.Quantile, r.RawSF, r.From-r.To)
	case core.BranchWalkDown:
		return fmt.Sprintf("walk-down: flat PvP tail at %d cores; cheapest SKU meeting the performance target is %d cores",
			r.From, r.To)
	case core.BranchHold:
		return fmt.Sprintf("hold: slope %.2f and P-quantile %.2f within thresholds at %d cores",
			r.Slope, r.Quantile, r.From)
	}
	if r.To == r.From {
		return fmt.Sprintf("%s holds %d cores", r.Policy, r.From)
	}
	return fmt.Sprintf("%s moves %d → %d cores", r.Policy, r.From, r.To)
}
