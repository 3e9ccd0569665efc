package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand/v2"
	"time"

	"caasper"
)

// fleetInput is one fleet workload's generated inputs. The cluster is
// rebuilt for every replay, because a replay binds pods to it.
type fleetInput struct {
	name    string
	specs   []caasper.TenantSpec
	minutes int
	nodeCPU float64
	billing time.Duration
	engine  string
	events  bool // stream events into an NDJSON sink
}

func (in *fleetInput) tenantMinutes() float64 { return float64(len(in.specs)) * float64(in.minutes) }

// options returns fresh run options. The public API offers only the
// 6-node paper clusters, so capacity is set through each node's exported
// Allocatable field.
func (in *fleetInput) options(workers int) caasper.FleetOptions {
	c := caasper.LargeCluster()
	for _, n := range c.Nodes() {
		n.Allocatable.CPUCores = in.nodeCPU
		n.Allocatable.MemoryGiB = 1e9
	}
	o := caasper.DefaultFleetOptions()
	o.Cluster = c
	o.Minutes = in.minutes
	o.Workers = workers
	o.Engine = in.engine
	if in.billing > 0 {
		o.BillingPeriod = in.billing
	}
	return o
}

// plateauInput builds fleet-month-plateau: 24 shared piecewise-constant
// day traces — a 9-hour busy plateau over a quiet baseline, the shape of
// bench_test.go's benchMonthSpecs. The seed draws each trace's levels and
// phase from the same discrete sets that shape uses (plateau edges one
// minute after a decision tick), so every seed stays in the regime where
// each plateau has a fixed-point limit and tenants sleep between edges.
func plateauInput(seed uint64, s Sizes) *fleetInput {
	rng := rand.New(rand.NewPCG(seed, 0x706c6174))
	const variants = 24
	traces := make([]*caasper.Trace, variants)
	for v := range traces {
		low := 0.5 + 0.05*float64(rng.IntN(8))
		high := 2.2 + 0.06*float64(rng.IntN(8))
		start := 1 + 10*rng.IntN(144)
		vals := make([]float64, s.PlateauMinutes)
		for m := range vals {
			mm := m % 1440
			if mm-start >= 0 && mm-start < 540 || mm+1440-start < 540 {
				vals[m] = high
			} else {
				vals[m] = low
			}
		}
		traces[v] = caasper.NewTrace(fmt.Sprintf("plateau-%02d", v), time.Minute, vals)
	}
	specs := make([]caasper.TenantSpec, s.PlateauTenants)
	for i := range specs {
		specs[i] = caasper.TenantSpec{
			Name:  fmt.Sprintf("t%05d", i),
			Trace: traces[i%variants],
			NewRecommender: func() (caasper.Recommender, error) {
				return caasper.NewReactive(caasper.DefaultConfig(4), 20)
			},
			InitialCores: 1,
			MinCores:     1,
			MaxCores:     4,
			Replicas:     1,
			MemGiBPerPod: 1,
		}
	}
	return &fleetInput{name: FleetMonthPlateau, specs: specs, minutes: s.PlateauMinutes,
		nodeCPU: 1e9, billing: 24 * time.Hour, engine: caasper.FleetEngineEvents}
}

// mixedFamilies are the noisy trace generators fleet-week-mixed cycles
// through.
var mixedFamilies = []string{"workday12h", "cyclical3d", "step62h", "customer"}

// mixedInput builds fleet-week-mixed: one noisy trace per tenant (tenant
// i uses seed+i), a quarter of the tenants managing RAM and disk, and a
// cluster holding 60% of the summed MaxCores so arbitration defers.
func mixedInput(seed uint64, s Sizes) *fleetInput {
	specs := make([]caasper.TenantSpec, s.MixedTenants)
	sumMax := 0
	for i := range specs {
		base := caasper.Workloads[mixedFamilies[i%len(mixedFamilies)]](seed + uint64(i))
		vals := make([]float64, s.MixedMinutes)
		for m := range vals {
			vals[m] = base.Values[m%len(base.Values)]
		}
		maxc := 8 + 4*(i%3)
		sumMax += maxc
		spec := caasper.TenantSpec{
			Name:  fmt.Sprintf("t%04d", i),
			Trace: caasper.NewTrace(base.Name, time.Minute, vals),
			NewRecommender: func() (caasper.Recommender, error) {
				return caasper.NewReactive(caasper.DefaultConfig(maxc), 40)
			},
			Replicas:     1,
			MemGiBPerPod: 1,
		}
		if (i/len(mixedFamilies))%4 == 3 {
			rr := caasper.ResourceRange{Initial: caasper.Resources{CPUCores: 2, RAMGB: 4, DiskGB: 5}}
			rr.Min = caasper.Resources{CPUCores: 1, RAMGB: 4, DiskGB: 5}
			rr.Max = caasper.Resources{CPUCores: maxc, RAMGB: 16, DiskGB: 40}
			spec.Resources = rr
		} else {
			spec.InitialCores, spec.MinCores, spec.MaxCores = 2, 1, maxc
		}
		specs[i] = spec
	}
	return &fleetInput{name: FleetWeekMixed, specs: specs, minutes: s.MixedMinutes,
		nodeCPU: 0.6 * float64(sumMax) / 6, events: true}
}

// countingWriter discards what it is given, counting the bytes and,
// when h is set, hashing them.
type countingWriter struct {
	n int64
	h hash.Hash
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	if w.h != nil {
		w.h.Write(p)
	}
	return len(p), nil
}

type replayOut struct {
	res    *caasper.FleetResult
	digest string
	wall   time.Duration
	bytes  int64
	stream string // event-stream digest, when hashed
}

// replay runs the fleet once. With rs set, every recommender sits behind
// the timing wrapper and the event sink behind a timed Emit.
func (in *fleetInput) replay(workers int, tr *Tracer, rs *recSpans, hashStream bool) (replayOut, error) {
	specs := in.specs
	if rs != nil {
		specs = make([]caasper.TenantSpec, len(in.specs))
		copy(specs, in.specs)
		for i := range specs {
			inner := in.specs[i].NewRecommender
			specs[i].NewRecommender = func() (caasper.Recommender, error) {
				rec, err := inner()
				if err != nil {
					return nil, err
				}
				return wrapRecommender(rec, rs)
			}
		}
	}
	opts := in.options(workers)
	var (
		cw   *countingWriter
		sink *caasper.NDJSONSink
	)
	if in.events {
		cw = &countingWriter{}
		if hashStream {
			cw.h = sha256.New()
		}
		sink = caasper.NewNDJSONSink(cw)
		opts.Events = sink
		if tr != nil {
			opts.Events = timedSink{inner: sink, emit: tr.Hist("obs.emit")}
		}
	}
	t0 := time.Now()
	res, err := caasper.RunFleet(specs, opts)
	if err == nil && sink != nil {
		err = sink.Flush()
	}
	out := replayOut{wall: time.Since(t0)}
	if err != nil {
		return out, fmt.Errorf("bench: %s replay: %w", in.name, err)
	}
	out.res, out.digest = res, fleetDigest(res)
	if cw != nil {
		out.bytes = cw.n
		if cw.h != nil {
			out.stream = hex.EncodeToString(cw.h.Sum(nil))
		}
	}
	return out, nil
}

// fleetLoop replays until the measured window has passed, checking that
// every replay reproduces the first one's result and stream size.
func (r *runner) fleetLoop(in *fleetInput, workers int, tr *Tracer, rs *recSpans) ([]replayOut, error) {
	var outs []replayOut
	start := time.Now()
	for len(outs) == 0 || time.Since(start) < r.window() {
		out, err := in.replay(workers, tr, rs, false)
		r.op(err == nil)
		if err != nil {
			return nil, err
		}
		r.unitDone()
		if len(outs) > 0 {
			r.check(out.digest == outs[0].digest, "replay %d result digest differs from replay 0", len(outs))
			r.check(out.bytes == outs[0].bytes, "replay %d event stream is %d bytes, replay 0 was %d", len(outs), out.bytes, outs[0].bytes)
			out.res = nil // only the first result is kept, for verification
		}
		outs = append(outs, out)
	}
	r.logf("%d replays, median %.3fs", len(outs), medianSeconds(walls(outs)))
	return outs, nil
}

func walls(outs []replayOut) []time.Duration {
	ws := make([]time.Duration, len(outs))
	for i, o := range outs {
		ws[i] = o.wall
	}
	return ws
}

// runFleet is the shared body of the two fleet workloads: the untraced
// pass (end-to-end metrics) or, in a traced run, an untraced and a traced
// pass at Workers 1, then the workload's own verification.
func runFleet(r *runner, build func() *fleetInput, verify func(r *runner, in *fleetInput, ref replayOut) error) error {
	in, _, err := timeSetup(r, func() (*fleetInput, func(), error) { return build(), func() {}, nil })
	if err != nil {
		return err
	}
	if !r.o.Trace {
		r.startHeap()
		outs, err := r.fleetLoop(in, 0, nil, nil)
		peak := r.stopHeap()
		if err != nil {
			return err
		}
		wall := medianSeconds(walls(outs))
		r.set("heap_peak_mb", peak)
		r.set("tenant_minutes_per_s", in.tenantMinutes()/wall)
		r.set("latency_p50_ms", wall*1e3)
		r.digests["result"] = outs[0].digest
		return verify(r, in, outs[0])
	}

	// Traced runs use one worker on both passes, so span self-times add
	// up to the wall time and the overhead compares like with like.
	m0 := readMem()
	base, err := r.fleetLoop(in, 1, nil, nil)
	if err != nil {
		return err
	}
	r.memDelta(m0, readMem())
	tr := NewTracer()
	rs := newRecSpans(tr)
	traced, err := r.fleetLoop(in, 1, tr, rs)
	if err != nil {
		return err
	}
	r.check(traced[0].digest == base[0].digest, "traced result digest %s differs from untraced %s", traced[0].digest, base[0].digest)
	r.check(traced[0].bytes == base[0].bytes, "traced event stream is %d bytes, untraced %d", traced[0].bytes, base[0].bytes)
	r.set("bench.trace_overhead_frac", medianSeconds(walls(traced))/medianSeconds(walls(base))-1)
	r.fleetLayers(in, tr, traced)
	r.digests["result"] = base[0].digest
	if r.o.TraceFile != "" {
		if err := tr.WriteFile(r.o.TraceFile); err != nil {
			return err
		}
	}
	return verify(r, in, base[0])
}

// fleetLayers derives the recommend, obs and fleet per-layer metrics from
// a traced pass, normalised per replay so counts repeat exactly.
func (r *runner) fleetLayers(in *fleetInput, tr *Tracer, traced []replayOut) {
	n := float64(len(traced))
	var wall time.Duration
	for _, o := range traced {
		wall += o.wall
	}
	obsv, run, steady, decide := tr.Hist("recommend.observe"), tr.Hist("recommend.observe_run"), tr.Hist("recommend.steady"), tr.Hist("recommend.decide")
	emit := tr.Hist("obs.emit")
	runMinutes := float64(tr.Counter("recommend.observe_run_minutes").Load())
	r.set("recommend.observe_calls", float64(obsv.Count())/n)
	r.set("recommend.observe_run_calls", float64(run.Count())/n)
	r.set("recommend.observe_run_minutes", runMinutes/n)
	r.set("recommend.bulk_minute_frac", runMinutes/n/in.tenantMinutes())
	r.set("recommend.observe_s", (obsv.Seconds()+run.Seconds())/n)
	r.set("recommend.steady_checks", float64(steady.Count())/n)
	r.set("recommend.steady_true_frac", ratio(float64(tr.Counter("recommend.steady_true").Load()), float64(steady.Count())))
	r.set("recommend.steady_s", steady.Seconds()/n)
	r.set("recommend.decide_calls", float64(decide.Count())/n)
	r.set("recommend.decide_s", decide.Seconds()/n)
	r.set("recommend.decide_us_p50", decide.Quantile(0.5)/1e3)
	r.set("recommend.decide_us_p99", decide.Quantile(0.99)/1e3)
	r.set("recommend.change_frac", ratio(float64(tr.Counter("recommend.changes").Load()), float64(decide.Count())))
	r.set("obs.events", float64(emit.Count())/n)
	r.set("obs.ndjson_bytes", float64(traced[0].bytes))
	r.set("obs.emit_s", emit.Seconds()/n)
	// The layer times are scaled up from sampled calls, less the clock's
	// share (spans.go), and the engine's self time is what remains of the
	// traced wall. What makes that split trustworthy is that timing barely
	// slows the replay: bench.trace_overhead_frac compares the traced wall
	// with the untraced one at the same worker count.
	wallS := wall.Seconds() / n
	layers := (obsv.Seconds() + run.Seconds() + steady.Seconds() + decide.Seconds() + emit.Seconds()) / n
	r.set("fleet.wall_s", wallS)
	r.set("fleet.engine_self_s", wallS-layers)
	r.check(layers <= wallS, "per-layer span time %.3fs exceeds the traced wall %.3fs", layers, wallS)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fleetCounts reports the exact FleetResult counts every fleet run
// shares, and the billing invariant: the fleet total is the in-order sum
// of the tenant bills.
func (r *runner) fleetCounts(res *caasper.FleetResult) {
	if r.o.Trace {
		r.set("fleet.scalings", float64(res.TotalScalings))
		r.set("fleet.deferrals", float64(res.TotalDeferrals))
		r.set("fleet.arbitration_ticks", float64(res.ArbitrationTicks))
	}
	cost, scalings, deferrals := 0.0, 0, 0
	for k := range res.Tenants {
		t := &res.Tenants[k]
		cost += t.BilledCorePeriods
		scalings += t.NumScalings
		deferrals += t.Deferrals
	}
	r.check(cost == res.TotalCost, "TotalCost %v is not the sum of tenant bills %v", res.TotalCost, cost)
	r.check(scalings == res.TotalScalings, "TotalScalings %d is not the tenant sum %d", res.TotalScalings, scalings)
	r.check(deferrals == res.TotalDeferrals, "TotalDeferrals %d is not the tenant sum %d", res.TotalDeferrals, deferrals)
}

// checkGolden compares a digest with the committed one for golden seeds.
func (r *runner) checkGolden(what, got string) error {
	g, err := loadGolden()
	if err != nil {
		return err
	}
	for _, s := range GoldenSeeds {
		if s != r.o.Seed {
			continue
		}
		key := goldenKey(r.o.Workload, r.o.Sizes.Name, s, what)
		want, ok := g[key]
		r.check(ok, "no committed digest %s", key)
		r.check(!ok || want == got, "%s digest %s, committed %s", key, got, want)
	}
	return nil
}

func runPlateau(r *runner) error {
	return runFleet(r, func() *fleetInput { return plateauInput(r.o.Seed, r.o.Sizes) }, verifyPlateau)
}

// verifyPlateau checks the first measured replay: the committed digest
// for golden seeds, exact counts and billing sums, and — since no two
// tenants contend on this cluster — each of a seeded sample of tenants
// replayed alone on the stepped engine must reproduce its fleet row bit
// for bit.
func verifyPlateau(r *runner, in *fleetInput, ref replayOut) error {
	r.fleetCounts(ref.res)
	r.check(ref.res.TotalDeferrals == 0, "uncontended fleet deferred %d scale-ups", ref.res.TotalDeferrals)
	if err := r.checkGolden("result", ref.digest); err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(r.o.Seed, 0x63726f73))
	for k := 0; k < r.o.Sizes.CrossCheckTenants; k++ {
		j := rng.IntN(len(in.specs))
		alone := *in
		alone.specs = in.specs[j : j+1]
		alone.engine = caasper.FleetEngineStepped
		one, err := alone.replay(1, nil, nil, false)
		r.op(err == nil)
		if err != nil {
			return err
		}
		r.check(tenantDigest(&one.res.Tenants[0]) == tenantDigest(&ref.res.Tenants[j]),
			"tenant %s replayed alone on the stepped engine differs from its fleet row", in.specs[j].Name)
	}
	return nil
}

func runMixed(r *runner) error {
	return runFleet(r, func() *fleetInput { return mixedInput(r.o.Seed, r.o.Sizes) }, verifyMixed)
}

// verifyMixed replays once more at the other worker count with the event
// stream hashed: results and stream are byte-identical at every worker
// count, the committed digests must hold for golden seeds, and the
// cluster must actually have been contended.
func verifyMixed(r *runner, in *fleetInput, ref replayOut) error {
	workers := 1
	if r.o.Trace {
		workers = 0
	}
	res, err := in.replay(workers, nil, nil, true)
	r.op(err == nil)
	if err != nil {
		return err
	}
	r.check(res.digest == ref.digest, "result at workers=%d differs from the measured replay", workers)
	r.check(res.bytes == ref.bytes, "event stream at workers=%d is %d bytes, measured %d", workers, res.bytes, ref.bytes)
	r.fleetCounts(res.res)
	r.check(res.res.TotalDeferrals > 0, "contended fleet deferred nothing: the cluster is not contended")
	r.digests["stream"] = res.stream
	if err := r.checkGolden("result", ref.digest); err != nil {
		return err
	}
	return r.checkGolden("stream", res.stream)
}
