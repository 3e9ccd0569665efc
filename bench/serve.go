package bench

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"caasper"
)

// ingestBatch is the samples per serve-ingest POST: six decisions at the
// default 10-sample cadence.
const ingestBatch = 60

// Serve-ingest's sustained-rate rule: a ladder step is sustained when no
// request was refused, post_p99_ms stays within postLimitMs, and the
// backlog did not grow across the step.
const postLimitMs = 20.0

// ingestRig is one serve-ingest server with its loopback front and
// client connections. Tenant i is pinned to connection i % len(conns),
// so its batches arrive in order and accepted[i] is only ever touched by
// that connection's goroutine.
type ingestRig struct {
	tenants  int
	srv      *caasper.Server
	reg      *caasper.MetricsRegistry // traced pass only
	tr       *Tracer                  // traced pass only
	front    *front
	conns    []*conn
	book     *sampleBook
	accepted []int
	ids      atomic.Int64
	// scheduled counts the ladder's POSTs over every round; it picks each
	// job's tenant and whether it polls.
	scheduled int
}

func newIngestRig(seed uint64, tenants int, tr *Tracer) (*ingestRig, func(), error) {
	g := &ingestRig{tenants: tenants, tr: tr, book: newSampleBook(seed, tenants), accepted: make([]int, tenants)}
	if tr != nil {
		g.reg = caasper.NewMetricsRegistry()
	}
	srv, err := caasper.NewServer(caasper.ServeOptions{Metrics: g.reg})
	if err != nil {
		return nil, func() {}, err
	}
	g.srv = srv
	if err := registerTenants(srv.Handler(), tenants); err != nil {
		srv.Close()
		return nil, func() {}, err
	}
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = newTracedHandler(h, tr)
	}
	if g.front, err = startFront(h); err != nil {
		srv.Close()
		return nil, func() {}, err
	}
	for k := 0; k < clientConns(); k++ {
		c, err := dial(g.front.addr)
		if err != nil {
			g.shutdown()
			return nil, func() {}, err
		}
		g.conns = append(g.conns, c)
	}
	return g, func() { g.shutdown() }, nil
}

// shutdown closes the clients and the front, then drains the server. It
// returns the drain time and is safe to call twice.
func (g *ingestRig) shutdown() (time.Duration, error) {
	for _, c := range g.conns {
		c.close()
	}
	g.conns = nil
	var err error
	if g.front != nil {
		err = g.front.close()
		g.front = nil
	}
	t0 := time.Now()
	if cerr := g.srv.Close(); err == nil {
		err = cerr
	}
	return time.Since(t0), err
}

// post sends tenant i's next batch over c and returns the status.
func (g *ingestRig) post(c *conn, buf []byte, i int) (int, []byte, error) {
	buf = g.book.body(buf[:0], i, g.accepted[i]*ingestBatch, ingestBatch)
	id := g.ids.Add(1)
	t0 := time.Now()
	code, _, err := c.do(http.MethodPost, "/v1/tenants/"+tenantID(i)+"/samples", id, buf)
	if g.tr != nil {
		g.tr.Request(RequestSpan{ID: id, Side: "client", Route: http.MethodPost, Start: g.tr.sinceStart(t0), Dur: int64(time.Since(t0)), Status: code})
	}
	if code == http.StatusAccepted {
		g.accepted[i]++
	}
	return code, buf, err
}

// waitVisible polls tenant i's decision stream until its latest decision
// is readable, returning the poll count.
func (g *ingestRig) waitVisible(c *conn, i int) (int, error) {
	seq := int64(g.accepted[i] * ingestBatch / 10)
	deadline := time.Now().Add(10 * time.Second)
	for polls := 1; ; polls++ {
		id := g.ids.Add(1)
		t0 := time.Now()
		ok, err := decisionVisible(c, id, tenantID(i), seq)
		if g.tr != nil {
			g.tr.Request(RequestSpan{ID: id, Side: "client", Route: http.MethodGet, Start: g.tr.sinceStart(t0), Dur: int64(time.Since(t0)), Status: http.StatusOK})
		}
		if err != nil || ok {
			return polls, err
		}
		if time.Now().After(deadline) {
			return polls, fmt.Errorf("bench: decision %d of %s not visible after 10s", seq, tenantID(i))
		}
	}
}

// ingestJob is one scheduled POST of the open-loop ladder; due is its
// offset from the ladder's start.
type ingestJob struct {
	due    time.Duration
	tenant int32
	phase  int16 // index into the ladder's phases; 0 is the warm-up
	poll   bool
}

// stepLog is what one connection saw during one ladder phase over every
// round, in due order: latencies in milliseconds, kept as float32 so a
// long ladder's bookkeeping stays small next to the server's own heap.
type stepLog struct {
	posts   []float32 // due → response
	visible []float32 // due → decision readable
	polls   int
	refused int
	// growing is set when, in some round, the connection's last quarter
	// of POSTs in this phase waited clearly longer than its first quarter.
	growing bool
}

// ladderPhase is a stretch of constant offered load.
type ladderPhase struct {
	rate int // batches/s
	dur  time.Duration
}

// ladderOut is the open-loop ladder's outcome over every round: per
// connection, per phase.
type ladderOut struct {
	steps [][]stepLog // [conn][phase]
	late  *Hist       // how late the scheduler released each job
}

func newLadderOut(conns, phases int) *ladderOut {
	out := &ladderOut{steps: make([][]stepLog, conns), late: &Hist{}}
	for k := range out.steps {
		out.steps[k] = make([]stepLog, phases)
	}
	return out
}

// ladder drives one round of the open-loop schedule, appending to out:
// one scheduler goroutine releases each POST at its due time to its
// tenant's connection goroutine; every 10th POST is followed by polling
// until its last decision is readable (alternating connections).
// Latencies count from the due time, so a stalled server also charges the
// wait it imposes on later requests. It returns once every POST of the
// round has been answered.
func (g *ingestRig) ladder(phases []ladderPhase, out *ladderOut) error {
	nc := len(g.conns)
	jobs := 0
	for _, ph := range phases {
		jobs += int(float64(ph.rate) * ph.dur.Seconds())
	}
	queues := make([]chan ingestJob, nc)
	first := make([][]int, nc) // each phase's first post index this round
	for k := range queues {
		// Sized to every job the connection can get, so the scheduler
		// never blocks on a busy connection: the queue is the client-side
		// backlog an open loop builds when the server falls behind.
		queues[k] = make(chan ingestJob, jobs/nc+1)
		first[k] = make([]int, len(phases))
		for p := range phases {
			first[k][p] = len(out.steps[k][p].posts)
		}
	}
	start := time.Now().Add(20 * time.Millisecond)
	errs := make([]error, nc)
	var wg sync.WaitGroup
	for k := 0; k < nc; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := g.conns[k]
			var buf []byte
			for j := range queues[k] {
				if errs[k] != nil {
					continue // after a transport error, drain the queue
				}
				due := start.Add(j.due)
				code, b, err := g.post(c, buf, int(j.tenant))
				buf = b
				l := &out.steps[k][j.phase]
				if err != nil || code != http.StatusAccepted {
					l.refused++
					errs[k] = err
					continue
				}
				l.posts = append(l.posts, float32(time.Since(due))/1e6)
				if j.poll {
					var polls int
					polls, errs[k] = g.waitVisible(c, int(j.tenant))
					l.visible = append(l.visible, float32(time.Since(due))/1e6)
					l.polls += polls
				}
			}
		}(k)
	}
	var at time.Duration
	for p, ph := range phases {
		gap := time.Second / time.Duration(ph.rate)
		for k := 0; k < int(float64(ph.rate)*ph.dur.Seconds()); k++ {
			n := g.scheduled
			j := ingestJob{due: at, tenant: int32(n % g.tenants), phase: int16(p), poll: n%10 == (n/10)%2}
			at += gap
			due := start.Add(j.due)
			if wait := time.Until(due); wait > 100*time.Microsecond {
				time.Sleep(wait)
			}
			out.late.Observe(max(0, time.Since(due)))
			queues[int(j.tenant)%nc] <- j
			g.scheduled++
		}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	// The backlog grew when a connection's last quarter of POSTs in a
	// phase waited clearly longer than its first quarter did.
	for k := range out.steps {
		for p := range phases {
			l := &out.steps[k][p]
			posts := l.posts[first[k][p]:]
			if q := len(posts) / 4; q > 0 {
				head := quantile(f64s(posts[:q]), 0.5)
				tail := quantile(f64s(posts[len(posts)-q:]), 0.5)
				l.growing = l.growing || tail > 2*head+1
			}
		}
	}
	return nil
}

// satSlice is the closed loop's longest sampling period (an eighth of
// the loop when that is shorter): throughput is the median over slices,
// so a stall of the machine moves one slice, not the whole measurement.
const satSlice = 250 * time.Millisecond

// saturate runs the closed loop: every connection posts back to back for
// d. It returns the samples accepted per second in each slice and the
// refused POSTs.
func (g *ingestRig) saturate(d time.Duration) ([]float64, int64, error) {
	nc := len(g.conns)
	var accepted, refused atomic.Int64
	errs := make([]error, nc)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for k := 0; k < nc; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var buf []byte
			for i := k; time.Now().Before(deadline); i += nc {
				if i >= g.tenants {
					i = k
				}
				code, b, err := g.post(g.conns[k], buf, i)
				buf = b
				if err != nil {
					errs[k] = err
					return
				}
				if code == http.StatusAccepted {
					accepted.Add(ingestBatch)
				} else {
					refused.Add(1)
				}
			}
		}(k)
	}
	var rates []float64
	slice := min(satSlice, d/8)
	tk := time.NewTicker(slice)
	for last, prev := time.Now(), int64(0); time.Until(deadline) > slice/2; {
		now := <-tk.C
		cur := accepted.Load()
		rates = append(rates, float64(cur-prev)/now.Sub(last).Seconds())
		last, prev = now, cur
	}
	tk.Stop()
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, 0, err
	}
	return rates, refused.Load(), nil
}

// ingestPass is one full serve-ingest pass: the ladder and closed-loop
// rounds, then the drain.
type ingestPass struct {
	ladder     *ladderOut
	rates      []int     // the ladder's steps, batches/s
	satRates   []float64 // samples/s per closed-loop slice, every round
	satPOSTs   int64
	drain      time.Duration
	backlogMax int64
}

// satPerS is the closed loop's median throughput in samples per second.
func (p *ingestPass) satPerS() float64 { return median(p.satRates) }

// ingestRounds is how many times a pass runs the ladder and then the
// closed loop. The machine's speed drifts over seconds, so spreading every
// step over the window lets a run's medians sample several of those
// stretches instead of one.
const ingestRounds = 4

// ingestPhases splits the measured window: a tenth warms up at the first
// rate (phase 0 of the first round only), the rest goes to the rounds. A
// traced run's passes climb the whole ladder, each step getting 15% of the
// window and the closed loop 30%: they report the sustained rate and every
// step's latencies. An untraced run reports only the first step's latency
// and the closed loop's throughput, so it runs just those two, giving them
// 30% and 60% — twice the samples behind each of its numbers.
func (r *runner) ingestPhases() (warm time.Duration, phases []ladderPhase, closed time.Duration) {
	w := r.window()
	rates, step, loop := r.o.Sizes.IngestRates, time.Duration(15), time.Duration(30)
	if !r.o.Trace {
		rates, step, loop = rates[:1], 30, 60
	}
	phases = []ladderPhase{{rate: rates[0]}}
	for _, rate := range rates {
		phases = append(phases, ladderPhase{rate: rate, dur: w * step / 100 / ingestRounds})
	}
	return w / 10, phases, w * loop / 100 / ingestRounds
}

func (r *runner) ingestRun(g *ingestRig) (*ingestPass, error) {
	var stopBacklog func() int64
	if g.reg != nil {
		stopBacklog = sampleBacklog(g.reg, ingestBatch)
	}
	warm, phases, closed := r.ingestPhases()
	l := newLadderOut(len(g.conns), len(phases))
	p := &ingestPass{ladder: l}
	for _, ph := range phases[1:] {
		p.rates = append(p.rates, ph.rate)
	}
	var refused int64
	for round := 0; round < ingestRounds; round++ {
		ph := append([]ladderPhase(nil), phases...)
		if round == 0 {
			ph[0].dur = warm
		}
		if err := g.ladder(ph, l); err != nil {
			return nil, err
		}
		if err := g.settle(); err != nil {
			return nil, err
		}
		r.cal.sample()
		r.cal.sample()
		accepted0 := sumAccepted(g.accepted)
		rates, ref, err := g.saturate(closed)
		if err != nil {
			return nil, err
		}
		if err := g.settle(); err != nil {
			return nil, err
		}
		r.unitDone() // a round is this workload's unit of work
		r.cal.sample()
		p.satRates = append(p.satRates, rates...)
		p.satPOSTs += int64(sumAccepted(g.accepted) - accepted0)
		refused += ref
	}
	var err error
	if p.drain, err = g.shutdown(); err != nil {
		return nil, err
	}
	if stopBacklog != nil {
		p.backlogMax = stopBacklog()
	}
	for _, conn := range l.steps {
		for _, st := range conn {
			r.attempted += int64(len(st.posts) + st.refused)
			r.failed += int64(st.refused)
		}
	}
	r.attempted += p.satPOSTs + refused
	r.failed += refused
	return p, nil
}

// settle waits until the server has applied every accepted batch.
func (g *ingestRig) settle() error {
	return waitApplied(g.srv.Handler(), g.tenants, func(i int) int { return g.accepted[i] * ingestBatch })
}

func sumAccepted(acc []int) int {
	n := 0
	for _, a := range acc {
		n += a
	}
	return n
}

// sampleBacklog samples accepted-minus-applied batches every 100 ms from
// the server's own counters until the returned stop is called, which
// yields the maximum.
func sampleBacklog(reg *caasper.MetricsRegistry, batch int64) func() int64 {
	stop, done := make(chan struct{}), make(chan struct{})
	var peak int64
	go func() {
		defer close(done)
		tk := time.NewTicker(100 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tk.C:
				b := reg.Counter("serve.batches").Value() - reg.Counter("serve.samples").Value()/batch
				peak = max(peak, b)
			}
		}
	}()
	return func() int64 { close(stop); <-done; return peak }
}

// stepStats summarises one ladder step over every connection.
type stepStats struct {
	posts, visible []float64 // ms
	polls, refused int
	growing        bool
}

// stepStats merges the connections' logs of ladder phase p.
func (l *ladderOut) stepStats(p int) stepStats {
	var st stepStats
	for _, conn := range l.steps {
		cl := conn[p]
		for _, v := range cl.posts {
			st.posts = append(st.posts, float64(v))
		}
		for _, v := range cl.visible {
			st.visible = append(st.visible, float64(v))
		}
		st.polls += cl.polls
		st.refused += cl.refused
		st.growing = st.growing || cl.growing
	}
	return st
}

func f64s(xs []float32) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

func runIngest(r *runner) error {
	s := r.o.Sizes
	g, cleanup, err := timeSetup(r, func() (*ingestRig, func(), error) { return newIngestRig(r.o.Seed, s.IngestTenants, nil) })
	if err != nil {
		return err
	}
	defer cleanup()
	m0 := readMem()
	r.startHeap()
	p, err := r.ingestRun(g)
	peak := r.stopHeap()
	if err != nil {
		return err
	}
	r.memDelta(m0, readMem())
	lat := p.ladder.stepStats(1) // the first ladder step; phase 0 is the warm-up
	r.set("heap_peak_mb", peak)
	r.set("tenant_minutes_per_s", p.satPerS())
	r.set("latency_p50_ms", quantile(lat.visible, 0.5))
	// At 2k POSTs/s the server idles between requests, so this latency is
	// loopback and wake-up time, which follows the calibration kernels only
	// loosely: scaling it doubled its run-to-run spread.
	r.asMeasured["latency_p50_ms"] = true
	r.set("post_p50_ms", quantile(lat.posts, 0.5))
	r.set("post_p99_ms", quantile(lat.posts, 0.99))
	r.set("decision_visible_p50_ms", quantile(lat.visible, 0.5))
	r.set("decision_visible_p99_ms", quantile(lat.visible, 0.99))
	r.set("bench.latency_samples", float64(len(lat.visible)))
	sustained := 0
	for k, rate := range p.rates {
		st := p.ladder.stepStats(k + 1)
		p99 := quantile(st.posts, 0.99)
		if st.refused == 0 && !st.growing && p99 <= postLimitMs {
			sustained = rate * ingestBatch
		}
		r.logf("step %d/s: %d posts p50 %.3fms p99 %.3fms, visible p50 %.3fms (%d), refused %d, growing %v",
			rate, len(st.posts), quantile(st.posts, 0.5), p99, quantile(st.visible, 0.5), len(st.visible), st.refused, st.growing)
	}
	r.set("max_sustained_samples_per_s", float64(sustained))
	lateP99 := p.ladder.late.Quantile(0.99) / 1e6
	r.set("loadgen.lateness_ms_p99", lateP99)
	r.set("loadgen.lateness_ms_max", p.ladder.late.Quantile(1)/1e6)
	if lateP99 > MaxLatenessMs {
		r.invalid = fmt.Sprintf("load generator ran late: lateness p99 %.2fms > %.0fms", lateP99, MaxLatenessMs)
	}
	r.logf("closed loop: median %.0f samples/s over %d slices, drained in %.3fs", p.satPerS(), len(p.satRates), p.drain.Seconds())
	if err := verifyIngest(r, g); err != nil {
		return err
	}
	if !r.o.Trace {
		return nil
	}

	tr := NewTracer()
	tg, tcleanup, err := newIngestRig(r.o.Seed, s.IngestTenants, tr)
	if err != nil {
		return err
	}
	defer tcleanup()
	tp, err := r.ingestRun(tg)
	if err != nil {
		return err
	}
	r.set("bench.trace_overhead_frac", p.satPerS()/tp.satPerS()-1)
	post, get := tr.Hist("serve.post_handler"), tr.Hist("serve.get_handler")
	r.set("serve.post_handler_us_p50", post.Quantile(0.5)/1e3)
	r.set("serve.post_handler_us_p99", post.Quantile(0.99)/1e3)
	r.set("serve.get_handler_us_p99", get.Quantile(0.99)/1e3)
	r.set("serve.net_us_p50", netMedianUs(tr.Requests()))
	dl := tg.reg.Histogram("serve.decision_latency")
	r.set("serve.decision_latency_ms_p50", dl.Quantile(0.5)/1e6)
	r.set("serve.decision_latency_ms_p99", dl.Quantile(0.99)/1e6)
	polls, visible := 0, 0
	for k := range tp.rates {
		st := tp.ladder.stepStats(k + 1)
		polls += st.polls
		visible += len(st.visible)
	}
	r.set("serve.polls_per_visible", ratio(float64(polls), float64(visible)))
	r.set("serve.batches_accepted", float64(tg.reg.Counter("serve.batches").Value()))
	r.set("serve.rejected_429", float64(tg.reg.Counter("serve.rejected").Value()))
	r.set("serve.samples_applied", float64(tg.reg.Counter("serve.samples").Value()))
	r.set("serve.backlog_batches_max", float64(tp.backlogMax))
	if r.o.TraceFile != "" {
		if err := tr.WriteFile(r.o.TraceFile); err != nil {
			return err
		}
	}
	return verifyIngest(r, tg)
}

// netMedianUs pairs each client span with the handler span of the same
// request and returns the median client round trip minus handler time:
// the loopback, HTTP framing and client cost of a request.
func netMedianUs(reqs []RequestSpan) float64 {
	handler := map[int64]int64{}
	for _, q := range reqs {
		if q.Side == "handler" {
			handler[q.ID] = q.Dur
		}
	}
	var net []float64
	for _, q := range reqs {
		if h, ok := handler[q.ID]; ok && q.Side == "client" {
			net = append(net, float64(q.Dur-h)/1e3)
		}
	}
	return quantile(net, 0.5)
}

// verifyIngest feeds a reference server — no transport, no load
// generator — exactly the batches the measured server accepted, in the
// same per-tenant order, and requires every decision log and status to
// match.
func verifyIngest(r *runner, g *ingestRig) error {
	defer r.timed("reference check")()
	ref, err := caasper.NewServer(caasper.ServeOptions{})
	if err != nil {
		return err
	}
	h := ref.Handler()
	err = registerTenants(h, g.tenants)
	if err == nil {
		err = feedTenants(g.tenants, func(i int, buf []byte) ([]byte, error) {
			for k := 0; k < g.accepted[i]; k++ {
				buf = g.book.body(buf[:0], i, k*ingestBatch, ingestBatch)
				if err := postUntilAccepted(h, tenantID(i), buf); err != nil {
					return buf, err
				}
			}
			return buf, nil
		})
	}
	if cerr := ref.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	compareServers(r, g.srv.Handler(), h, g.tenants)
	return nil
}
