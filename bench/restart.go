package bench

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"caasper"
)

// Serve-restart's tenant shape. Warm-up leaves every tenant mid-window
// with three decisions logged; each cycle's batch crosses exactly one
// decision boundary. The decision log holds three records, so every
// checkpoint carries the same state per tenant and cycle k costs what
// cycle 1 does, however many cycles a run fits.
const (
	restartWarm  = 35
	restartBatch = 10
	restartLog   = 3
)

// restartRig is a snapshotting server behind a loopback front whose
// handler follows the current server across restarts.
type restartRig struct {
	tenants int
	opts    caasper.ServeOptions
	dir     string
	cur     atomic.Pointer[caasper.Server]
	front   *front
	conns   []*conn
	book    *sampleBook
	tr      *Tracer
	cycles  int
	ids     atomic.Int64
}

func newRestartRig(r *runner, tr *Tracer) (*restartRig, func(), error) {
	n := r.o.Sizes.RestartTenants
	if err := os.MkdirAll(r.o.TmpDir, 0o755); err != nil {
		return nil, func() {}, fmt.Errorf("bench: %w", err)
	}
	dir, err := os.MkdirTemp(r.o.TmpDir, "restart-*")
	if err != nil {
		return nil, func() {}, fmt.Errorf("bench: %w", err)
	}
	g := &restartRig{tenants: n, dir: dir, tr: tr, book: newSampleBook(r.o.Seed, n)}
	g.opts = caasper.ServeOptions{SnapshotPath: filepath.Join(dir, "snapshot.ndjson"), DecisionLogSize: restartLog}
	if tr != nil {
		g.opts.Metrics = caasper.NewMetricsRegistry()
	}
	cleanup := func() {
		for _, c := range g.conns {
			c.close()
		}
		g.conns = nil
		if g.front != nil {
			g.front.close()
			g.front = nil
		}
		if s := g.cur.Load(); s != nil {
			s.Close()
		}
		os.RemoveAll(dir)
	}
	srv, err := caasper.NewServer(g.opts)
	if err != nil {
		cleanup()
		return nil, func() {}, err
	}
	g.cur.Store(srv)
	if err := warmTenants(srv.Handler(), g.book, n); err != nil {
		cleanup()
		return nil, func() {}, err
	}
	var h http.Handler = http.HandlerFunc(func(w http.ResponseWriter, q *http.Request) {
		g.cur.Load().Handler().ServeHTTP(w, q)
	})
	if tr != nil {
		h = newTracedHandler(h, tr)
	}
	if g.front, err = startFront(h); err != nil {
		cleanup()
		return nil, func() {}, err
	}
	for k := 0; k < clientConns(); k++ {
		c, err := dial(g.front.addr)
		if err != nil {
			cleanup()
			return nil, func() {}, err
		}
		g.conns = append(g.conns, c)
	}
	return g, cleanup, nil
}

// warmTenants registers n tenants and feeds each its warm-up samples in
// process, then waits until every sample is applied, so the first
// measured Close drains nothing left over from set-up.
func warmTenants(h http.Handler, book *sampleBook, n int) error {
	if err := registerTenants(h, n); err != nil {
		return err
	}
	err := feedTenants(n, func(i int, buf []byte) ([]byte, error) {
		buf = book.body(buf[:0], i, 0, restartWarm)
		return buf, postUntilAccepted(h, tenantID(i), buf)
	})
	if err != nil {
		return err
	}
	return waitApplied(h, n, func(int) int { return restartWarm })
}

// cycleTimes are one restart cycle's phases.
type cycleTimes struct {
	close, restore, first, total time.Duration
	snapshotBytes                int64
}

// cycle checkpoints and stops the server, restores a new one from the
// checkpoint, and resumes every tenant with one batch over loopback;
// connection 0 starts with tenant 0 and polls until its resumed decision
// is readable.
func (g *restartRig) cycle(r *runner) (cycleTimes, error) {
	var ct cycleTimes
	from := restartWarm + g.cycles*restartBatch
	seq0 := int64((from + restartBatch) / 10)
	t0 := time.Now()
	if err := g.cur.Load().Close(); err != nil {
		return ct, err
	}
	t1 := time.Now()
	srv, err := caasper.NewServer(g.opts)
	if err != nil {
		return ct, err
	}
	t2 := time.Now()
	g.cur.Store(srv)
	fi, err := os.Stat(g.opts.SnapshotPath)
	if err != nil {
		return ct, fmt.Errorf("bench: %w", err)
	}
	ct.snapshotBytes = fi.Size()

	nc := len(g.conns)
	errs := make([]error, nc)
	codes := make([][]int, nc)
	var first time.Time
	var wg sync.WaitGroup
	for k := 0; k < nc; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := g.conns[k]
			var buf []byte
			for i := k; i < g.tenants; i += nc {
				buf = g.book.body(buf[:0], i, from, restartBatch)
				id := g.ids.Add(1)
				ts := time.Now()
				code, _, err := c.do(http.MethodPost, "/v1/tenants/"+tenantID(i)+"/samples", id, buf)
				if g.tr != nil {
					g.tr.Request(RequestSpan{ID: id, Side: "client", Route: http.MethodPost, Start: g.tr.sinceStart(ts), Dur: int64(time.Since(ts)), Status: code})
				}
				if err != nil {
					errs[k] = err
					return
				}
				codes[k] = append(codes[k], code)
				if i == 0 {
					for {
						ok, err := decisionVisible(c, g.ids.Add(1), tenantID(0), seq0)
						if err != nil {
							errs[k] = err
							return
						}
						if ok {
							first = time.Now()
							break
						}
						if time.Since(t2) > 10*time.Second {
							errs[k] = fmt.Errorf("bench: resumed decision %d of %s not visible after 10s", seq0, tenantID(0))
							return
						}
					}
				}
			}
		}(k)
	}
	wg.Wait()
	ct.close, ct.restore, ct.first, ct.total = t1.Sub(t0), t2.Sub(t1), first.Sub(t2), time.Since(t0)
	for k := range errs {
		if errs[k] != nil {
			return ct, errs[k]
		}
		for _, code := range codes[k] {
			r.op(code == http.StatusAccepted)
		}
	}
	r.op(true) // the restart itself
	g.cycles++
	return ct, nil
}

// cycles runs restart cycles until the measured window has passed.
func (g *restartRig) runCycles(r *runner) ([]cycleTimes, error) {
	var cts []cycleTimes
	start := time.Now()
	for len(cts) == 0 || time.Since(start) < r.window() {
		ct, err := g.cycle(r)
		if err != nil {
			return nil, err
		}
		applied := restartWarm + g.cycles*restartBatch
		if err := waitApplied(g.cur.Load().Handler(), g.tenants, func(int) int { return applied }); err != nil {
			return nil, err
		}
		r.unitDone()
		cts = append(cts, ct)
	}
	r.logf("%d restart cycles, median restart %.3fs", len(cts), medianSeconds(pick(cts, func(c cycleTimes) time.Duration { return c.close + c.restore + c.first })))
	return cts, nil
}

func pick(cts []cycleTimes, f func(cycleTimes) time.Duration) []time.Duration {
	ds := make([]time.Duration, len(cts))
	for i, c := range cts {
		ds[i] = f(c)
	}
	return ds
}

func runRestart(r *runner) error {
	g, cleanup, err := timeSetup(r, func() (*restartRig, func(), error) { return newRestartRig(r, nil) })
	if err != nil {
		return err
	}
	defer cleanup()
	m0 := readMem()
	r.startHeap()
	cts, err := g.runCycles(r)
	peak := r.stopHeap()
	if err != nil {
		return err
	}
	r.memDelta(m0, readMem())
	restart := medianSeconds(pick(cts, func(c cycleTimes) time.Duration { return c.close + c.restore + c.first }))
	total := medianSeconds(pick(cts, func(c cycleTimes) time.Duration { return c.total }))
	r.set("heap_peak_mb", peak)
	r.set("latency_p50_ms", restart*1e3)
	r.set("tenant_minutes_per_s", float64(g.tenants*restartBatch)/total)
	r.set("restart_s", restart)
	r.set("serve.close_snapshot_s", medianSeconds(pick(cts, func(c cycleTimes) time.Duration { return c.close })))
	r.set("serve.restore_s", medianSeconds(pick(cts, func(c cycleTimes) time.Duration { return c.restore })))
	r.set("serve.first_decision_ms", medianSeconds(pick(cts, func(c cycleTimes) time.Duration { return c.first }))*1e3)
	r.set("serve.snapshot_mb", float64(cts[len(cts)-1].snapshotBytes)/(1<<20))
	r.set("bench.latency_samples", float64(len(cts)))
	if err := verifyRestart(r, g); err != nil {
		return err
	}
	if !r.o.Trace {
		return nil
	}

	tr := NewTracer()
	tg, tcleanup, err := newRestartRig(r, tr)
	if err != nil {
		return err
	}
	defer tcleanup()
	tcts, err := tg.runCycles(r)
	if err != nil {
		return err
	}
	ttotal := medianSeconds(pick(tcts, func(c cycleTimes) time.Duration { return c.total }))
	r.set("bench.trace_overhead_frac", ttotal/total-1)
	post := tr.Hist("serve.post_handler")
	r.set("serve.post_handler_us_p50", post.Quantile(0.5)/1e3)
	r.set("serve.post_handler_us_p99", post.Quantile(0.99)/1e3)
	r.set("serve.get_handler_us_p99", tr.Hist("serve.get_handler").Quantile(0.99)/1e3)
	r.set("serve.net_us_p50", netMedianUs(tr.Requests()))
	reg := tg.opts.Metrics
	dl := reg.Histogram("serve.decision_latency")
	r.set("serve.decision_latency_ms_p50", dl.Quantile(0.5)/1e6)
	r.set("serve.decision_latency_ms_p99", dl.Quantile(0.99)/1e6)
	r.set("serve.batches_accepted", float64(reg.Counter("serve.batches").Value()))
	r.set("serve.rejected_429", float64(reg.Counter("serve.rejected").Value()))
	r.set("serve.samples_applied", float64(reg.Counter("serve.samples").Value()))
	if r.o.TraceFile != "" {
		if err := tr.WriteFile(r.o.TraceFile); err != nil {
			return err
		}
	}
	return verifyRestart(r, tg)
}

// verifyRestart stops the measured server (a final checkpoint), restores
// one more server from that checkpoint, and requires both to match a
// reference server fed the same batches with no transport and no restart.
func verifyRestart(r *runner, g *restartRig) error {
	defer r.timed("reference check")()
	for _, c := range g.conns {
		c.close()
	}
	g.conns = nil
	if err := g.front.close(); err != nil {
		return err
	}
	g.front = nil
	if err := g.cur.Load().Close(); err != nil {
		return err
	}
	ref, err := caasper.NewServer(caasper.ServeOptions{DecisionLogSize: restartLog})
	if err != nil {
		return err
	}
	h := ref.Handler()
	if err := warmTenants(h, g.book, g.tenants); err != nil {
		ref.Close()
		return err
	}
	err = feedTenants(g.tenants, func(i int, buf []byte) ([]byte, error) {
		for c := 0; c < g.cycles; c++ {
			buf = g.book.body(buf[:0], i, restartWarm+c*restartBatch, restartBatch)
			if err := postUntilAccepted(h, tenantID(i), buf); err != nil {
				return buf, err
			}
		}
		return buf, nil
	})
	if cerr := ref.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	compareServers(r, g.cur.Load().Handler(), h, g.tenants)
	restored, err := caasper.NewServer(g.opts)
	if err != nil {
		return err
	}
	g.cur.Store(restored)
	compareServers(r, restored.Handler(), h, g.tenants)
	return nil
}
