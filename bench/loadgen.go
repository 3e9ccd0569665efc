package bench

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"caasper"
)

// clientConns is how many keep-alive connections the load generator
// opens: one goroutine drives each, so load comes from at most NumCPU
// threads of this one process.
func clientConns() int {
	return min(2, runtime.NumCPU())
}

// conn is one keep-alive HTTP/1.1 client connection, driven by exactly
// one goroutine. Requests are written by hand so the client's own cost
// stays small next to the server's: with net/http's Client in its place
// (one Transport per connection), serve-ingest's client round trip beyond
// the handler went from 79 to 112 µs and its closed loop accepted 22–30%
// fewer samples per second, the client taking cores the server needs
// (README.md, "Load generator").
type conn struct {
	c   net.Conn
	bw  *bufio.Writer
	br  *bufio.Reader
	buf bytes.Buffer
	hdr []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("bench: dial %s: %w", addr, err)
	}
	return &conn{c: c, bw: bufio.NewWriterSize(c, 16<<10), br: bufio.NewReaderSize(c, 16<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// do sends one request and reads the whole response. The returned body
// is valid until the next call.
func (c *conn) do(method, path string, id int64, body []byte) (int, []byte, error) {
	h := append(c.hdr[:0], method...)
	h = append(h, ' ')
	h = append(h, path...)
	h = append(h, " HTTP/1.1\r\nHost: bench\r\nX-Request-Id: "...)
	h = strconv.AppendInt(h, id, 10)
	h = append(h, "\r\nContent-Length: "...)
	h = strconv.AppendInt(h, int64(len(body)), 10)
	h = append(h, "\r\n\r\n"...)
	c.hdr = h
	c.bw.Write(h)
	c.bw.Write(body)
	if err := c.bw.Flush(); err != nil {
		return 0, nil, fmt.Errorf("bench: %s %s: %w", method, path, err)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, fmt.Errorf("bench: %s %s: %w", method, path, err)
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, fmt.Errorf("bench: %s %s body: %w", method, path, err)
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// front serves a handler on a loopback TCP listener.
type front struct {
	addr string
	hs   *http.Server
	done chan error
}

func startFront(h http.Handler) (*front, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("bench: listen: %w", err)
	}
	f := &front{addr: ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { f.done <- f.hs.Serve(ln) }()
	return f, nil
}

// close shuts the listener down and waits for Serve to return.
func (f *front) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := f.hs.Shutdown(ctx)
	if serr := <-f.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// tracedHandler records a handler span per request, keyed by the
// client's X-Request-Id so client and handler spans pair up.
type tracedHandler struct {
	next      http.Handler
	tr        *Tracer
	post, get *Hist
}

func newTracedHandler(next http.Handler, tr *Tracer) tracedHandler {
	return tracedHandler{next: next, tr: tr, post: tr.Hist("serve.post_handler"), get: tr.Hist("serve.get_handler")}
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	sw := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	h.next.ServeHTTP(sw, r)
	d := time.Since(t0)
	if r.Method == http.MethodPost {
		h.post.Observe(d)
	} else {
		h.get.Observe(d)
	}
	id, _ := strconv.ParseInt(r.Header.Get("X-Request-Id"), 10, 64)
	h.tr.Request(RequestSpan{ID: id, Side: "handler", Route: r.Method, Start: h.tr.sinceStart(t0), Dur: int64(d), Status: sw.status})
}

// inProcess calls a handler directly — no transport — and returns the
// status and body. Set-up and the reference servers use it.
func inProcess(h http.Handler, method, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// postUntilAccepted posts a batch in process, waiting out 429s: set-up
// and reference feeds outrun the shard workers by design.
func postUntilAccepted(h http.Handler, tenant string, body []byte) error {
	for {
		code, out := inProcess(h, http.MethodPost, "/v1/tenants/"+tenant+"/samples", body)
		switch code {
		case http.StatusAccepted:
			return nil
		case http.StatusTooManyRequests:
			time.Sleep(time.Millisecond)
		default:
			return fmt.Errorf("bench: post %s: %d %s", tenant, code, out)
		}
	}
}

// feedTenants calls feed for every tenant on clientConns() goroutines,
// tenant i always on goroutine i % n, so each tenant's batches keep their
// order while set-up and reference feeds use every core.
func feedTenants(tenants int, feed func(i int, buf []byte) ([]byte, error)) error {
	n := clientConns()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var buf []byte
			for i := k; i < tenants && errs[k] == nil; i += n {
				buf, errs[k] = feed(i, buf)
			}
		}(k)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// registerTenants PUTs n CaaSPER tenants in process.
func registerTenants(h http.Handler, n int) error {
	cfg := []byte(`{"policy":"caasper","max_cores":16,"initial_cores":2}`)
	for i := 0; i < n; i++ {
		if code, out := inProcess(h, http.MethodPut, "/v1/tenants/"+tenantID(i), cfg); code != http.StatusCreated {
			return fmt.Errorf("bench: register %s: %d %s", tenantID(i), code, out)
		}
	}
	return nil
}

func tenantID(i int) string { return "t" + strconv.Itoa(i) }

// waitApplied reads every tenant's status in process until tenant i has
// applied want(i) samples. A 202 only means a batch was queued; waiting
// for the shard workers to finish keeps leftover work out of whatever is
// timed next.
func waitApplied(h http.Handler, tenants int, want func(i int) int) error {
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i < tenants; {
		_, body := inProcess(h, http.MethodGet, "/v1/tenants/"+tenantID(i), nil)
		if bytes.Contains(body, []byte(`"samples":`+strconv.Itoa(want(i))+`,`)) {
			i++
			continue
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: samples of %s not applied after 30s", tenantID(i))
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// sampleBook holds pre-formatted NDJSON sample lines for 16 trace
// families drawn from the seed; tenant i replays family i%16 from its own
// phase, so batch bodies cost an append, not a float format.
type sampleBook struct {
	lines [][][]byte
	phase []int
}

func newSampleBook(seed uint64, tenants int) *sampleBook {
	b := &sampleBook{phase: make([]int, tenants)}
	for f := 0; f < 16; f++ {
		tr := caasper.Workloads[mixedFamilies[f%len(mixedFamilies)]](seed + uint64(f))
		ls := make([][]byte, len(tr.Values))
		for m, v := range tr.Values {
			ls[m] = strconv.AppendFloat([]byte(`{"cpu":`), v, 'f', 4, 64)
			ls[m] = append(ls[m], "}\n"...)
		}
		b.lines = append(b.lines, ls)
	}
	for i := range b.phase {
		b.phase[i] = (i * 7919) % len(b.lines[i%16])
	}
	return b
}

// body appends tenant i's samples [from, from+n) to dst.
func (b *sampleBook) body(dst []byte, i, from, n int) []byte {
	ls := b.lines[i%16]
	for m := from; m < from+n; m++ {
		dst = append(dst, ls[(b.phase[i]+m)%len(ls)]...)
	}
	return dst
}

// decisionVisible reads a tenant's decision stream over c and reports
// whether decision seq is readable yet.
func decisionVisible(c *conn, id int64, tenant string, seq int64) (bool, error) {
	code, body, err := c.do(http.MethodGet, "/v1/tenants/"+tenant+"/decisions?since="+strconv.FormatInt(seq-1, 10), id, nil)
	if err != nil {
		return false, err
	}
	if code != http.StatusOK {
		return false, fmt.Errorf("bench: decisions %s: %d", tenant, code)
	}
	return bytes.Contains(body, []byte(`"seq":`+strconv.FormatInt(seq, 10)+`,`)), nil
}

// compareServers checks that two servers hold the same decision log and
// status for every tenant, reading both in process.
func compareServers(r *runner, got, want http.Handler, tenants int) {
	bad := 0
	for i := 0; i < tenants; i++ {
		for _, path := range []string{"/v1/tenants/" + tenantID(i) + "/decisions", "/v1/tenants/" + tenantID(i)} {
			c1, b1 := inProcess(got, http.MethodGet, path, nil)
			c2, b2 := inProcess(want, http.MethodGet, path, nil)
			if c1 != c2 || !bytes.Equal(b1, b2) {
				if bad < 3 {
					r.check(false, "GET %s differs from the reference server: %d %q vs %d %q",
						path, c1, truncate(b1), c2, truncate(b2))
				}
				bad++
			}
		}
	}
	r.check(bad <= 3, "%d reads differ from the reference server in all", bad)
}

func truncate(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 160 {
		return s[:160] + "…"
	}
	return s
}
