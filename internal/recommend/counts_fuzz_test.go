package recommend

import (
	"bytes"
	"math"
	"testing"

	"caasper/internal/core"
	"caasper/internal/obs"
)

// fuzzSample decodes one usage sample from two bytes over a ladder of
// maxCores SKUs:
//
//	kind%8 == 0      NaN
//	kind%8 == 1      +Inf or −Inf (by x's low bit)
//	kind%8 == 2      a negative, −(x+1)/8, or −0 when x is 0
//	kind%8 == 3      prev, the previous sample (runs of equal values)
//	kind%8 == 4, 5   cores·0.98 for cores = 1 + x mod maxCores, one ulp
//	                 below, at or above it (by kind/8 mod 3): a slot bound
//	kind%8 == 6, 7   x/255 of 1.2·maxCores, so up to past the ladder top
func fuzzSample(kind, x byte, maxCores int, prev float64) float64 {
	switch kind % 8 {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1 - 2*int(x&1))
	case 2:
		if x == 0 {
			return math.Copysign(0, -1)
		}
		return -(float64(x) + 1) / 8
	case 3:
		return prev
	case 4, 5:
		v := float64(1+int(x)%maxCores) * 0.98
		switch kind / 8 % 3 {
		case 0:
			return math.Nextafter(v, 0)
		case 2:
			return math.Nextafter(v, math.Inf(1))
		}
		return v
	}
	return float64(x) / 255 * 1.2 * float64(maxCores)
}

// FuzzCountedWindow is a differential check of the reactive adapter's
// counted window — the exceed counts Observe and ObserveRun slide, and
// Reset and RestoreState rebuild — against DecideScratch, which counts
// the same history.View() from scratch at every decision. One adapter is
// driven through a random stream of operations, three bytes each (op,
// kind, x):
//
//	op%8 == 0..2  Observe(fuzzSample(kind, x))
//	op%8 == 3     ObserveRun(fuzzSample(kind, 3), n = 1 + x mod (2·window+2)),
//	              so runs reach past the window
//	op%8 == 4, 5  Recommend(cores = 1 + x mod (maxCores+2))
//	op%8 == 6     Reset
//	op%8 == 7     SnapshotState → RestoreState onto a fresh adapter
//
// Every decision must match the reference's bit for bit, count the same
// memo hit or miss, and emit the same audit event. Ladders run from 2 to
// 100 SKUs, the window from 1 to 48 samples and the quantile from 1/256
// to 1, so deep quantiles take the quickselect path. The seeds under
// testdata/fuzz/FuzzCountedWindow cover each operation, window 1, a
// 100-SKU ladder and runs longer than the window.
//
// The reference's scratch holds a skew table too, filled by the same
// sequence of misses, so a table bug would agree with itself here:
// core's FuzzDecideScratch checks the table against an oracle with none.
func FuzzCountedWindow(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte, mc, wb, qp uint8) {
		maxCores := 2 + int(mc)%99
		window := 1 + int(wb)%48
		cfg := core.DefaultConfig(maxCores)
		cfg.QuantileP = (float64(qp) + 1) / 256
		newAdapter := func() *CaaSPERReactive {
			c, err := NewCaaSPERReactive(cfg, window)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		ref, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gotEv, wantEv := obs.NewMemorySink(), obs.NewMemorySink()
		c := newAdapter()
		c.SetEventSink(gotEv)
		rs := core.Scratch{Sink: wantEv}

		prev, minute := 0.0, 0
		for ; len(ops) >= 3 && minute < 1<<16; ops = ops[3:] {
			op, kind, x := ops[0], ops[1], ops[2]
			switch op % 8 {
			case 0, 1, 2:
				prev = fuzzSample(kind, x, maxCores, prev)
				c.Observe(minute, prev)
				minute++
			case 3:
				prev = fuzzSample(kind, 3, maxCores, prev)
				n := 1 + int(x)%(2*window+2)
				c.ObserveRun(minute, prev, n)
				minute += n
			case 4, 5:
				cur := 1 + int(x)%(maxCores+2)
				view := c.history.View()
				hits, misses := c.scratch.MemoHits, c.scratch.MemoMisses
				rhits, rmisses := rs.MemoHits, rs.MemoMisses
				before := c.LastDecision
				rs.Now = c.scratch.Now
				want, werr := ref.DecideScratch(&rs, cur, view)
				got := c.Recommend(cur)
				if werr != nil {
					if got != cur || !sameDecision(c.LastDecision, before) {
						t.Fatalf("reference failed (%v) but the adapter decided %d from %d", werr, got, cur)
					}
				} else if got != want.Target.CPUCores || !sameDecision(c.LastDecision, want) {
					t.Fatalf("window %v cores %d:\n got  %d %+v\n want %+v", view, cur, got, c.LastDecision, want)
				}
				if c.scratch.MemoHits-hits != rs.MemoHits-rhits || c.scratch.MemoMisses-misses != rs.MemoMisses-rmisses {
					t.Fatalf("window %v cores %d: hits/misses +%d/+%d, reference +%d/+%d", view, cur,
						c.scratch.MemoHits-hits, c.scratch.MemoMisses-misses, rs.MemoHits-rhits, rs.MemoMisses-rmisses)
				}
			case 6:
				c.Reset()
				rs = core.Scratch{Sink: wantEv}
			case 7:
				d := newAdapter()
				d.SetEventSink(gotEv)
				if err := d.RestoreState(c.SnapshotState()); err != nil {
					t.Fatal(err)
				}
				c = d
			}
		}
		g, w := gotEv.Events(), wantEv.Events()
		if len(g) != len(w) {
			t.Fatalf("%d audit events, reference %d", len(g), len(w))
		}
		for i := range g {
			if a, b := g[i].AppendNDJSON(nil), w[i].AppendNDJSON(nil); !bytes.Equal(a, b) {
				t.Fatalf("audit event %d:\n got  %s\n want %s", i, a, b)
			}
		}
	})
}

// sameDecision compares two decisions bit for bit.
func sameDecision(a, b core.Decision) bool {
	return a.Current == b.Current && a.Target == b.Target && a.Delta == b.Delta &&
		a.Branch == b.Branch && a.Explanation == b.Explanation &&
		math.Float64bits(a.Slope) == math.Float64bits(b.Slope) &&
		math.Float64bits(a.Skew) == math.Float64bits(b.Skew) &&
		math.Float64bits(a.RawSF) == math.Float64bits(b.RawSF) &&
		math.Float64bits(a.Quantile) == math.Float64bits(b.Quantile)
}
