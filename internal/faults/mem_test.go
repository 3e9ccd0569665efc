package faults

import (
	"strings"
	"testing"

	"caasper/internal/obs"
)

func TestMemPressureSpecRoundTrip(t *testing.T) {
	spec, err := ParseSpec("mem-pressure:p=0.4:gb=3:dur=120")
	if err != nil {
		t.Fatal(err)
	}
	f, ok := spec.Get(MemPressure)
	if !ok {
		t.Fatal("mem-pressure missing from parsed spec")
	}
	if f.P != 0.4 || f.GB != 3 || f.Dur != 120 {
		t.Fatalf("parsed fault wrong: %+v", f)
	}
	if got := spec.String(); got != "mem-pressure:p=0.4:dur=120:gb=3" {
		t.Fatalf("String() = %q", got)
	}
	// Defaults.
	spec, err = ParseSpec("mem-pressure")
	if err != nil {
		t.Fatal(err)
	}
	f, _ = spec.Get(MemPressure)
	if f.P != 0.5 || f.GB != 2 || f.Dur != 300 {
		t.Fatalf("defaults wrong: %+v", f)
	}
	// Bad gb values.
	for _, s := range []string{"mem-pressure:gb=0", "mem-pressure:gb=-1", "mem-pressure:gb=x"} {
		if _, err := ParseSpec(s); err == nil {
			t.Fatalf("spec %q should be rejected", s)
		}
	}
}

func TestMemPressureDeterministicWindows(t *testing.T) {
	spec, _ := ParseSpec("mem-pressure:p=0.5:gb=2:dur=60")
	run := func() ([]float64, Counts) {
		in := New(spec, 7)
		var got []float64
		for now := int64(0); now < 600; now += 10 {
			got = append(got, in.MemPressureGB("pod-0", now))
		}
		return got, in.Counts()
	}
	a, ca := run()
	b, cb := run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across runs: %v vs %v", i, a[i], b[i])
		}
	}
	if ca != cb {
		t.Fatalf("counts differ: %+v vs %+v", ca, cb)
	}
	if ca.MemPressureWindows == 0 {
		t.Fatal("p=0.5 over 10 windows should activate at least once")
	}
	// Value is all-or-nothing per window.
	for i, v := range a {
		if v != 0 && v != 2 {
			t.Fatalf("draw %d = %v, want 0 or 2", i, v)
		}
	}
	// Different pods see independent streams (keyed per pod).
	in := New(spec, 7)
	same := true
	for now := int64(0); now < 600; now += 60 {
		if in.MemPressureGB("pod-0", now) != in.MemPressureGB("pod-other", now) {
			same = false
		}
	}
	if same {
		t.Fatal("pod streams should differ for at least one window")
	}
}

func TestMemPressureEdgeEventOnce(t *testing.T) {
	spec, _ := ParseSpec("mem-pressure:p=1:gb=2:dur=60")
	in := New(spec, 1)
	sink := obs.NewMemorySink()
	in.Events = sink
	// Poll the same window repeatedly: one edge event only.
	for now := int64(0); now < 60; now += 10 {
		if got := in.MemPressureGB("p", now); got != 2 {
			t.Fatalf("p=1 window must be active, got %v", got)
		}
	}
	events := sink.Events()
	n := 0
	for _, e := range events {
		if e.Type == "fault.mem-pressure" {
			n++
			if e.T != 0 {
				t.Fatalf("edge event at T=%d, want window boundary 0", e.T)
			}
		}
	}
	if n != 1 {
		t.Fatalf("got %d edge events, want 1", n)
	}
}

func TestMemPressureNilAndCPUOnlySummary(t *testing.T) {
	var in *Injector
	if in.MemPressureGB("p", 0) != 0 {
		t.Fatal("nil injector must inject nothing")
	}
	// A spec without mem-pressure must not mention it in the summary —
	// the CPU-only chaos report stays byte-identical.
	spec, _ := ParseSpec("restart-fail:p=0.2")
	if s := Summarize(spec, 1, Counts{}); strings.Contains(s, "memory-pressure") {
		t.Fatalf("CPU-only summary mentions memory-pressure:\n%s", s)
	}
	spec, _ = ParseSpec("mem-pressure")
	if s := Summarize(spec, 1, Counts{MemPressureWindows: 3}); !strings.Contains(s, "memory-pressure windows:     3") {
		t.Fatalf("mem-pressure summary missing:\n%s", s)
	}
}
