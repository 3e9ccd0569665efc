package workload

import (
	"math"
	"testing"
	"time"

	"caasper/internal/stats"
)

func TestMixMeanCPUSeconds(t *testing.T) {
	m := Mix{
		{Class: TxnClass{Name: "a", CPUSeconds: 1}, Weight: 1},
		{Class: TxnClass{Name: "b", CPUSeconds: 3}, Weight: 1},
	}
	if got := m.MeanCPUSeconds(); got != 2 {
		t.Errorf("mean = %v", got)
	}
	if got := (Mix{}).MeanCPUSeconds(); got != 0 {
		t.Errorf("empty mix mean = %v", got)
	}
}

func TestMixWriteFraction(t *testing.T) {
	m := Mix{
		{Class: TxnClass{Name: "w", Write: true}, Weight: 3},
		{Class: TxnClass{Name: "r", Write: false}, Weight: 1},
	}
	if got := m.WriteFraction(); got != 0.75 {
		t.Errorf("write fraction = %v", got)
	}
	if got := (Mix{}).WriteFraction(); got != 0 {
		t.Errorf("empty mix = %v", got)
	}
}

func TestStandardMixes(t *testing.T) {
	tpcc := TPCCMix()
	if len(tpcc) != 5 {
		t.Errorf("TPC-C classes = %d", len(tpcc))
	}
	// Canonical TPC-C is write-heavy: NewOrder+Payment+Delivery = 92%.
	if wf := tpcc.WriteFraction(); math.Abs(wf-0.92) > 1e-9 {
		t.Errorf("TPC-C write fraction = %v, want 0.92", wf)
	}
	tpch := TPCHMix()
	if wf := tpch.WriteFraction(); wf != 0 {
		t.Errorf("TPC-H should be read-only, got %v", wf)
	}
	// TPC-H queries are orders of magnitude heavier than OLTP.
	if tpch.MeanCPUSeconds() < 50*tpcc.MeanCPUSeconds() {
		t.Error("TPC-H should be much heavier than TPC-C")
	}
	ycsb := YCSBMix()
	if wf := ycsb.WriteFraction(); wf != 0.5 {
		t.Errorf("YCSB write fraction = %v", wf)
	}
	if ycsb.MeanCPUSeconds() >= tpcc.MeanCPUSeconds() {
		t.Error("YCSB ops should be cheaper than TPC-C")
	}
	oltp := MixedOLTP()
	if len(oltp) != len(tpcc)+len(ycsb) {
		t.Errorf("MixedOLTP classes = %d", len(oltp))
	}
}

func TestRateForCores(t *testing.T) {
	mix := Mix{{Class: TxnClass{Name: "x", CPUSeconds: 0.01}, Weight: 1}}
	rate, err := RateForCores(mix, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rate != 200 {
		t.Errorf("rate = %v, want 200 txn/s", rate)
	}
	if _, err := RateForCores(Mix{}, 2); err == nil {
		t.Error("zero-cost mix should error")
	}
}

func TestScheduleForCoresRoundTrip(t *testing.T) {
	mix := TPCCMix()
	demand := Constant(4)
	ls, err := ScheduleForCores("s", mix, demand, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	got := ls.CPUDemandPattern()(30)
	if math.Abs(got-4) > 1e-9 {
		t.Errorf("round-trip demand = %v, want 4", got)
	}
	tr := ls.DemandTrace()
	if tr.Len() != 60 {
		t.Errorf("trace len = %d", tr.Len())
	}
	if math.Abs(stats.Mean(tr.Values)-4) > 1e-9 {
		t.Errorf("trace mean = %v", stats.Mean(tr.Values))
	}
}

func TestWorkdaySchedule(t *testing.T) {
	ls := WorkdaySchedule(1)
	if err := ls.Validate(); err != nil {
		t.Fatal(err)
	}
	if ls.Duration != 12*time.Hour {
		t.Errorf("duration = %v", ls.Duration)
	}
	// Middle phase should demand noticeably more CPU than edges — the
	// heavy phase uses the TPC-H mix so convert via rate ratios instead
	// of the schedule-level mix.
	lightRate := ls.Rate(60)
	heavyRate := ls.Rate(6 * 60)
	if heavyRate == lightRate {
		t.Error("phases should differ in rate")
	}
}

func TestScheduleValidate(t *testing.T) {
	bad := &LoadSchedule{Name: "bad"}
	if err := bad.Validate(); err == nil {
		t.Error("empty schedule should fail validation")
	}
	bad.Duration = time.Hour
	if err := bad.Validate(); err == nil {
		t.Error("empty mix should fail")
	}
	bad.Mix = TPCCMix()
	if err := bad.Validate(); err == nil {
		t.Error("nil rate should fail")
	}
	bad.Rate = Constant(1)
	if err := bad.Validate(); err != nil {
		t.Errorf("valid schedule failed: %v", err)
	}
}

func TestStitchRecreatesEnvelope(t *testing.T) {
	src := CustomerTrace(3)
	sw, err := Stitch(src, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Segments) == 0 {
		t.Fatal("no segments")
	}
	// Each segment's CPU demand (rate × mean cost of its mix) must match
	// the source's mean over the segment within tolerance.
	for _, seg := range sw.Segments {
		from := int(seg.Start / src.Interval)
		to := from + int(seg.Length/src.Interval)
		srcMean := stats.Mean(src.Window(from, to))
		recMean := seg.RatePerSec * seg.Mix.MeanCPUSeconds()
		if math.Abs(srcMean-recMean) > 0.02*math.Max(1, srcMean) {
			t.Errorf("segment at %v: source mean %.3f, recreated %.3f", seg.Start, srcMean, recMean)
		}
	}
}

func TestStitchSegmentMixSelection(t *testing.T) {
	// A heavy flat plateau should map to TPC-H.
	flat := Render("flat", Constant(6), 2*time.Hour)
	sw, err := Stitch(flat, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range sw.Segments {
		if seg.MixName != "tpch" {
			t.Errorf("heavy plateau mapped to %s, want tpch", seg.MixName)
		}
	}
	// A light trace maps to OLTP.
	light := Render("light", Constant(2), 2*time.Hour)
	sw, err = Stitch(light, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range sw.Segments {
		if seg.MixName != "oltp" {
			t.Errorf("light segment mapped to %s, want oltp", seg.MixName)
		}
	}
}

func TestStitchErrors(t *testing.T) {
	if _, err := Stitch(nil, time.Hour); err == nil {
		t.Error("nil target should error")
	}
	src := Render("x", Constant(1), time.Hour)
	if _, err := Stitch(src, time.Second); err == nil {
		t.Error("segment shorter than interval should error")
	}
}

func TestStitchedSchedule(t *testing.T) {
	src := CustomerTrace(5)
	sw, err := Stitch(src, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ls := sw.Schedule()
	if err := ls.Validate(); err != nil {
		t.Fatal(err)
	}
	if ls.Duration != src.Duration() {
		t.Errorf("schedule duration = %v", ls.Duration)
	}
	// Rate at any in-range minute should be one of the segment rates.
	r := ls.Rate(90)
	var found bool
	for _, seg := range sw.Segments {
		if math.Abs(seg.RatePerSec-r) < 1e-12 {
			found = true
		}
	}
	if !found {
		t.Errorf("rate %v not from any segment", r)
	}
}
