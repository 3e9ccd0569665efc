package billing

import (
	"errors"
	"math"
	"testing"
	"time"

	"caasper/internal/errs"
)

func hourlyMeter(t *testing.T) *Meter {
	t.Helper()
	m, err := NewMeter(time.Hour, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMeterValidation(t *testing.T) {
	for _, tc := range []struct {
		name             string
		period, interval time.Duration
	}{
		{"negative period", -time.Hour, time.Minute},
		{"zero interval", time.Hour, 0},
		{"non-dividing interval", time.Hour, 7 * time.Minute},
		{"90s period on a 1m grid", 90 * time.Second, time.Minute},
	} {
		if _, err := NewMeter(tc.period, tc.interval); !errors.Is(err, errs.ErrInvalidConfig) {
			t.Errorf("%s: got %v, want errors.Is(ErrInvalidConfig)", tc.name, err)
		}
	}
	// A zero period selects hourly billing.
	m, err := NewMeter(0, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		m.Record(3)
	}
	if got := m.BilledCorePeriods(); got != 3 {
		t.Errorf("zero period: billed %v after one hour at 3 cores, want 3 (hourly)", got)
	}
}

func TestMeterPeakPerPeriod(t *testing.T) {
	m := hourlyMeter(t)
	// Hour 1: limits mostly 4, one spike to 6.
	for i := 0; i < 59; i++ {
		m.Record(4)
	}
	m.Record(6)
	// Hour 2: flat 3.
	for i := 0; i < 60; i++ {
		m.Record(3)
	}
	if got := m.BilledCorePeriods(); got != 9 { // 6 + 3
		t.Errorf("billed = %v, want 9", got)
	}
}

func TestMeterRoundsUpWholeCores(t *testing.T) {
	m := hourlyMeter(t)
	for i := 0; i < 60; i++ {
		m.Record(2.1) // fractional limits bill as 3 whole cores
	}
	if got := m.BilledCorePeriods(); got != 3 {
		t.Errorf("billed = %v, want 3 (round-up)", got)
	}
}

func TestMeterFlushPartialPeriod(t *testing.T) {
	m := hourlyMeter(t)
	for i := 0; i < 30; i++ {
		m.Record(5)
	}
	if got := m.BilledCorePeriods(); got != 0 {
		t.Errorf("open period should not bill yet, got %v", got)
	}
	m.Flush()
	if got := m.BilledCorePeriods(); got != 5 {
		t.Errorf("after flush = %v, want 5", got)
	}
	// Double flush is a no-op.
	m.Flush()
	if got := m.BilledCorePeriods(); got != 5 {
		t.Errorf("double flush = %v", got)
	}
}

func TestMeterMinutelyPeriod(t *testing.T) {
	// §3.1: "this time period may be minutely or hourly".
	m, err := NewMeter(time.Minute, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	m.Record(2)
	m.Record(4)
	m.Record(3)
	if got := m.BilledCorePeriods(); got != 9 {
		t.Errorf("minutely billed = %v, want 9", got)
	}
}

// TestLedgerAddRunMatchesPerSample pins AddRun's contract: one call over
// n samples leaves the ledger bit-identical to n one-sample calls and to
// the per-sample arithmetic written out by hand, including runs that
// straddle billing periods, demands that round when summed and
// month-long runs whose sums cross many powers of two.
func TestLedgerAddRunMatchesPerSample(t *testing.T) {
	type run struct {
		limit, demand float64
		n             int
	}
	runs := []run{
		{4, 1.1, 37}, {4, 4, 5}, {4, 6.3, 90}, {2, 0.7, 1}, {6, 0.1, 300},
		{6, 6.000001, 7}, {3, 0, 61}, {3, math.Pi, 13},
		{4, 0.35, 43_200}, {1, 2.62, 43_200}, {2.5, 2.45, 10_000},
	}
	bulk, single := Ledger{Meter: *hourlyMeter(t)}, Ledger{Meter: *hourlyMeter(t)}
	ref := hourlyMeter(t)
	var slack, short float64
	throttled := 0
	for _, r := range runs {
		got := bulk.AddRun(r.limit, r.demand, r.n)
		if want := r.demand - r.limit; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("AddRun(%v, %v) returned %v, want demand − limit = %v", r.limit, r.demand, got, want)
		}
		for k := 0; k < r.n; k++ {
			single.Add(r.limit, r.demand)
			if s := r.limit - r.demand; s > 0 {
				slack += s
			}
			if s := r.demand - r.limit; s > 0 {
				short += s
				throttled++
			}
			ref.Record(r.limit)
		}
	}
	ref.Flush()
	want := [4]float64{slack, short, float64(throttled), ref.BilledCorePeriods()}
	for name, l := range map[string]*Ledger{"AddRun": &bulk, "Add": &single} {
		s, c, n, b := l.Close()
		got := [4]float64{s, c, float64(n), b}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("%s: totals %v, want %v (bit for bit)", name, got, want)
				break
			}
		}
	}
}
