package workload

import (
	"testing"

	"caasper/internal/stats"
)

func TestAlibabaTraceUnknownID(t *testing.T) {
	if _, err := AlibabaTrace("c_nope", 0); err == nil {
		t.Error("unknown id should error")
	}
}

func TestAlibabaTracesBasicShape(t *testing.T) {
	for _, id := range AlibabaIDs {
		tr, err := AlibabaTrace(id, 0)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if tr.Name != id {
			t.Errorf("%s: name = %q", id, tr.Name)
		}
		// ~8 days at 1-minute resolution ≈ 11.5k points; the paper says
		// "around 11k data points".
		if tr.Len() < 10000 || tr.Len() > 13000 {
			t.Errorf("%s: %d points, want ≈11.5k", id, tr.Len())
		}
		s := tr.Summarize()
		if s.Min < 0 {
			t.Errorf("%s: negative usage %v", id, s.Min)
		}
		if s.Max <= 0 {
			t.Errorf("%s: empty trace", id)
		}
	}
}

func TestAlibabaTraceCharacteristics(t *testing.T) {
	get := func(id string) *struct{ mean, max float64 } {
		tr, err := AlibabaTrace(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		s := tr.Summarize()
		return &struct{ mean, max float64 }{s.Mean, s.Max}
	}
	// c_29247 has the Day-3 outlier spike near 20 cores.
	if s := get("c_29247"); s.max < 15 {
		t.Errorf("c_29247 max = %v, want ≥15 (outlier spike)", s.max)
	}
	// c_48113 is a large batch workload reaching ~16+ cores.
	if s := get("c_48113"); s.max < 12 {
		t.Errorf("c_48113 max = %v, want ≥12", s.max)
	}
	// c_4043 is small and steady.
	if s := get("c_4043"); s.max > 3 {
		t.Errorf("c_4043 max = %v, want small", s.max)
	}
	// c_29345 has an elevated baseline.
	tr, _ := AlibabaTrace("c_29345", 0)
	if m := tr.Summarize().Min; m < 1.0 {
		t.Errorf("c_29345 min = %v, want elevated baseline", m)
	}
}

func TestAlibabaSpikeOnDay3(t *testing.T) {
	tr, err := AlibabaTrace("c_29247", 0)
	if err != nil {
		t.Fatal(err)
	}
	day := 24 * 60
	day3Max := stats.Max(tr.Window(2*day, 3*day))
	day1Max := stats.Max(tr.Window(0, day))
	if day3Max < day1Max+8 {
		t.Errorf("day3 max %v should dwarf day1 max %v", day3Max, day1Max)
	}
}

func TestAllAlibabaTraces(t *testing.T) {
	for _, id := range AlibabaIDs {
		tr, err := AlibabaTrace(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Name != id {
			t.Errorf("trace name = %q, want %q", tr.Name, id)
		}
	}
}

func TestAlibabaDeterminism(t *testing.T) {
	a, _ := AlibabaTrace("c_1", 0)
	b, _ := AlibabaTrace("c_1", 0)
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatal("same-seed alibaba trace diverged")
		}
	}
}
