package forecast

import (
	"errors"
	"strings"
	"testing"
)

type fixedForecaster struct {
	name string
	vals []float64
	err  error
}

func (f fixedForecaster) Name() string { return f.name }
func (f fixedForecaster) Forecast(_ []float64, horizon int) ([]float64, error) {
	if f.err != nil {
		return nil, f.err
	}
	out := make([]float64, horizon)
	for i := range out {
		out[i] = f.vals[i%len(f.vals)]
	}
	return out, nil
}

func TestEnsembleEmpty(t *testing.T) {
	e := &Ensemble{}
	if _, err := e.Forecast([]float64{1}, 3); err == nil {
		t.Error("empty ensemble should error")
	}
}

func TestEnsembleModes(t *testing.T) {
	members := []Forecaster{
		fixedForecaster{name: "a", vals: []float64{2}},
		fixedForecaster{name: "b", vals: []float64{4}},
		fixedForecaster{name: "c", vals: []float64{9}},
	}
	cases := []struct {
		mode EnsembleMode
		want float64
	}{
		{EnsembleMean, 5},
		{EnsembleMax, 9},
		{EnsembleMedian, 4},
	}
	for _, c := range cases {
		e := &Ensemble{Members: members, Mode: c.mode}
		got, err := e.Forecast([]float64{1, 2}, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range got {
			if v != c.want {
				t.Errorf("mode %v: forecast = %v, want %v", c.mode, v, c.want)
			}
		}
	}
	// Even-member median averages the middle pair.
	e := &Ensemble{Members: members[:2], Mode: EnsembleMedian}
	got, _ := e.Forecast([]float64{1}, 1)
	if got[0] != 3 {
		t.Errorf("even median = %v, want 3", got[0])
	}
}

func TestEnsembleSkipsFailingMembers(t *testing.T) {
	e := &Ensemble{
		Members: []Forecaster{
			fixedForecaster{name: "bad", err: errors.New("boom")},
			fixedForecaster{name: "ok", vals: []float64{7}},
		},
		Mode: EnsembleMean,
	}
	got, err := e.Forecast([]float64{1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 {
		t.Errorf("forecast = %v, want surviving member's 7", got[0])
	}
	// All failing: first error surfaces.
	all := &Ensemble{Members: []Forecaster{
		fixedForecaster{name: "x", err: errors.New("first")},
		fixedForecaster{name: "y", err: errors.New("second")},
	}}
	if _, err := all.Forecast([]float64{1}, 1); err == nil || !strings.Contains(err.Error(), "first") {
		t.Errorf("err = %v, want first member's error", err)
	}
}

func TestEnsembleWithRealMembers(t *testing.T) {
	hist := sinusoid(240, 60, 5, 2)
	e := &Ensemble{
		Members: []Forecaster{
			&SeasonalNaive{Season: 60},
			&MovingAverage{Window: 30},
			&SeasonalNaive{Season: 1},
		},
		Mode: EnsembleMax,
	}
	got, err := e.Forecast(hist, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 {
		t.Fatalf("len = %d", len(got))
	}
	for _, v := range got {
		if v < 0 {
			t.Fatal("negative ensemble forecast")
		}
	}
	// Max-mode never under-predicts any member.
	sn, _ := (&SeasonalNaive{Season: 60}).Forecast(hist, 30)
	for i := range got {
		if got[i] < sn[i]-1e-9 {
			t.Fatalf("max ensemble below member at %d", i)
		}
	}
	if !strings.HasPrefix(e.Name(), "ensemble-max(") {
		t.Errorf("name = %q", e.Name())
	}
}

func TestEnsembleZeroHorizon(t *testing.T) {
	e := &Ensemble{Members: []Forecaster{&SeasonalNaive{Season: 1}}}
	got, err := e.Forecast([]float64{1}, 0)
	if err != nil || got != nil {
		t.Errorf("zero horizon: %v, %v", got, err)
	}
}
