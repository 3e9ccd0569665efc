package sim

import (
	"strings"
	"testing"

	"time"

	"caasper/internal/baselines"
	"caasper/internal/core"
	"caasper/internal/recommend"
	"caasper/internal/trace"
	"caasper/internal/workload"
)

func testFactories() []RecommenderFactory {
	return []RecommenderFactory{
		{Name: "control", New: func() (recommend.Recommender, error) {
			return baselines.NewControl(8), nil
		}},
		{Name: "caasper", New: func() (recommend.Recommender, error) {
			return recommend.NewCaaSPERReactive(core.DefaultConfig(12), 40)
		}},
		{Name: "vpa", New: func() (recommend.Recommender, error) {
			return baselines.NewKubernetesVPA(baselines.DefaultKubernetesVPAOptions(12))
		}},
	}
}

func TestRunMatrixValidation(t *testing.T) {
	tr := workload.Workday12h(1)
	if _, err := RunMatrix(nil, testFactories(), Options{}); err == nil {
		t.Error("no traces should fail")
	}
	if _, err := RunMatrix([]*trace.Trace{tr}, nil, Options{}); err == nil {
		t.Error("no factories should fail")
	}
}

func TestRunMatrixCrossProduct(t *testing.T) {
	traces := []*trace.Trace{
		workload.Workday12h(1),
		workload.StepTrace62h(1),
	}
	factories := testFactories()
	// Max.CPUCores 0: per-trace ladders derived from each trace's peak.
	m, err := RunMatrix(traces, factories, Options{
		DecisionEveryMinutes: 10,
		ResizeDelayMinutes:   10,
		BillingPeriod:        defaultBillingPeriod(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != len(traces)*len(factories) {
		t.Fatalf("cells = %d, want %d", len(m.Cells), len(traces)*len(factories))
	}
	// Every cell is addressable.
	for _, tr := range traces {
		for _, f := range factories {
			if m.Cell(tr.Name, f.Name) == nil {
				t.Errorf("missing cell %s/%s", tr.Name, f.Name)
			}
		}
	}
	if m.Cell("nope", "caasper") != nil {
		t.Error("unknown cell should be nil")
	}
	// CaaSPER should beat the fixed control on slack for both traces.
	for _, tr := range traces {
		ctrl := m.Cell(tr.Name, "control")
		ca := m.Cell(tr.Name, "caasper")
		if ca.SumSlack >= ctrl.SumSlack {
			// Control at 8 cores may itself be tight on the step trace;
			// only require CaaSPER not to be wildly worse.
			if ca.SumSlack > ctrl.SumSlack*1.5 {
				t.Errorf("%s: caasper slack %v vs control %v", tr.Name, ca.SumSlack, ctrl.SumSlack)
			}
		}
	}
	// Summary renders every cell.
	s := m.Summary()
	for _, f := range factories {
		if !strings.Contains(s, f.Name) {
			t.Errorf("summary missing %s:\n%s", f.Name, s)
		}
	}
}

func TestRunMatrixFactoryErrorPropagates(t *testing.T) {
	traces := []*trace.Trace{workload.Workday12h(1)}
	bad := []RecommenderFactory{{Name: "broken", New: func() (recommend.Recommender, error) {
		return recommend.NewCaaSPERReactive(core.Config{}, 40) // invalid config
	}}}
	if _, err := RunMatrix(traces, bad, DefaultOptions(4, 8)); err == nil {
		t.Error("factory error should propagate")
	}
}

func defaultBillingPeriod() (d time.Duration) { return time.Hour }
