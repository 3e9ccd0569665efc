package experiments

import (
	"fmt"
	"strings"

	"caasper/internal/baselines"
	"caasper/internal/core"
	"caasper/internal/forecast"
	"caasper/internal/recommend"
	"caasper/internal/sim"
	"caasper/internal/workload"
)

// Figure3Result holds the §3.3/Figure 3 recommender comparison: the same
// 62-hour step workload run under fixed limits (3a), the default K8s VPA
// (3b), an OpenShift-style predictive VPA (3c) and CaaSPER (3d).
type Figure3Result struct {
	// Control, VPA, OpenShift, CaaSPER are the four runs.
	Control, VPA, OpenShift, CaaSPER *sim.Result
	// VPASlackReduction and CaaSPERSlackReduction are vs the control
	// (paper: 61% and 78.3%).
	VPASlackReduction     float64
	CaaSPERSlackReduction float64
	// OpenShiftThroughput is the predictive baseline's throughput share
	// (paper: throttled to ~27%, a 73% reduction).
	OpenShiftThroughput float64
	// CaaSPERThroughput is CaaSPER's throughput share (paper: 90–100%).
	CaaSPERThroughput float64
	// Report is the formatted comparison.
	Report string
}

// Figure3 reproduces the Figure 3 comparison. seed controls workload
// noise; the paper's trace alternates 8 h at ~2–3 cores with 8 h at ~7
// cores for 62 hours, with control limits fixed at 14 cores and a 2-core
// scale-down floor.
func Figure3(seed uint64) (*Figure3Result, error) {
	tr := workload.StepTrace62h(seed)
	const controlCores = 14
	opts := sim.DefaultOptions(controlCores, controlCores)

	control, err := sim.Run(tr, baselines.NewControl(controlCores), opts)
	if err != nil {
		return nil, fmt.Errorf("control: %w", err)
	}

	vpaRec, err := baselines.NewKubernetesVPA(baselines.DefaultKubernetesVPAOptions(controlCores))
	if err != nil {
		return nil, err
	}
	vpa, err := sim.Run(tr, vpaRec, opts)
	if err != nil {
		return nil, fmt.Errorf("vpa: %w", err)
	}

	osRec, err := baselines.NewOpenShiftVPA(baselines.DefaultOpenShiftVPAOptions(controlCores))
	if err != nil {
		return nil, err
	}
	// The OpenShift run starts from the predictive recommender's own
	// low initial estimate (the paper's cold-start throttling).
	osOpts := opts
	osOpts.Resources.Initial.CPUCores = 2
	osRun, err := sim.Run(tr, osRec, osOpts)
	if err != nil {
		return nil, fmt.Errorf("openshift: %w", err)
	}

	// CaaSPER proactive: daily seasonality (the workload's period is
	// 16 h; a 16-hour season captures it).
	season := 16 * 60
	caRec, err := recommend.NewCaaSPERProactive(
		core.DefaultConfig(controlCores),
		&forecast.SeasonalNaive{Season: season},
		40, 30, season)
	if err != nil {
		return nil, err
	}
	ca, err := sim.Run(tr, caRec, opts)
	if err != nil {
		return nil, fmt.Errorf("caasper: %w", err)
	}

	res := &Figure3Result{
		Control:               control,
		VPA:                   vpa,
		OpenShift:             osRun,
		CaaSPER:               ca,
		VPASlackReduction:     vpa.SlackReductionVs(control),
		CaaSPERSlackReduction: ca.SlackReductionVs(control),
		OpenShiftThroughput:   osRun.ThroughputProxy(),
		CaaSPERThroughput:     ca.ThroughputProxy(),
	}

	tb := NewTable("Figure 3 — recommender comparison on the 62h step workload",
		"recommender", "sum slack K", "sum insuff C", "scalings N", "throttled obs", "throughput", "slack vs ctrl", "cost vs ctrl")
	for _, r := range []*sim.Result{control, vpa, osRun, ca} {
		tb.AddRow(r.Recommender, r.SumSlack, r.SumInsufficient, r.NumScalings,
			pct(r.ThrottledPct), pct(r.ThroughputProxy()),
			"-"+pct(r.SlackReductionVs(control)), ratio(r.CostRatioVs(control)))
	}
	var b strings.Builder
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "\npaper: VPA slack -61%%, CaaSPER slack -78.3%%, OpenShift throughput ~27%%, CaaSPER throughput 90-100%%\n")
	res.Report = b.String()
	return res, nil
}
