package experiments

import (
	"fmt"
	"strings"

	"caasper/internal/core"
	"caasper/internal/pvp"
	"caasper/internal/workload"
)

// Figure4Result holds the slope-driven single-step scale-up example of
// Figure 4: a customer capped at 3 cores whose PvP-curve slope triggers a
// multi-core jump that right-sizes the pod in one decision.
type Figure4Result struct {
	// Slope and Skew are the curve readings at the 3-core allocation.
	Slope, Skew float64
	// RawSF is the fractional Eq. 3 scaling factor (paper: 3.73).
	RawSF float64
	// TargetCores is the decision (paper: 6 after rounding down).
	TargetCores int
	// PostScaleThrottled reports whether the workload still throttles
	// at the new allocation.
	PostScaleThrottled bool
	Report             string
}

// Figure4 reproduces the Figure 4 scale-up-at-inflection example.
func Figure4(seed uint64) (*Figure4Result, error) {
	capped := workload.ThrottledAt3(seed)
	cfg := core.DefaultConfig(16)
	// Calibrated as in the paper's example: the skew weight derived from
	// observing expert customers makes ln(skew·s + c_min) land at ≈3.7
	// for a hard-capped 3-core workload, which rounds down to a +3 jump.
	cfg.SF.SkewWeight = 0.7
	rec, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	d, err := rec.Decide(3, capped.Values)
	if err != nil {
		return nil, err
	}

	// Post-decision check: the true ~6-core demand against the new
	// allocation.
	demand := workload.Render("demand", workload.Constant(6), 60)
	throttled := false
	for _, v := range demand.Values {
		if v > float64(d.Target.CPUCores) {
			throttled = true
			break
		}
	}

	res := &Figure4Result{
		Slope:              d.Slope,
		Skew:               d.Skew,
		RawSF:              d.RawSF,
		TargetCores:        d.Target.CPUCores,
		PostScaleThrottled: throttled,
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 — slope-driven scale-up from a 3-core cap\n")
	fmt.Fprintf(&b, "slope s=%.2f skew=%.2f SF=%.2f -> target %d cores (branch %s)\n",
		d.Slope, d.Skew, d.RawSF, d.Target.CPUCores, d.Branch)
	fmt.Fprintf(&b, "explanation: %s\n", d.Explanation)
	fmt.Fprintf(&b, "paper: slope 1.38 -> SF 3.73 -> rounded to 6 cores, post-scale utilization fits\n")
	res.Report = b.String()
	return res, nil
}

// Figure5Result holds the two PvP-curve examples of Figure 5: a workload
// throttled at its 8-core limit (steep slope) and a right-sized workload
// at 32 cores (moderate slope).
type Figure5Result struct {
	// ThrottledSlope is the slope at 8 cores on the capped trace.
	ThrottledSlope float64
	// HealthySlope is the slope at 32 cores on the healthy trace.
	HealthySlope float64
	// ThrottledCurve and HealthyCurve are the full curves (the figure's
	// right column).
	ThrottledCurve, HealthyCurve *pvp.Curve
	Report                       string
}

// Figure5 reproduces the two curves of Figure 5.
func Figure5(seed uint64) (*Figure5Result, error) {
	capped := workload.ThrottledAt8(seed)
	healthy := workload.HealthyAt32(seed)

	tc, err := pvp.BuildCurve(capped.Values, pvp.SKURange{MinCores: 1, MaxCores: 32})
	if err != nil {
		return nil, err
	}
	hc, err := pvp.BuildCurve(healthy.Values, pvp.SKURange{MinCores: 1, MaxCores: 40})
	if err != nil {
		return nil, err
	}
	res := &Figure5Result{
		ThrottledSlope: tc.SlopeAt(8),
		HealthySlope:   hc.SlopeAt(32),
		ThrottledCurve: tc,
		HealthyCurve:   hc,
	}
	tb := NewTable("Figure 5 — PvP curves for a throttled and a right-sized workload",
		"workload", "limit", "slope at limit", "perf at limit", "perf one core up")
	tb.AddRow("throttled (capped at 8)", 8, res.ThrottledSlope, tc.Performance(8), tc.Performance(9))
	tb.AddRow("right-sized (32 cores)", 32, res.HealthySlope, hc.Performance(32), hc.Performance(33))
	var b strings.Builder
	b.WriteString(tb.String())
	b.WriteString("paper: the throttled workload shows a steep slope at its limit; the right-sized one neither steep nor flat\n")
	res.Report = b.String()
	return res, nil
}

// Figure6Result tabulates the scaling-factor function SF(s) of Figure 6.
type Figure6Result struct {
	Slopes, Factors []float64
	Report          string
}

// Figure6 reproduces the SF(s) shape: logarithmic decay, aggressive for
// large slopes and gentle near zero.
func Figure6() *Figure6Result {
	params := pvp.ScalingFactorParams{CMin: 2, SkewWeight: 8}
	slopes, factors := pvp.ScalingFactorCurve(1.0, params, 10, 21)
	res := &Figure6Result{Slopes: slopes, Factors: factors}
	tb := NewTable("Figure 6 — scaling factor SF(s) over PvP-curve slope s", "slope s", "SF (cores)")
	for i := range slopes {
		tb.AddRow(slopes[i], factors[i])
	}
	var b strings.Builder
	b.WriteString(tb.String())
	b.WriteString("paper: logarithmic decay - large s scales up aggressively, small s makes micro-adjustments\n")
	res.Report = b.String()
	return res
}

// Figure7Result holds the two curve shapes of Figure 7: a typical
// under-provisioned curve (positive slope at the allocation) and a flat
// over-provisioned tail whose walk-down recommends a large single-step
// scale-down.
type Figure7Result struct {
	// UnderSlope is the slope at the under-provisioned allocation.
	UnderSlope float64
	// OverSlope is the slope on the flat tail (0).
	OverSlope float64
	// WalkDownDelta is the recommended scale-down from 12 cores
	// (paper: "almost 8 cores").
	WalkDownDelta int
	Report        string
}

// Figure7 reproduces the Figure 7 curve-shape contrast.
func Figure7(seed uint64) (*Figure7Result, error) {
	under := workload.ThrottledAt3(seed)
	over := workload.OverProvisionedAt12(seed)

	uc, err := pvp.BuildCurve(under.Values, pvp.SKURange{MinCores: 1, MaxCores: 16})
	if err != nil {
		return nil, err
	}
	rec, err := core.New(core.DefaultConfig(16))
	if err != nil {
		return nil, err
	}
	d, err := rec.Decide(12, over.Values)
	if err != nil {
		return nil, err
	}
	oc, err := pvp.BuildCurve(over.Values, pvp.SKURange{MinCores: 1, MaxCores: 16})
	if err != nil {
		return nil, err
	}

	res := &Figure7Result{
		UnderSlope:    uc.SlopeAt(3),
		OverSlope:     oc.SlopeAt(12),
		WalkDownDelta: d.Delta,
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 — typical vs flat PvP curves\n")
	fmt.Fprintf(&b, "under-provisioned: slope at 3 cores = %.2f (positive -> scale-up territory)\n", res.UnderSlope)
	fmt.Fprintf(&b, "over-provisioned:  slope at 12 cores = %.2f (flat tail) -> walk-down %+d cores (branch %s)\n",
		res.OverSlope, d.Delta, d.Branch)
	fmt.Fprintf(&b, "explanation: %s\n", d.Explanation)
	fmt.Fprintf(&b, "paper: the flat-tail walk-down recommends scaling down by almost 8 cores\n")
	res.Report = b.String()
	return res, nil
}
