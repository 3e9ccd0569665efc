package pvp

import "math"

// ScalingFactorParams configures the Eq. 3 scaling-factor function
//
//	SF(s, skew) = log(skewWeight·skew·s + c_min)
//
// which converts a PvP-curve slope into the number of cores to scale by.
// The logarithmic decay gives aggressive multi-core jumps when the slope
// (throttling severity) is large and gentle single-core micro-adjustments
// when it is small — Figure 6's shape.
type ScalingFactorParams struct {
	// CMin is the c_min guardrail of Eq. 3: the minimum cores required to
	// operate the pod. It both floors the log argument (so SF is defined
	// at s = 0) and anchors small-slope behaviour.
	CMin float64
	// SkewWeight scales the skew multiplier; it is the calibration knob
	// the paper derives from observing sophisticated customers' manual
	// scaling decisions. Default 1.0.
	SkewWeight float64
}

// ScalingFactor evaluates SF(s, skew) = ln(skewWeight·skew·s + c_min) in
// cores (fractional; Algorithm 1 rounds and clamps it afterwards).
// Negative or NaN inputs are treated as zero; the log argument is floored
// at 1 so the factor is never negative.
func ScalingFactor(s, skew float64, p ScalingFactorParams) float64 {
	if s < 0 || math.IsNaN(s) {
		s = 0
	}
	if skew < 0 || math.IsNaN(skew) {
		skew = 0
	}
	w := p.SkewWeight
	if w <= 0 {
		w = 1
	}
	arg := w*skew*s + p.CMin
	if arg < 1 {
		arg = 1
	}
	return math.Log(arg)
}

// ScalingFactorCurve tabulates SF over a slope range — the data behind the
// paper's Figure 6.
func ScalingFactorCurve(skew float64, p ScalingFactorParams, sMax float64, n int) (slopes, factors []float64) {
	if n < 2 {
		n = 2
	}
	slopes = make([]float64, n)
	factors = make([]float64, n)
	for i := 0; i < n; i++ {
		s := sMax * float64(i) / float64(n-1)
		slopes[i] = s
		factors[i] = ScalingFactor(s, skew, p)
	}
	return slopes, factors
}
