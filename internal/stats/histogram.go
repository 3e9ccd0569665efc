package stats

import (
	"errors"
	"fmt"
	"math"
)

// DecayingHistogram is an exponentially decaying histogram of CPU samples,
// modelled after the primitive inside the Kubernetes Vertical Pod Autoscaler
// recommender (paper §3.3): bucket boundaries grow geometrically so that
// relative resolution is constant across the core range, each added sample
// carries a weight that doubles every half-life, and percentile queries
// return the upper bound of the bucket containing the requested cumulative
// weight.
//
// The VPA baseline in internal/baselines feeds one-minute CPU usage samples
// into this histogram and reads its 90th percentile.
type DecayingHistogram struct {
	bounds    []float64 // ascending bucket upper bounds; last is +Inf
	weights   []float64
	total     float64
	halfLife  float64 // in the caller's time unit (minutes in this repo)
	refTime   float64 // reference time for weight normalisation
	firstBase float64
	growth    float64
}

// DecayingHistogramOptions configures a DecayingHistogram.
type DecayingHistogramOptions struct {
	// FirstBucket is the upper bound of the first bucket, in cores.
	// The real VPA uses 0.01 cores.
	FirstBucket float64
	// Growth is the geometric growth ratio between consecutive bucket
	// widths. The real VPA uses 1.05.
	Growth float64
	// MaxValue is the largest representable sample; samples above it fall
	// into the final catch-all bucket.
	MaxValue float64
	// HalfLife is the exponential decay half-life, in the same time unit
	// as the timestamps passed to Add (minutes in this repo). The real
	// VPA uses 24 hours.
	HalfLife float64
}

// NewDecayingHistogram builds a histogram with geometrically growing
// buckets covering (0, MaxValue] plus a final overflow bucket.
func NewDecayingHistogram(opts DecayingHistogramOptions) (*DecayingHistogram, error) {
	if opts.FirstBucket <= 0 {
		return nil, errors.New("stats: FirstBucket must be positive")
	}
	if opts.Growth <= 1 {
		return nil, errors.New("stats: Growth must exceed 1")
	}
	if opts.MaxValue <= opts.FirstBucket {
		return nil, errors.New("stats: MaxValue must exceed FirstBucket")
	}
	if opts.HalfLife <= 0 {
		return nil, errors.New("stats: HalfLife must be positive")
	}
	var bounds []float64
	b := opts.FirstBucket
	for b < opts.MaxValue {
		bounds = append(bounds, b)
		b *= opts.Growth
	}
	bounds = append(bounds, opts.MaxValue)
	bounds = append(bounds, math.Inf(1))
	return &DecayingHistogram{
		bounds:    bounds,
		weights:   make([]float64, len(bounds)),
		halfLife:  opts.HalfLife,
		firstBase: opts.FirstBucket,
		growth:    opts.Growth,
	}, nil
}

// bucketFor returns the index of the bucket whose range contains v.
func (h *DecayingHistogram) bucketFor(v float64) int {
	// Binary search over the ascending bounds.
	lo, hi := 0, len(h.bounds)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Add records sample value v observed at time t (same unit as HalfLife)
// with the given base weight. Weights are normalised so that a sample at
// time t carries 2^(t/halfLife) relative weight; this is numerically
// re-based when the exponent grows large.
func (h *DecayingHistogram) Add(v, weight, t float64) {
	if weight <= 0 || v < 0 || math.IsNaN(v) {
		return
	}
	w := weight * math.Exp2((t-h.refTime)/h.halfLife)
	if w > 1e12 {
		// Re-base all weights to keep the arithmetic in a sane range.
		scale := math.Exp2((h.refTime - t) / h.halfLife)
		for i := range h.weights {
			h.weights[i] *= scale
		}
		h.total *= scale
		h.refTime = t
		w = weight
	}
	h.weights[h.bucketFor(v)] += w
	h.total += w
}

// Percentile returns the value at cumulative weight fraction q ∈ [0, 1]:
// the upper bound of the first bucket at which the running weight reaches
// q·total. An empty histogram returns 0.
func (h *DecayingHistogram) Percentile(q float64) float64 {
	if h.total <= 0 {
		return 0
	}
	q = Clamp(q, 0, 1)
	target := q * h.total
	var cum float64
	for i, w := range h.weights {
		cum += w
		if cum >= target && w > 0 {
			if math.IsInf(h.bounds[i], 1) {
				// Overflow bucket: report the last finite bound.
				return h.bounds[i-1]
			}
			return h.bounds[i]
		}
	}
	// Numerical slack: return the largest non-empty bucket bound.
	for i := len(h.weights) - 1; i >= 0; i-- {
		if h.weights[i] > 0 {
			if math.IsInf(h.bounds[i], 1) && i > 0 {
				return h.bounds[i-1]
			}
			return h.bounds[i]
		}
	}
	return 0
}

// Empty reports whether the histogram holds no weight.
func (h *DecayingHistogram) Empty() bool { return h.total <= 0 }

// String summarises the histogram for debugging.
func (h *DecayingHistogram) String() string {
	return fmt.Sprintf("DecayingHistogram{buckets=%d total=%.3f p50=%.3f p90=%.3f}",
		len(h.bounds), h.total, h.Percentile(0.5), h.Percentile(0.9))
}
