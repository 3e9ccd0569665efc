// Package pvp implements the price-vs-performance curve machinery that
// CaaSPER's reactive algorithm is built on (paper §4.1–§4.2).
//
// A PvP curve, introduced by Doppler and refactored here to the CPU-only
// form the paper uses, maps each candidate SKU (an integer core count) to
// 1 − P(throttling), where P(throttling) is the empirical probability that
// the workload's CPU demand exceeds that SKU's capacity (Eq. 1). The
// curve's *slope* at the currently allocated core count signals whether
// the allocation is under-provisioned (steep), right-sized (moderate) or
// over-provisioned (flat tail), and the slope's magnitude approximates the
// severity of throttling — the paper's key observation. The scaling-factor
// function SF(s, skew) = log(skew·s + c_min) (Eq. 3) converts a slope into
// the number of cores to scale by.
package pvp

import (
	"errors"
	"fmt"
	"math"

	"caasper/internal/errs"
	"caasper/internal/stats"
)

// SKURange describes the candidate SKU ladder: every integer core count in
// [MinCores, MaxCores]. It corresponds to the "system inputs R" of
// Algorithm 1 (resource limit such as max CPU, granularity per core).
type SKURange struct {
	// MinCores is the smallest SKU offered (and the operational floor
	// c_min: Database A mandates 2 cores in the paper).
	MinCores int
	// MaxCores is the largest SKU offered (bounded by machine size).
	MaxCores int
	// PricePerCore is the per-core price used for cost annotations. Only
	// ratios matter in this repository; the default of 1.0 is fine.
	PricePerCore float64
}

// Validate checks range invariants. Failures wrap errs.ErrInvalidConfig.
func (r SKURange) Validate() error {
	if r.MinCores < 1 {
		return fmt.Errorf("pvp: MinCores must be ≥ 1: %w", errs.ErrInvalidConfig)
	}
	if r.MaxCores < r.MinCores {
		return fmt.Errorf("pvp: MaxCores must be ≥ MinCores: %w", errs.ErrInvalidConfig)
	}
	return nil
}

// Count returns the number of SKUs on the ladder.
func (r SKURange) Count() int { return r.MaxCores - r.MinCores + 1 }

// Point is one SKU's entry on a PvP curve.
type Point struct {
	// Cores is the SKU's core count.
	Cores int
	// Performance is 1 − P(throttling) for this SKU under the workload,
	// in [0, 1]. Higher is better.
	Performance float64
	// MonthlyPrice is the SKU's price (Cores × PricePerCore).
	MonthlyPrice float64
}

// Curve is a personalised price-vs-performance curve: one Point per SKU,
// ascending in cores, derived from an observed (and possibly forecast-
// extended) CPU usage window.
type Curve struct {
	Points []Point
	Range  SKURange
	// slopes caches the scaled forward differences, computed once at
	// build time. Decide evaluates the slope three ways per decision
	// (SlopeAt, Skew, FlatTailAt); recomputing the full vector each time
	// was the dominant per-decision cost.
	slopes []float64
	// buckets is BuildCurveInto's reusable exceed-count histogram
	// (Count()+1 slots), making the rebuild O(samples + SKUs) instead of
	// O(samples × SKUs).
	buckets []int
}

// SlopeScale converts raw per-core probability differences into the slope
// units used throughout the paper: the raw forward difference of the
// [0, 1]-valued curve is multiplied by this factor, so the paper's "small"
// slope range 0–2 corresponds to ≤ 0.2 probability mass per core and its
// inflection-point examples (s ≈ 1.4 at heavy throttling) land where the
// figures show them.
const SlopeScale = 10.0

// BuildCurve constructs the PvP curve for a usage window (Eq. 1 restricted
// to the CPU dimension): for each SKU with capacity R_i cores,
//
//	P(throttling | SKU_i) = fraction of samples with usage > R_i·(1-eps)
//
// where eps is a small tolerance that treats samples pinned at a cap as
// exceeding it — observed usage can never exceed the current limit, so a
// sample *at* the limit is evidence of throttling, not of a perfect fit.
// This is exactly why the paper's Figure 5a trace (capped at 8 cores)
// produces a steep slope at the 8-core SKU.
func BuildCurve(usage []float64, r SKURange) (*Curve, error) {
	c := &Curve{}
	if err := BuildCurveInto(c, usage, r); err != nil {
		return nil, err
	}
	return c, nil
}

// BuildCurveInto rebuilds c for a new usage window, reusing the point and
// slope storage left over from earlier builds — the per-decision
// allocation cut exploited by the simulator's hot loop, where one curve is
// rebuilt per decision tick over thousands of ticks. The resulting curve
// is indistinguishable from a fresh BuildCurve result.
func BuildCurveInto(c *Curve, usage []float64, r SKURange) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if len(usage) == 0 {
		return errors.New("pvp: empty usage window")
	}
	const eps = 0.02 // 2% of capacity: "at the cap" counts as throttled
	price := r.PricePerCore
	if price <= 0 {
		price = 1
	}
	k := r.Count()
	points := c.Points[:0]
	if cap(points) < k {
		points = make([]Point, 0, k)
	}

	// One histogram pass instead of a per-SKU scan: the per-SKU exceed
	// predicate u > cores·(1−eps) is monotone in cores, so each sample
	// contributes to a contiguous prefix of the ladder. Bucket every
	// sample by the LARGEST core count it still exceeds (found by an
	// estimate plus an exact-predicate fixup, so float rounding at the
	// boundary cannot diverge from the direct comparison), then a single
	// suffix sum yields every SKU's exceed count. The resulting counts —
	// and therefore every Performance value — are bit-identical to the
	// O(samples × SKUs) scan.
	// Small ladders (the common case) histogram into a stack array, so
	// even one-shot BuildCurve calls pay no extra allocation; only ladders
	// wider than the array fall back to the reusable heap buffer. The
	// heap slice is stored through its own variable — never through
	// `buckets` — so the stack array cannot be forced to escape.
	var stack [64]int
	var buckets []int
	switch {
	case k+1 <= len(stack):
		buckets = stack[:k+1] // zeroed at declaration
	case cap(c.buckets) >= k+1:
		buckets = c.buckets[:k+1]
		for i := range buckets {
			buckets[i] = 0
		}
	default:
		grown := make([]int, k+1)
		c.buckets = grown
		buckets = grown
	}
	const factor = 1 - eps
	for _, u := range usage {
		// Largest cores in [MinCores-1, MaxCores] with u > cores·factor
		// (MinCores-1 encodes "exceeds none"). int(u/factor) lands within
		// one of the truth for finite u; NaN/±Inf hit the clamps and the
		// exact-predicate loops leave them on the correct side.
		hi := int(u / factor)
		if !(hi >= r.MinCores-1) { // also catches NaN conversions
			hi = r.MinCores - 1
		}
		if hi > r.MaxCores {
			hi = r.MaxCores
		}
		for hi < r.MaxCores && u > float64(hi+1)*factor {
			hi++
		}
		for hi >= r.MinCores && !(u > float64(hi)*factor) {
			hi--
		}
		buckets[hi-(r.MinCores-1)]++
	}

	// exceed for the t-th SKU (cores = MinCores+t) = Σ_{j>t} buckets[j].
	exceed := 0
	for t := k; t >= 1; t-- {
		exceed += buckets[t]
		// Filled in ladder order below; stash the suffix sum in place.
		buckets[t] = exceed
	}
	for t := 0; t < k; t++ {
		cores := r.MinCores + t
		p := float64(buckets[t+1]) / float64(len(usage))
		points = append(points, Point{
			Cores:        cores,
			Performance:  1 - p,
			MonthlyPrice: float64(cores) * price,
		})
	}
	c.Points = points
	c.Range = r
	c.slopes = appendSlopes(c.slopes[:0], points)
	return nil
}

// appendSlopes appends the scaled forward differences of the points'
// performance values to dst and returns it (nil when fewer than 2 points).
func appendSlopes(dst []float64, points []Point) []float64 {
	if len(points) < 2 {
		return nil
	}
	if cap(dst) < len(points)-1 {
		dst = make([]float64, 0, len(points)-1)
	}
	for i := 0; i+1 < len(points); i++ {
		dst = append(dst, (points[i+1].Performance-points[i].Performance)*SlopeScale)
	}
	return dst
}

// Performance returns 1 − P(throttling) at the given core count, clamping
// to the ladder's endpoints.
func (c *Curve) Performance(cores int) float64 {
	idx := stats.ClampInt(cores-c.Range.MinCores, 0, len(c.Points)-1)
	return c.Points[idx].Performance
}

// Slopes returns the scaled forward differences of the curve: out[i] is
// the slope between SKU i and SKU i+1 (length Count-1). All slopes are
// non-negative because performance is monotone non-decreasing in cores.
// Curves built by BuildCurve return their cached slope vector — treat the
// result as read-only.
func (c *Curve) Slopes() []float64 {
	if c.slopes != nil || len(c.Points) < 2 {
		return c.slopes
	}
	// Hand-assembled curve (no build-time cache): compute fresh without
	// mutating c, so concurrent readers stay race-free.
	return appendSlopes(nil, c.Points)
}

// SlopeAt returns the slope at the given core count: the scaled increase
// in performance from moving one core *up* from cores. At the top of the
// ladder the slope is 0 by definition (no larger SKU exists). Below the
// bottom it returns the first slope.
func (c *Curve) SlopeAt(cores int) float64 {
	slopes := c.Slopes()
	if len(slopes) == 0 {
		return 0
	}
	idx := cores - c.Range.MinCores
	if idx < 0 {
		idx = 0
	}
	if idx >= len(slopes) {
		return 0
	}
	return slopes[idx]
}

// Skew returns the Fisher–Pearson skewness of the curve's slope
// distribution, floored at zero. A high skew indicates that the usage
// probability mass is concentrated at one end of the SKU ladder — the
// condition under which the paper scales more aggressively (Eq. 3).
func (c *Curve) Skew() float64 {
	sk := stats.Skewness(c.Slopes())
	if sk < 0 || math.IsNaN(sk) {
		return 0
	}
	return sk
}

// FlatTailAt reports whether the given core count sits on the flat
// over-provisioned tail of the curve (paper Figure 7b): zero slope at the
// allocation with performance already at the curve's maximum.
func (c *Curve) FlatTailAt(cores int) bool {
	if c.SlopeAt(cores) != 0 {
		return false
	}
	top := c.Points[len(c.Points)-1].Performance
	return c.Performance(cores) >= top
}

// WalkDown walks left from the given core count to the cheapest SKU whose
// performance still meets perfTarget (e.g. 1.0 for "100% of observations
// under capacity"). It returns the current cores unchanged if no cheaper
// SKU qualifies. This implements the scale-down mechanism of Algorithm 1
// line 12–13 for heavily over-provisioned customers.
func (c *Curve) WalkDown(cores int, perfTarget float64) int {
	best := cores
	for k := cores - 1; k >= c.Range.MinCores; k-- {
		if c.Performance(k) >= perfTarget {
			best = k
		} else {
			break
		}
	}
	return best
}

// String renders a compact description for logs and explanations.
func (c *Curve) String() string {
	if len(c.Points) == 0 {
		return "Curve{}"
	}
	return fmt.Sprintf("Curve{%d SKUs %d..%d cores, perf %.2f..%.2f}",
		len(c.Points), c.Range.MinCores, c.Range.MaxCores,
		c.Points[0].Performance, c.Points[len(c.Points)-1].Performance)
}
