// Package stats provides the statistical primitives that the CaaSPER
// autoscaler and its evaluation harness are built on: descriptive statistics
// (means, variances, quantiles, skewness), an exponentially decaying
// histogram (the primitive behind the Kubernetes VPA baseline), a paired
// Student t-test (used to validate simulator correctness, paper §5), k-means
// clustering (used to select representative traces, paper §6.3), and a small
// deterministic random-number façade.
//
// Everything in this package is purely computational: no goroutines, no
// wall-clock time, no allocation beyond what the inputs require. All
// functions treat NaN and Inf inputs as programmer error unless documented
// otherwise.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by functions that cannot operate on empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// Sum returns the sum of xs. An empty slice sums to zero.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs, or zero for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance of xs.
// Samples of size < 2 have zero variance by convention.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Min returns the minimum of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// ErrNaNQuantile is returned when the requested quantile level is NaN.
var ErrNaNQuantile = errors.New("stats: quantile level is NaN")

// quantileRank validates and clamps q into [0, 1] and returns the R-7
// position q·(n−1) with its floor: the quantile interpolates between the
// lo-th and the ⌈pos⌉-th order statistics (0-based, ascending).
func quantileRank(n int, q float64) (pos float64, lo int, err error) {
	if n == 0 {
		return 0, 0, ErrEmpty
	}
	if math.IsNaN(q) {
		return 0, 0, ErrNaNQuantile
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	pos = q * float64(n-1)
	return pos, int(math.Floor(pos)), nil
}

// topMax bounds the top-m scan of QuantileMax: up to this many of the
// largest values are kept in a stack array; more fall back to quickselect.
const topMax = 8

// QuantileMax returns the q-quantile (0 ≤ q ≤ 1) of xs and its maximum
// in one read-only pass. The quantile interpolates linearly between
// closest ranks (the "R-7" method used by most statistics packages). It
// returns an error for an empty sample or a NaN q and clamps q into
// [0, 1]. xs is not modified.
//
// The quantile reads the order statistics at ascending ranks ⌊q·(n−1)⌋
// and ⌈q·(n−1)⌉, which are the m-th and (m−1)-th largest values for
// m = n − ⌊q·(n−1)⌋ (3 at P95 over a 40-sample window). When m ≤ topMax
// one scan keeps the m largest values sorted in a stack array; the
// quantile interpolates between its last two entries and the maximum is
// its first. Larger m copies xs into *spare (grown as needed and kept for
// the next call; a nil spare allocates) and quickselects there. Either
// way the order statistics are exact, so the quantile is bit-identical to
// QuantileSorted on a sorted copy, and the maximum to Max(xs).
func QuantileMax(xs []float64, q float64, spare *[]float64) (quantile, peak float64, err error) {
	pos, lo, err := quantileRank(len(xs), q)
	if err != nil {
		return 0, 0, err
	}
	m := len(xs) - lo
	if m > topMax {
		if spare == nil {
			spare = new([]float64)
		}
		*spare = append((*spare)[:0], xs...)
		v, err := quantileInPlace(*spare, q)
		return v, Max(xs), err
	}

	// top[:k] holds the k largest values seen so far, descending; a new
	// value lands after any equal ones, so top[0] is the first maximum in
	// xs, exactly as Max reports it.
	var top [topMax]float64
	k := 0
	for _, x := range xs {
		if k == m {
			if x <= top[m-1] {
				continue
			}
			k-- // x evicts the current m-th largest
		}
		j := k
		for j > 0 && top[j-1] < x {
			top[j] = top[j-1]
			j--
		}
		top[j] = x
		k++
	}
	vlo := top[m-1]
	if float64(lo) == pos {
		return vlo, top[0], nil
	}
	frac := pos - float64(lo)
	return vlo*(1-frac) + top[m-2]*frac, top[0], nil
}

// quantileInPlace is QuantileMax's quantile evaluated destructively in
// the caller's buffer: xs is partially reordered (no allocation).
// Bit-identical to QuantileSorted on a sorted copy.
func quantileInPlace(xs []float64, q float64) (float64, error) {
	pos, lo, err := quantileRank(len(xs), q)
	if err != nil {
		return 0, err
	}
	selectNth(xs, lo)
	vlo := xs[lo]
	if float64(lo) == pos {
		return vlo, nil
	}
	// ⌈pos⌉ == lo+1, and after selection everything right of lo is ≥ the
	// lo-th order statistic, so the next order statistic is the minimum
	// of the right part.
	vhi := Min(xs[lo+1:])
	frac := pos - float64(lo)
	return vlo*(1-frac) + vhi*frac, nil
}

// selectNth partially reorders xs so that xs[k] holds the k-th smallest
// element, everything left of k is ≤ xs[k] and everything right is ≥
// xs[k] (the classic nth-element contract). Deterministic median-of-three
// pivoting; small ranges fall back to insertion sort. Expected O(n).
func selectNth(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for hi-lo > 12 {
		// Median-of-three pivot, moved to xs[lo].
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]

		// Hoare partition.
		i, j := lo-1, hi+1
		for {
			for {
				i++
				if xs[i] >= pivot {
					break
				}
			}
			for {
				j--
				if xs[j] <= pivot {
					break
				}
			}
			if i >= j {
				break
			}
			xs[i], xs[j] = xs[j], xs[i]
		}
		// Elements lo..j are ≤ pivot, j+1..hi are ≥ pivot.
		if k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
	// Insertion sort the remaining small range; xs[k] lands exactly.
	for i := lo + 1; i <= hi; i++ {
		v := xs[i]
		j := i - 1
		for j >= lo && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}

// QuantileSorted is QuantileMax's quantile for inputs already sorted
// ascending. It avoids the defensive copy; callers on hot paths (the
// simulator evaluates a quantile per decision) should sort once and reuse.
func QuantileSorted(sorted []float64, q float64) (float64, error) {
	pos, lo, err := quantileRank(len(sorted), q)
	if err != nil {
		return 0, err
	}
	if float64(lo) == pos {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac, nil
}

// Skewness returns the Fisher–Pearson moment coefficient of skewness of xs
// (the adjusted, bias-corrected version used by common statistics packages).
// Samples of size < 3 or with zero variance have zero skewness by convention.
//
// CaaSPER uses the skewness of the PvP-curve slope distribution to modulate
// the scaling factor (paper Eq. 3): a strongly skewed slope distribution
// means the probability mass of the usage distribution is concentrated at
// one end, and scaling should be correspondingly more aggressive.
func Skewness(xs []float64) float64 {
	n := float64(len(xs))
	if n < 3 {
		return 0
	}
	m := Mean(xs)
	var m2, m3 float64
	for _, x := range xs {
		d := x - m
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= n
	m3 /= n
	if m2 <= 0 {
		return 0
	}
	g1 := m3 / math.Pow(m2, 1.5)
	// Bias correction: G1 = g1 * sqrt(n(n-1)) / (n-2).
	return g1 * math.Sqrt(n*(n-1)) / (n - 2)
}

// LinearFit fits y = a + b*x by ordinary least squares and returns the
// intercept a and slope b. xs and ys must have equal length ≥ 2; degenerate
// inputs (zero x-variance) yield b = 0 and a = mean(ys).
func LinearFit(xs, ys []float64) (a, b float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, errors.New("stats: LinearFit length mismatch")
	}
	if len(xs) < 2 {
		return 0, 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	if sxx == 0 {
		return my, 0, nil
	}
	b = sxy / sxx
	a = my - b*mx
	return a, b, nil
}

// Clamp limits v to the inclusive range [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ClampInt limits v to the inclusive range [lo, hi].
func ClampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
