package bench

import "sort"

// quantile returns the p-quantile of xs by linear interpolation between
// the closest ranks, sorting xs in place; 0 for an empty slice.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// Quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) (its default "exclusive" method), the
// definition the spread rule of BENCHMARK.json is stated in. A single
// value is its own quartiles; an empty slice gives zeros.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
