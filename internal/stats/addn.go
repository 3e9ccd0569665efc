package stats

import (
	"math"
	"math/bits"
)

// AddN returns s + x + … + x, the n additions made in order, bit for bit
// what `for ; n > 0; n-- { s += x }` returns, in O(binades crossed)
// rather than O(n) steps for a non-negative s and a finite positive x.
// The steps it cannot jump (see jump) are taken one plain s += x at a
// time, and a step that leaves s unchanged ends the sum: every later
// step would be the same.
func AddN(s, x float64, n int) float64 {
	for n > 0 {
		next, k := s+x, 1
		// A jump gains nothing over one plain step when one step is left,
		// or while s < 2x: the binade of s then holds at most this one step
		// (its room to the edge is at most s).
		if n > 1 && s >= 2*x {
			if j, jk, ok := jump(s, x, n); ok {
				next, k = j, jk
				if k < n { // the jump stopped at the edge: the next step crosses it
					next, k = next+x, k+1
				}
			}
		}
		if math.Float64bits(next) == math.Float64bits(s) {
			return s
		}
		s, n = next, n-k
	}
	return s
}

// jump takes as many of n steps s += x as stay inside the binade of s,
// k ≥ 1 of them, and returns the sum and k; ok is false when not even
// the first step can be jumped.
//
// Why a jump is exact: a non-negative finite s lies in a binade whose
// floats are the multiples of one spacing u, below an edge top (s = a·u,
// top = T·u with integers a < T; zero and the subnormals form one binade
// with u = 2⁻¹⁰⁷⁴). While the exact sum s + x stays below top, rounding it
// to nearest lands on the multiple of u nearest to it: s plus x rounded
// to a multiple of u, δ = m·u. That δ does not depend on s unless x mod u
// is exactly u/2, a tie, which rounds to the even multiple: δ is then the
// same for every even a. So k steps inside the binade add exactly k·δ,
// and a + k·m ≤ T is an exact integer, all found from the bits of s and
// x. A step is not jumped when it reaches top, when it is a tie from an
// odd a (one plain step makes a even), when s is negative, in the last
// binade or not finite, or when x is not finite and positive.
func jump(s, x float64, n int) (sum float64, k int, ok bool) {
	const mantBits, mant = 52, 1<<52 - 1
	sb, xb := math.Float64bits(s), math.Float64bits(x)
	// Biased exponents, the sign bit included: a negative s or x fails the
	// range checks.
	e, ex := int(sb>>mantBits), int(xb>>mantBits)
	if e >= 0x7fe || ex >= 0x7ff || xb == 0 {
		return 0, 0, false
	}
	// s = a·u and x = mx·2^(ex−1075) with u = 2^(e−1075), where e and ex
	// read 1 for zero and the subnormals; top = T·u.
	a, T, mx := int64(sb&mant), int64(1)<<mantBits, int64(xb&mant)
	if e == 0 {
		e = 1
	} else {
		a |= 1 << mantBits
		T <<= 1
	}
	if ex == 0 {
		ex = 1
	} else {
		mx |= 1 << mantBits
	}
	// x/u = c + r/2^shift: x rounds to m = c or c + 1 multiples of u.
	room := T - a
	var c, r, half int64
	switch shift := e - ex; {
	case shift > mantBits+1: // x < u/2: s + x rounds back to s, for good
		return s, n, true
	case shift > 0:
		c, r, half = mx>>shift, mx&(1<<shift-1), 1<<(shift-1)
	case shift >= -1: // x is a multiple of u
		c = mx << -shift
	default: // x is normal and at least 4·2⁵²·u, past top
		return 0, 0, false
	}
	if c >= room { // the first step reaches top
		return 0, 0, false
	}
	m := c
	switch {
	case r > half:
		m++
	case r == half && half > 0: // a tie rounds to the even neighbour
		if a&1 != 0 {
			return 0, 0, false
		}
		m += m & 1
	}
	if m == 0 {
		return s, n, true
	}
	// Step j (1-based) stays below top while a + (j−1)·m + x/u < T, that
	// is (j−1)·m ≤ lim; c < room makes lim ≥ 0. The product test spares
	// the division when all n steps fit.
	lim := room - c - 1
	k64 := int64(n)
	if hi, lo := bits.Mul64(uint64(n-1), uint64(m)); hi != 0 || lo > uint64(lim) {
		k64 = lim/m + 1
	}
	// a + k·m ≤ T: the bits (e−1)·2⁵² + a carry into the exponent exactly
	// when the sum reaches top.
	return math.Float64frombits(uint64(e-1)<<mantBits + uint64(a+k64*m)), int(k64), true
}
