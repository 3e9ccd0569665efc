package core

import "caasper/internal/pvp"

// skewWays is the number of count vectors a scratch remembers the skew
// of. A plateau tenant's decisions cycle through a few windows: the last
// miss's vector recurs on a third of its misses, the last eight's on
// nearly all of them.
const skewWays = 8

// skewTable remembers the curve skew (Algorithm 1's lines 4–5) of a
// decision stream's last skewWays distinct slot-count vectors. The skew
// of a curve is a function of its ladder and its slot counts alone, and a
// scratch serves one ladder (a scratch handed to another recommender
// resets), so an entry stays valid for the scratch's lifetime. Keys are
// skewKey's exact encodings, so a hit returns the very float the
// computation would: no hash, no collision. An unused way holds key 0,
// which no non-empty window encodes to.
type skewTable struct {
	keys  [skewWays]uint64
	skews [skewWays]float64
	next  uint8 // the way the next store overwrites, round-robin
}

// skewKey encodes a slot-count vector with at most four non-zero counts
// exactly: each (slot, count) pair with a non-zero count becomes 16 bits,
// slot in the high byte and count in the low one, packed from the least
// significant end in slot order. A pair's count byte is never zero, so
// the pairs present, and with them the whole vector, read back from the
// key: distinct vectors of one length get distinct keys. ok is false for
// a vector the key cannot hold (a fifth non-zero slot, a slot index or a
// count above 255).
func skewKey(counts []int32) (key uint64, ok bool) {
	shift := 0
	for s, c := range counts {
		if c == 0 {
			continue
		}
		if shift == 64 || s > 0xff || uint32(c) > 0xff {
			return 0, false
		}
		key |= (uint64(s)<<8 | uint64(c)) << shift
		shift += 16
	}
	return key, true
}

// skew returns the skew of curve, built from counts: from the table when
// counts was seen in one of the scratch's last skewWays misses that
// stored, else computed and stored. The table is made at the scratch's
// second full evaluation, so a stream that evaluates once (a restored
// serve tenant deciding once before the next restart) never pays for it.
func (sc *Scratch) skew(curve *pvp.Curve, counts []int32) float64 {
	t := sc.skews
	if t == nil {
		if sc.evals < 2 {
			return curve.Skew()
		}
		t = new(skewTable)
		sc.skews = t
	}
	key, ok := skewKey(counts)
	if !ok {
		return curve.Skew()
	}
	for i, k := range t.keys {
		if k == key {
			return t.skews[i]
		}
	}
	v := curve.Skew()
	t.keys[t.next], t.skews[t.next] = key, v
	t.next = (t.next + 1) % skewWays
	return v
}

// scalingFactor is Eq. 3, pvp.ScalingFactor(s, skew, cfg.SF), without the
// logarithm when the product w·skew·s is zero: the argument is then
// 0 + c_min, floored at 1, the same as at s = skew = 0, whose factor New
// computed once. Only an exact zero takes the shortcut; a NaN product
// (an infinite slope times a zero skew) does not.
func (r *Recommender) scalingFactor(s, skew float64) float64 {
	if r.cfg.SF.Product(s, skew) == 0 {
		return r.sf0
	}
	return pvp.ScalingFactor(s, skew, r.cfg.SF)
}
