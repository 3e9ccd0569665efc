package stats

import "math"

// RNG is a small, fast, deterministic random number generator
// (xorshift64* core) used throughout the repository wherever randomness is
// needed: synthetic trace noise, random parameter search, arrival jitter.
// It exists so that every experiment is reproducible from an explicit seed
// and so that no package depends on global math/rand state.
type RNG struct {
	state uint64
	// spare holds a cached second normal deviate from the Box–Muller
	// transform (NormFloat64 produces two per trig evaluation).
	spare    float64
	hasSpare bool
}

// NewRNG returns a generator seeded with seed. A zero seed is remapped to a
// fixed non-zero constant (xorshift requires non-zero state).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	r := &RNG{state: seed}
	// Warm up: the first few xorshift outputs correlate with small seeds.
	for i := 0; i < 8; i++ {
		r.next()
	}
	return r
}

func (r *RNG) next() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.next() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// NormFloat64 returns a standard normal deviate via Box–Muller.
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u1 float64
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	mag := math.Sqrt(-2 * math.Log(u1))
	r.spare = mag * math.Sin(2*math.Pi*u2)
	r.hasSpare = true
	return mag * math.Cos(2*math.Pi*u2)
}

// LogUniform returns a value whose natural log is uniform in [lnLo, lnHi].
// The paper's Eq. 6 samples the slack-penalty coefficient alpha from a
// log-uniform (reciprocal) distribution.
func (r *RNG) LogUniform(lnLo, lnHi float64) float64 {
	return math.Exp(r.Range(lnLo, lnHi))
}

// Fork derives an independent child generator; useful for giving each
// parallel experiment its own deterministic stream.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.next())
}
