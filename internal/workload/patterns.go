// Package workload synthesizes every CPU workload used in the paper's
// evaluation: the 62-hour step workload of §3.3 (Fig. 3), the 12-hour
// "workday" of §6.2 (Fig. 9), the 3-day cyclical load of §6.2 (Fig. 10),
// the Stitcher-style recreated customer trace of §6.2 (Fig. 11), the
// Alibaba-like container traces of §6.3 (Fig. 14 / Table 3), and the
// BenchBase-style transaction mixes (TPC-C / TPC-H / YCSB) that drive the
// live-system database simulator.
//
// Generators are deterministic: all noise comes from explicit seeds.
package workload

import (
	"math"
	"time"

	"caasper/internal/stats"
	"caasper/internal/trace"
)

// Pattern maps a time offset (in minutes from trace start) to CPU demand in
// cores. Patterns are composable building blocks; Render evaluates one into
// a concrete Trace on a one-minute grid.
type Pattern func(minute float64) float64

// Render evaluates the pattern over the duration at one-minute resolution.
func Render(name string, p Pattern, duration time.Duration) *trace.Trace {
	n := int(duration / time.Minute)
	values := make([]float64, n)
	for i := range values {
		v := p(float64(i))
		if v < 0 {
			v = 0
		}
		values[i] = v
	}
	return trace.New(name, time.Minute, values)
}

// Constant returns a pattern with a fixed demand level.
func Constant(level float64) Pattern {
	return func(float64) float64 { return level }
}

// TracePattern adapts a rendered trace back into a Pattern with step
// interpolation — the bridge from trace-level workloads to the live
// transaction simulator, which samples demand at sub-minute resolution.
func TracePattern(tr *trace.Trace) Pattern {
	return func(m float64) float64 {
		idx := int(m / (float64(tr.Interval) / float64(time.Minute)))
		return tr.At(idx)
	}
}

// Step alternates between low and high demand, holding each level for
// holdMinutes. The paper's §3.3 control workload is exactly this shape:
// 8 hours at ~2–3 cores, then 8 hours at ~7 cores, repeating.
func Step(low, high, holdMinutes float64) Pattern {
	period := 2 * holdMinutes
	return func(m float64) float64 {
		if math.Mod(m, period) < holdMinutes {
			return low
		}
		return high
	}
}

// Sine oscillates around mean with the given amplitude and period.
func Sine(mean, amplitude, periodMinutes float64) Pattern {
	return func(m float64) float64 {
		return mean + amplitude*math.Sin(2*math.Pi*m/periodMinutes)
	}
}

// Diurnal models a daily cycle: a smooth rise to `peak` during "business
// hours" and decay to `base` overnight, with the busy window centred at
// peakMinuteOfDay (e.g. 13*60 for 1pm).
func Diurnal(base, peak, peakMinuteOfDay float64) Pattern {
	const day = 24 * 60
	return func(m float64) float64 {
		tod := math.Mod(m, day)
		// Raised-cosine bump centred at the peak, 12h wide.
		d := math.Abs(tod - peakMinuteOfDay)
		if d > day/2 {
			d = day - d
		}
		w := 0.5 * (1 + math.Cos(math.Pi*math.Min(d, 360)/360))
		return base + (peak-base)*w
	}
}

// Spike adds a burst of the given height over [startMinute, startMinute+width).
func Spike(base Pattern, startMinute, width, height float64) Pattern {
	return func(m float64) float64 {
		v := base(m)
		if m >= startMinute && m < startMinute+width {
			v += height
		}
		return v
	}
}

// Ramp linearly interpolates demand from `from` to `to` over the window
// [startMinute, startMinute+width), holding `from` before and `to` after.
func Ramp(from, to, startMinute, width float64) Pattern {
	return func(m float64) float64 {
		switch {
		case m < startMinute:
			return from
		case m >= startMinute+width:
			return to
		default:
			frac := (m - startMinute) / width
			return from + (to-from)*frac
		}
	}
}

// Piecewise concatenates segments: each segment holds its pattern for its
// duration, then the next begins (with time rebased to the segment start).
// After the last segment the final pattern keeps running.
type Segment struct {
	Pattern Pattern
	Minutes float64
}

// Piecewise builds a pattern from consecutive segments.
func Piecewise(segments ...Segment) Pattern {
	return func(m float64) float64 {
		var offset float64
		for i, s := range segments {
			if m < offset+s.Minutes || i == len(segments)-1 {
				return s.Pattern(m - offset)
			}
			offset += s.Minutes
		}
		return 0
	}
}

// Repeat tiles the pattern with the given period.
func Repeat(p Pattern, periodMinutes float64) Pattern {
	return func(m float64) float64 {
		return p(math.Mod(m, periodMinutes))
	}
}

// Add sums patterns pointwise.
func Add(ps ...Pattern) Pattern {
	return func(m float64) float64 {
		var v float64
		for _, p := range ps {
			v += p(m)
		}
		return v
	}
}

// WithNoise perturbs a pattern with Gaussian noise of the given standard
// deviation, floored at zero. The RNG is consumed sample by sample, so the
// pattern must be evaluated on a monotone grid (as Render does) for
// reproducibility.
func WithNoise(p Pattern, sd float64, rng *stats.RNG) Pattern {
	return func(m float64) float64 {
		v := p(m) + rng.NormFloat64()*sd
		if v < 0 {
			return 0
		}
		return v
	}
}

// WithJitter multiplies the pattern by (1 ± up to frac) uniform noise.
func WithJitter(p Pattern, frac float64, rng *stats.RNG) Pattern {
	return func(m float64) float64 {
		v := p(m) * (1 + rng.Range(-frac, frac))
		if v < 0 {
			return 0
		}
		return v
	}
}
