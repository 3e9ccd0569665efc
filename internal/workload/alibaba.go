package workload

import (
	"fmt"
	"sort"
	"time"

	"caasper/internal/stats"
	"caasper/internal/trace"
)

// This file synthesizes stand-ins for the Alibaba 2018 cluster-trace
// containers evaluated in §6.3 (Fig. 14 / Table 3). The original dataset
// is not redistributable and unavailable offline, so each trace ID maps to
// a seeded generator encoding the shape visible in the paper's plots and
// implied by its metrics table:
//
//	c_1      — strong diurnal cycle, 0–8 cores, moderate noise (Fig. 14a)
//	c_4043   — small, steady service ≈0.5–1.5 cores, very low slack trace
//	c_10235  — gentle diurnal 0–3 cores, no throttling in the paper
//	c_12104  — wide-swing bursty trace (highest avg slack 3.94 in Table 3)
//	c_23544  — medium diurnal with occasional bursts
//	c_24173  — noisy 0–3 core trace with frequent small oscillations
//	          (373 scalings in Table 3)
//	c_26742  — very bursty 0–3.5 cores (most scalings, 443, and the
//	          highest throttled-observation share, 1.21%)
//	c_29247  — ~0–6 cores with a huge Day-3 outlier spike to ~20 cores
//	          (Fig. 14e; the naïve forecaster projects the spike forward,
//	          inflating slack on Days 4–6)
//	c_29345  — large diurnal service with elevated baseline
//	c_29759  — well-behaved diurnal, low slack and almost no throttling
//	c_48113  — big stepped batch workload 0–20 cores with long flat
//	          plateaus (only 38 scalings in Table 3; Fig. 14f)
//
// All traces are 8 days at one-minute resolution (≈11.5k points, matching
// the paper's "around 11k data points"), already rescaled from millicores
// to whole-core ranges the way §6.3 describes.

// AlibabaIDs lists the trace identifiers in the order the paper reports
// them (Table 3).
var AlibabaIDs = []string{
	"c_1", "c_4043", "c_10235", "c_12104", "c_23544", "c_24173",
	"c_26742", "c_29247", "c_29345", "c_29759", "c_48113",
}

const alibabaDays = 8

// AlibabaTrace synthesizes the stand-in trace for the given ID. The seed
// offsets the generator so test suites can produce independent replicas;
// pass 0 for the canonical trace. Unknown IDs return an error.
func AlibabaTrace(id string, seed uint64) (*trace.Trace, error) {
	gen, ok := alibabaGenerators[id]
	if !ok {
		return nil, fmt.Errorf("workload: unknown alibaba trace %q (known: %v)", id, AlibabaIDs)
	}
	rng := stats.NewRNG(hashID(id) ^ seed)
	p := gen(rng)
	tr := Render(id, p, alibabaDays*24*time.Hour)
	tr.Sanitize()
	return tr, nil
}

func hashID(id string) uint64 {
	var h uint64 = 14695981039346656037 // FNV-1a
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return h
}

var alibabaGenerators = map[string]func(*stats.RNG) Pattern{
	"c_1": func(rng *stats.RNG) Pattern {
		return WithNoise(Diurnal(1.0, 7.0, 14*60), 0.5, rng)
	},
	"c_4043": func(rng *stats.RNG) Pattern {
		return WithNoise(Sine(1.0, 0.3, 6*60), 0.12, rng)
	},
	"c_10235": func(rng *stats.RNG) Pattern {
		return WithNoise(Diurnal(0.5, 2.5, 13*60), 0.18, rng)
	},
	"c_12104": func(rng *stats.RNG) Pattern {
		base := Diurnal(1.0, 5.0, 12*60)
		// Irregular tall bursts force a wide guard band => high slack.
		bursty := Add(base, randomBursts(rng.Fork(), alibabaDays, 3, 4.5, 90))
		return WithNoise(bursty, 0.4, rng)
	},
	"c_23544": func(rng *stats.RNG) Pattern {
		base := Diurnal(0.8, 3.0, 15*60)
		return WithNoise(Add(base, randomBursts(rng.Fork(), alibabaDays, 2, 1.5, 45)), 0.25, rng)
	},
	"c_24173": func(rng *stats.RNG) Pattern {
		// Fast oscillation induces frequent scalings.
		return WithNoise(Add(Sine(1.4, 0.7, 3*60), Sine(0, 0.25, 75)), 0.06, rng)
	},
	"c_26742": func(rng *stats.RNG) Pattern {
		base := Sine(1.2, 0.5, 2*60)
		return WithNoise(Add(base, randomBursts(rng.Fork(), alibabaDays, 8, 0.7, 45)), 0.08, rng)
	},
	"c_29247": func(rng *stats.RNG) Pattern {
		base := Diurnal(1.0, 5.0, 13*60)
		// The huge Day-3 outlier spike: ~20 cores for about two hours.
		spiked := Spike(base, 2*24*60+13*60, 120, 15)
		return WithNoise(spiked, 0.35, rng)
	},
	"c_29345": func(rng *stats.RNG) Pattern {
		return WithNoise(Diurnal(3.0, 9.0, 12*60), 0.5, rng)
	},
	"c_29759": func(rng *stats.RNG) Pattern {
		return WithNoise(Diurnal(0.6, 2.4, 14*60), 0.12, rng)
	},
	"c_48113": func(rng *stats.RNG) Pattern {
		// Batch workload: long plateaus at distinct levels.
		day := Piecewise(
			Segment{Pattern: Constant(2), Minutes: 6 * 60},
			Segment{Pattern: Constant(16), Minutes: 8 * 60},
			Segment{Pattern: Constant(8), Minutes: 4 * 60},
			Segment{Pattern: Constant(2), Minutes: 6 * 60},
		)
		return WithNoise(Repeat(day, 24*60), 0.4, rng)
	},
}

// randomBursts produces a pattern of nPerDay random spikes per day, each
// `height` cores tall and `width` minutes wide, at deterministic positions
// drawn from rng.
func randomBursts(rng *stats.RNG, days, nPerDay int, height, width float64) Pattern {
	type burst struct{ start, end float64 }
	var bursts []burst
	for d := 0; d < days; d++ {
		for i := 0; i < nPerDay; i++ {
			start := float64(d*24*60) + rng.Float64()*(24*60-width)
			bursts = append(bursts, burst{start, start + width})
		}
	}
	sort.Slice(bursts, func(i, j int) bool { return bursts[i].start < bursts[j].start })
	return func(m float64) float64 {
		// Linear scan is fine: burst counts are tiny and Render is the
		// only caller pattern, evaluated once per trace point.
		for _, b := range bursts {
			if m >= b.start && m < b.end {
				return height
			}
			if b.start > m {
				break
			}
		}
		return 0
	}
}
