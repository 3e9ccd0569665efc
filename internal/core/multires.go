package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"caasper/internal/pvp"
	"caasper/internal/stats"
)

// This file implements the paper's §8 future-work direction "automatic
// scaling of other resource types, e.g., memory, disk": a multi-resource
// variant of the CaaSPER decision built on the general Doppler curve
// (pvp.MultiCurve). Per §4.2, "when scaling applications on top of
// platforms like K8s, each resource can be scaled independently and we
// can treat each resource scaling problem separately" — so the
// multi-resource recommender runs one Algorithm 1-style evaluation per
// dimension over that dimension's marginal usage distribution and emits
// an independent target per resource.

// ResourceLadder bounds one scalable dimension.
type ResourceLadder struct {
	// Min and Max bound the allocation in the dimension's native unit
	// (cores, GiB, ...).
	Min, Max int
	// Step is the allocation granularity (1 core; 4 GiB; ...).
	Step int
}

// Validate checks ladder invariants.
func (l ResourceLadder) Validate() error {
	if l.Min < 1 || l.Max < l.Min {
		return errors.New("core: bad resource ladder bounds")
	}
	if l.Step < 1 {
		return errors.New("core: ladder step must be ≥ 1")
	}
	return nil
}

// MultiResourceConfig configures a per-dimension decision.
type MultiResourceConfig struct {
	// Ladders maps dimension name → its allocation ladder.
	Ladders map[string]ResourceLadder
	// Base carries the shared Algorithm 1 thresholds (slope/slack bands,
	// step bounds, quantile). Its SKU ladder is overridden per
	// dimension.
	Base Config
}

// MultiResourceDecision is the per-dimension outcome.
type MultiResourceDecision struct {
	// Targets maps dimension name → recommended allocation (in the
	// dimension's native units).
	Targets map[string]int
	// PerDimension carries the full per-dimension decisions for
	// interpretability.
	PerDimension map[string]Decision
}

// AnyChange reports whether any dimension moved.
func (d MultiResourceDecision) AnyChange(current map[string]int) bool {
	for dim, target := range d.Targets {
		if target != current[dim] {
			return true
		}
	}
	return false
}

// MultiResourceRecommender evaluates independent per-dimension decisions.
type MultiResourceRecommender struct {
	cfg MultiResourceConfig
}

// NewMultiResource builds the recommender.
func NewMultiResource(cfg MultiResourceConfig) (*MultiResourceRecommender, error) {
	if len(cfg.Ladders) == 0 {
		return nil, errors.New("core: no resource ladders")
	}
	for dim, l := range cfg.Ladders {
		if err := l.Validate(); err != nil {
			return nil, fmt.Errorf("core: dimension %q: %w", dim, err)
		}
	}
	return &MultiResourceRecommender{cfg: cfg}, nil
}

// Decide evaluates every configured dimension against its marginal usage
// series drawn from the samples. current maps dimension → current
// allocation; dimensions present in Ladders but absent from current
// default to their ladder minimum.
func (m *MultiResourceRecommender) Decide(current map[string]int, samples []pvp.UsageSample) (MultiResourceDecision, error) {
	if len(samples) == 0 {
		return MultiResourceDecision{}, ErrNoUsage
	}
	out := MultiResourceDecision{
		Targets:      make(map[string]int, len(m.cfg.Ladders)),
		PerDimension: make(map[string]Decision, len(m.cfg.Ladders)),
	}
	// Deterministic iteration order for reproducible explanations.
	dims := make([]string, 0, len(m.cfg.Ladders))
	for dim := range m.cfg.Ladders {
		dims = append(dims, dim)
	}
	sort.Strings(dims)

	for _, dim := range dims {
		ladder := m.cfg.Ladders[dim]
		usage := marginal(samples, dim, ladder.Step)

		cfg := m.cfg.Base
		cfg.SKUs = pvp.SKURange{
			MinCores:     stepsFor(ladder.Min, ladder.Step),
			MaxCores:     stepsFor(ladder.Max, ladder.Step),
			PricePerCore: 1,
		}
		cfg.MinCores = cfg.SKUs.MinCores
		rec, err := New(cfg)
		if err != nil {
			return MultiResourceDecision{}, fmt.Errorf("core: dimension %q: %w", dim, err)
		}
		cur := current[dim]
		if cur < ladder.Min {
			cur = ladder.Min
		}
		d, err := rec.Decide(stepsFor(cur, ladder.Step), usage)
		if err != nil {
			return MultiResourceDecision{}, fmt.Errorf("core: dimension %q: %w", dim, err)
		}
		target := stats.ClampInt(d.Target.CPUCores*ladder.Step, ladder.Min, ladder.Max)
		d.Explanation = fmt.Sprintf("[%s] %s", dim, d.Explanation)
		out.Targets[dim] = target
		out.PerDimension[dim] = d
	}
	return out, nil
}

// marginal extracts one dimension's usage series, rescaled into ladder
// steps so the integral-SKU curve machinery applies unchanged.
func marginal(samples []pvp.UsageSample, dim string, step int) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		out = append(out, s[dim]/float64(step))
	}
	return out
}

// stepsFor converts a native-unit allocation into ladder steps, rounding
// up so capacity is never under-represented.
func stepsFor(nativeUnits, step int) int {
	return int(math.Ceil(float64(nativeUnits) / float64(step)))
}
