// Package core implements the CaaSPER autoscaling decision algorithm
// (paper §4, Algorithm 1): the reactive PvP-curve-driven decision rule and
// the proactive forecast-extended variant (Eq. 4, Figure 8).
//
// The package is deliberately free of any Kubernetes or simulator types:
// its input is the current core count plus a CPU usage window, its output
// a Decision with the core delta and a human-readable explanation (the
// paper's interpretability requirement R6). internal/sim replays traces
// through it; internal/k8s runs it inside the control loop.
package core

import (
	"fmt"
	"math"

	"caasper/internal/errs"
	"caasper/internal/pvp"
)

// Config carries every "Require:" input of Algorithm 1 plus the rounding
// and buffering choices §4.2 discusses. The zero value is not usable; use
// DefaultConfig as a starting point.
type Config struct {
	// SKUs is the candidate core ladder (system inputs R of Algorithm 1:
	// resource limit, price per core, per-core granularity).
	SKUs pvp.SKURange

	// SlopeHigh is s_h: slopes at or above it trigger scale-up.
	SlopeHigh float64
	// SlopeLow is s_l: slopes at or below it make scale-down admissible.
	SlopeLow float64

	// SlackHigh is m_h: the high-slack threshold as a fraction of
	// capacity. If the usage quantile reaches (1−m_h)·cores, the buffer
	// is too thin and the algorithm scales up even with a modest slope.
	SlackHigh float64
	// SlackLow is m_l: if the usage quantile falls to m_l·cores or
	// below, most capacity is idle and scale-down is admissible.
	SlackLow float64

	// MaxStepUp is SF_h, the maximum single-step scale-up in cores.
	MaxStepUp int
	// MaxStepDown is SF_l, the maximum single-step scale-down in cores.
	// The flat-tail walk-down (Figure 7b) is exempt: a severely
	// over-provisioned pod may step down further in one decision.
	MaxStepDown int

	// MinCores is c_min, the operational floor (Database A mandates 2).
	MinCores int

	// QuantileP is the usage quantile compared against the slack
	// thresholds (the Quantile({X_t}) of Algorithm 1). Default 0.95.
	QuantileP float64

	// SF configures the Eq. 3 scaling-factor function.
	SF pvp.ScalingFactorParams

	// WalkDownPerfTarget is the performance level (1−P(throttling)) the
	// walk-down must preserve; 1.0 means every observed sample stays
	// under the new capacity (the paper's "meet the workload
	// requirements at 100% utilization").
	WalkDownPerfTarget float64

	// RoundUp, when true, rounds fractional scaling factors up instead
	// of down. The paper rounds down ("the result is rounded down
	// (configurable)").
	RoundUp bool
}

// DefaultConfig returns the paper-flavoured defaults used across the
// experiments: 2-core floor, P95 slack tests, a 10%-of-capacity head-room
// buffer, 30%-idle scale-down trigger, and 8-core/2-core max steps.
func DefaultConfig(maxCores int) Config {
	return Config{
		SKUs:               pvp.SKURange{MinCores: 1, MaxCores: maxCores, PricePerCore: 1},
		SlopeHigh:          2.0,
		SlopeLow:           0.2,
		SlackHigh:          0.10,
		SlackLow:           0.30,
		MaxStepUp:          8,
		MaxStepDown:        2,
		MinCores:           2,
		QuantileP:          0.95,
		SF:                 pvp.ScalingFactorParams{CMin: 2, SkewWeight: 4},
		WalkDownPerfTarget: 1.0,
	}
}

// Validate checks configuration invariants. Every failure wraps
// errs.ErrInvalidConfig, so callers can branch with errors.Is.
func (c Config) Validate() error {
	if err := c.SKUs.Validate(); err != nil {
		return err
	}
	// NaN slips through every range check below (each comparison is
	// false), so the float fields are screened for finiteness first.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"SlopeHigh", c.SlopeHigh},
		{"SlopeLow", c.SlopeLow},
		{"SlackHigh", c.SlackHigh},
		{"SlackLow", c.SlackLow},
		{"QuantileP", c.QuantileP},
		{"WalkDownPerfTarget", c.WalkDownPerfTarget},
		{"SF.CMin", c.SF.CMin},
		{"SF.SkewWeight", c.SF.SkewWeight},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("core: %s %v is not finite: %w", f.name, f.v, errs.ErrInvalidConfig)
		}
	}
	if c.MinCores < 1 {
		return fmt.Errorf("core: MinCores must be ≥ 1: %w", errs.ErrInvalidConfig)
	}
	if c.MinCores > c.SKUs.MaxCores {
		return fmt.Errorf("core: MinCores %d exceeds MaxCores %d: %w", c.MinCores, c.SKUs.MaxCores, errs.ErrInvalidConfig)
	}
	if c.SlopeHigh < c.SlopeLow {
		return fmt.Errorf("core: SlopeHigh %v below SlopeLow %v: %w", c.SlopeHigh, c.SlopeLow, errs.ErrInvalidConfig)
	}
	if c.SlackHigh < 0 || c.SlackHigh >= 1 {
		return fmt.Errorf("core: SlackHigh %v out of [0,1): %w", c.SlackHigh, errs.ErrInvalidConfig)
	}
	if c.SlackLow < 0 || c.SlackLow >= 1 {
		return fmt.Errorf("core: SlackLow %v out of [0,1): %w", c.SlackLow, errs.ErrInvalidConfig)
	}
	if c.MaxStepUp < 1 {
		return fmt.Errorf("core: MaxStepUp must be ≥ 1: %w", errs.ErrInvalidConfig)
	}
	if c.MaxStepDown < 1 {
		return fmt.Errorf("core: MaxStepDown must be ≥ 1: %w", errs.ErrInvalidConfig)
	}
	if c.QuantileP <= 0 || c.QuantileP > 1 {
		return fmt.Errorf("core: QuantileP %v out of (0,1]: %w", c.QuantileP, errs.ErrInvalidConfig)
	}
	if c.WalkDownPerfTarget <= 0 || c.WalkDownPerfTarget > 1 {
		return fmt.Errorf("core: WalkDownPerfTarget %v out of (0,1]: %w", c.WalkDownPerfTarget, errs.ErrInvalidConfig)
	}
	return nil
}
