package recommend

import (
	"math"

	"caasper/internal/core"
)

// MemoryPolicy sizes the RAM dimension with Zerops' dual-threshold rule:
// scale up when free memory falls below the HIGHER of an absolute
// min-free floor (GB) and a percent-free floor (fraction of the granted
// allocation). The absolute floor protects small allocations where a
// percentage is meaningless; the percentage protects large ones where a
// fixed floor is too tight. Scale-down uses the same threshold with a
// hysteresis multiplier so allocations don't flap around the boundary.
type MemoryPolicy struct {
	// MinFreeGB is the absolute free-memory floor (default 0.5 GB).
	MinFreeGB float64
	// MinFreePct is the fractional free-memory floor, 0–1 exclusive
	// (default 0.2, i.e. keep 20% of the grant free).
	MinFreePct float64
	// MaxStepUpGB caps a single upward step (default 4 GB).
	MaxStepUpGB int
	// MaxStepDownGB caps a single downward step (default 2 GB).
	MaxStepDownGB int
	// DownFactor scales the threshold for shrinking: only shrink when
	// free exceeds DownFactor × threshold (default 2 — hysteresis).
	DownFactor float64
}

// DefaultMemoryPolicy returns the production-shaped defaults.
func DefaultMemoryPolicy() MemoryPolicy {
	return MemoryPolicy{MinFreeGB: 0.5, MinFreePct: 0.2, MaxStepUpGB: 4, MaxStepDownGB: 2, DownFactor: 2}
}

func (p MemoryPolicy) withDefaults() MemoryPolicy {
	d := DefaultMemoryPolicy()
	if p.MinFreeGB <= 0 {
		p.MinFreeGB = d.MinFreeGB
	}
	if p.MinFreePct <= 0 || p.MinFreePct >= 1 {
		p.MinFreePct = d.MinFreePct
	}
	if p.MaxStepUpGB < 1 {
		p.MaxStepUpGB = d.MaxStepUpGB
	}
	if p.MaxStepDownGB < 1 {
		p.MaxStepDownGB = d.MaxStepDownGB
	}
	if p.DownFactor < 1 {
		p.DownFactor = d.DownFactor
	}
	return p
}

// Threshold is the dual-threshold free-memory floor for an allocation:
// max(MinFreeGB, MinFreePct × allocGB). Higher wins.
func (p MemoryPolicy) Threshold(allocGB float64) float64 {
	p = p.withDefaults()
	if pct := p.MinFreePct * allocGB; pct > p.MinFreeGB {
		return pct
	}
	return p.MinFreeGB
}

// Target recommends an integer RAM allocation in [minGB, maxGB] given
// the current allocation and the peak resident usage (GB) observed over
// the decision window. Deterministic: pure integer/float arithmetic.
func (p MemoryPolicy) Target(allocGB int, peakUsedGB float64, minGB, maxGB int) int {
	p = p.withDefaults()
	if allocGB < minGB {
		allocGB = minGB
	}
	thr := p.Threshold(float64(allocGB))
	free := float64(allocGB) - peakUsedGB

	// The allocation both thresholds would be satisfied at.
	needed := int(math.Ceil(peakUsedGB + p.MinFreeGB))
	if n := int(math.Ceil(peakUsedGB / (1 - p.MinFreePct))); n > needed {
		needed = n
	}
	if needed < minGB {
		needed = minGB
	}
	if needed > maxGB {
		needed = maxGB
	}

	switch {
	case free < thr: // under-provisioned: grow toward needed, capped step
		target := needed
		if target > allocGB+p.MaxStepUpGB {
			target = allocGB + p.MaxStepUpGB
		}
		if target <= allocGB {
			target = allocGB + 1
		}
		if target > maxGB {
			target = maxGB
		}
		return target
	case free > p.DownFactor*thr: // comfortably over: shrink, capped step
		target := allocGB - p.MaxStepDownGB
		if target < needed {
			target = needed
		}
		if target < minGB {
			target = minGB
		}
		if target > allocGB {
			target = allocGB
		}
		return target
	default:
		return allocGB
	}
}

// DiskPolicy sizes persistent volumes. Disk is grow-only (shrinking a
// volume in place is destructive on every major CaaS), so the target is
// monotone in the high-water usage mark.
type DiskPolicy struct {
	// HeadroomPct keeps this fraction of the volume free (default 0.2).
	HeadroomPct float64
	// StepGB rounds growth up to a multiple of this (default 5 GB).
	StepGB int
}

// DefaultDiskPolicy returns the grow-only defaults.
func DefaultDiskPolicy() DiskPolicy { return DiskPolicy{HeadroomPct: 0.2, StepGB: 5} }

func (p DiskPolicy) withDefaults() DiskPolicy {
	d := DefaultDiskPolicy()
	if p.HeadroomPct <= 0 || p.HeadroomPct >= 1 {
		p.HeadroomPct = d.HeadroomPct
	}
	if p.StepGB < 1 {
		p.StepGB = d.StepGB
	}
	return p
}

// Target recommends an integer volume size ≥ allocGB (grow-only) that
// keeps HeadroomPct free above the high-water usage mark, rounded up to
// a StepGB multiple and clamped to maxGB.
func (p DiskPolicy) Target(allocGB int, usedGB float64, maxGB int) int {
	p = p.withDefaults()
	need := int(math.Ceil(usedGB / (1 - p.HeadroomPct)))
	if rem := need % p.StepGB; rem != 0 {
		need += p.StepGB - rem
	}
	if need <= allocGB {
		return allocGB // grow-only: never shrink
	}
	if maxGB > 0 && need > maxGB {
		need = maxGB
	}
	if need < allocGB {
		return allocGB
	}
	return need
}

// horizontalHeadroom is the fraction of a replica set's vertical ceiling
// kept free: overflow adds a replica once the peak total CPU demand runs
// hotter than 75% of the current set's ceiling, and removes one only when
// the smaller set would still carry that peak under the same 75%.
const horizontalHeadroom = 0.25

// WindowPeaks is what one decision window observed of the signals the
// non-CPU dimensions size against.
type WindowPeaks struct {
	// RAMGB is the peak per-pod RAM demand.
	RAMGB float64
	// DiskGB is the high-water per-pod disk usage.
	DiskGB float64
	// TotalCPU is the peak CPU demand of the whole replica set, in cores.
	TotalCPU float64
}

// VectorPolicy holds the per-dimension policies of a resource vector.
// The zero value runs the RAM and disk defaults with horizontal scaling
// off.
type VectorPolicy struct {
	Mem  MemoryPolicy
	Disk DiskPolicy
	// Horizontal allows replica moves (stateless tiers only).
	Horizontal bool
}

// NextResources is the one vector decision rule. From the CPU target a
// recommender proposed, the current grants, the decision window's peaks
// and the bounds, it returns the next grants:
//
//   - CPU is the proposed target clamped to its bounds (lim.Clamp);
//   - RAM, when managed (lim.Max.RAMGB > 0), follows the dual-threshold
//     MemoryPolicy against the peak per-pod demand;
//   - disk, when the tenant has a volume (cur.DiskGB > 0), only grows,
//     off the high-water usage (lim.Max.DiskGB 0 leaves it unbounded);
//   - replicas, when pol.Horizontal is set, overflow vertical-first: one
//     is added only when the clamped CPU target pins at the per-pod
//     ceiling and the peak total demand exceeds what the set carries with
//     headroom (lim.Max.Replicas 0 is unbounded); one is removed only
//     when the target is off the ceiling and the smaller set, never below
//     max(lim.Min.Replicas, 1) pods, would still carry the peak with the
//     same headroom.
//
// Every other dimension keeps its current grant, so a CPU-only vector
// comes back CPU-only.
func NextResources(cpu int, cur core.Resources, peak WindowPeaks, lim core.Limits, pol VectorPolicy) core.Resources {
	next := cur
	next.CPUCores = lim.Clamp(core.Resources{CPUCores: cpu}).CPUCores
	if lim.Max.RAMGB > 0 {
		next.RAMGB = pol.Mem.Target(cur.RAMGB, peak.RAMGB, lim.Min.RAMGB, lim.Max.RAMGB)
	}
	if cur.DiskGB > 0 {
		next.DiskGB = pol.Disk.Target(cur.DiskGB, peak.DiskGB, lim.Max.DiskGB)
	}
	if pol.Horizontal {
		next.Replicas = nextReplicas(next.CPUCores, cur.Replicas, peak.TotalCPU, lim)
	}
	return next
}

// nextReplicas is NextResources' vertical-first overflow rule for a set
// of reps pods whose CPU target is target.
func nextReplicas(target, reps int, peakTotal float64, lim core.Limits) int {
	maxCores, maxR := lim.Max.CPUCores, lim.Max.Replicas
	minR := max(lim.Min.Replicas, 1)
	ceiling := float64(maxCores*reps) * (1 - horizontalHeadroom)
	smaller := float64(maxCores*(reps-1)) * (1 - horizontalHeadroom)
	switch {
	case target >= maxCores && peakTotal > ceiling && (maxR == 0 || reps < maxR):
		return reps + 1
	case reps > minR && target < maxCores && peakTotal <= smaller:
		return reps - 1
	}
	return reps
}
