package recommend

import (
	"math"

	"caasper/internal/core"
)

// RAM is sized with Zerops' dual-threshold rule: scale up when free
// memory falls below the HIGHER of an absolute min-free floor and a
// percent-free floor (a fraction of the granted allocation). The absolute
// floor protects small allocations where a percentage is meaningless;
// the percentage protects large ones where a fixed floor is too tight.
// Scale-down uses the same threshold with a hysteresis multiplier so
// allocations don't flap around the boundary.
const (
	ramMinFreeGB  = 0.5 // absolute free-memory floor
	ramMinFreePct = 0.2 // keep 20% of the grant free
	ramStepUpGB   = 4   // cap on one upward step
	ramStepDownGB = 2   // cap on one downward step
	ramDownFactor = 2   // shrink only when free exceeds 2 × the threshold
)

// RAMTarget recommends an integer RAM allocation in [minGB, maxGB] given
// the current allocation and the peak resident usage (GB) observed over
// the decision window. Deterministic: pure integer/float arithmetic.
func RAMTarget(allocGB int, peakUsedGB float64, minGB, maxGB int) int {
	if allocGB < minGB {
		allocGB = minGB
	}
	// The dual-threshold floor: max(ramMinFreeGB, ramMinFreePct × alloc).
	thr := ramMinFreeGB
	if pct := ramMinFreePct * float64(allocGB); pct > thr {
		thr = pct
	}
	free := float64(allocGB) - peakUsedGB

	// The allocation both thresholds would be satisfied at.
	needed := int(math.Ceil(peakUsedGB + ramMinFreeGB))
	if n := int(math.Ceil(peakUsedGB / (1 - ramMinFreePct))); n > needed {
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
		if target > allocGB+ramStepUpGB {
			target = allocGB + ramStepUpGB
		}
		if target <= allocGB {
			target = allocGB + 1
		}
		if target > maxGB {
			target = maxGB
		}
		return target
	case free > ramDownFactor*thr: // comfortably over: shrink, capped step
		target := allocGB - ramStepDownGB
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

// Disk is grow-only: shrinking a volume in place is destructive on every
// major CaaS, so the target is monotone in the high-water usage mark.
const (
	diskHeadroomPct = 0.2 // keep 20% of the volume free
	diskStepGB      = 5   // round growth up to a multiple of 5 GB
)

// DiskTarget recommends an integer volume size ≥ allocGB that keeps
// diskHeadroomPct free above the high-water usage mark, rounded up to a
// diskStepGB multiple and clamped to maxGB (0: unbounded).
func DiskTarget(allocGB int, usedGB float64, maxGB int) int {
	need := int(math.Ceil(usedGB / (1 - diskHeadroomPct)))
	if rem := need % diskStepGB; rem != 0 {
		need += diskStepGB - rem
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

// NextResources is the one vector decision rule. From the CPU target a
// recommender proposed, the current grants, the decision window's peaks
// and the bounds, it returns the next grants:
//
//   - CPU is the proposed target clamped to its bounds (lim.Clamp);
//   - RAM, when managed (lim.Max.RAMGB > 0), follows the dual-threshold
//     RAMTarget against the peak per-pod demand;
//   - disk, when the tenant has a volume (cur.DiskGB > 0), only grows,
//     off the high-water usage (DiskTarget; lim.Max.DiskGB 0 leaves it
//     unbounded);
//   - replicas, when horizontal is set (stateless tiers only), overflow
//     vertical-first: one is added only when the clamped CPU target pins
//     at the per-pod ceiling and the peak total demand exceeds what the
//     set carries with headroom (lim.Max.Replicas 0 is unbounded); one is removed only
//     when the target is off the ceiling and the smaller set, never below
//     max(lim.Min.Replicas, 1) pods, would still carry the peak with the
//     same headroom.
//
// Every other dimension keeps its current grant, so a CPU-only vector
// comes back CPU-only.
func NextResources(cpu int, cur core.Resources, peak WindowPeaks, lim core.Limits, horizontal bool) core.Resources {
	next := cur
	next.CPUCores = lim.Clamp(core.Resources{CPUCores: cpu}).CPUCores
	if lim.Max.RAMGB > 0 {
		next.RAMGB = RAMTarget(cur.RAMGB, peak.RAMGB, lim.Min.RAMGB, lim.Max.RAMGB)
	}
	if cur.DiskGB > 0 {
		next.DiskGB = DiskTarget(cur.DiskGB, peak.DiskGB, lim.Max.DiskGB)
	}
	if horizontal {
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
