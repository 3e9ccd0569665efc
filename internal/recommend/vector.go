package recommend

import (
	"fmt"

	"caasper/internal/core"
	"caasper/internal/errs"
	"caasper/internal/stats"
	win "caasper/internal/window"
)

// Vector upgrades a CPU Recommender to the full resource vector: CPU
// keeps the wrapped policy (Algorithm 1 or a baseline), RAM follows the
// dual-threshold MemoryPolicy over its own bounded ring window, disk is
// grow-only off a high-water mark, and — for stateless tiers — replicas
// overflow horizontally once the vertical CPU ceiling is pinned
// (vertical-first, the hybrid mode of the paper's §7 discussion).
//
// Vector still satisfies Recommender (Observe/Recommend see only the CPU
// dimension) so it drops into any seed call site; the vector surface is
// ObserveVector/RecommendVector.
type Vector struct {
	cpu  Recommender
	lim  core.Limits
	mem  MemoryPolicy
	disk DiskPolicy

	ram      *win.Ring // RAM usage window, GB
	diskHigh float64   // high-water disk usage, GB

	// HorizontalHeadroom is the spare fraction of the (replicas−1)
	// configuration that must cover peak total CPU demand before a
	// replica is removed (default 0.25).
	HorizontalHeadroom float64
	totalCPUPeak       float64 // peak replicas×usage since last decision

	last core.Decision
}

// NewVector wraps cpu with multi-resource policies. windowMinutes sizes
// the per-dimension observation rings (must be ≥ 1). Zero-valued
// policies take their defaults; lim must manage at least one non-CPU
// dimension.
func NewVector(cpu Recommender, lim core.Limits, mem MemoryPolicy, disk DiskPolicy, windowMinutes int) (*Vector, error) {
	if cpu == nil {
		return nil, fmt.Errorf("%w: vector recommender needs a CPU policy", errs.ErrInvalidConfig)
	}
	if windowMinutes < 1 {
		return nil, fmt.Errorf("%w: vector window must be ≥ 1 minute", errs.ErrInvalidConfig)
	}
	if !lim.Multi() {
		return nil, fmt.Errorf("%w: vector recommender needs at least one managed non-CPU dimension", errs.ErrInvalidConfig)
	}
	return &Vector{
		cpu:                cpu,
		lim:                lim,
		mem:                mem.withDefaults(),
		disk:               disk.withDefaults(),
		ram:                win.New(windowMinutes),
		HorizontalHeadroom: 0.25,
	}, nil
}

// Name identifies the composite policy.
func (v *Vector) Name() string { return v.cpu.Name() + "+vector" }

// Observe forwards the CPU sample (Recommender compatibility).
func (v *Vector) Observe(minute int, usageCores float64) { v.cpu.Observe(minute, usageCores) }

// ObserveVector records one metric interval across dimensions: per-pod
// CPU cores, per-pod resident RAM GB, per-pod disk GB, and the number of
// serving replicas (≤ 1 means single-pod vertical scaling).
func (v *Vector) ObserveVector(minute int, cpuCores, ramGB, diskGB float64, replicas int) {
	v.cpu.Observe(minute, cpuCores)
	v.ram.Push(ramGB)
	if diskGB > v.diskHigh {
		v.diskHigh = diskGB
	}
	reps := replicas
	if reps < 1 {
		reps = 1
	}
	if total := cpuCores * float64(reps); total > v.totalCPUPeak {
		v.totalCPUPeak = total
	}
}

// Recommend forwards to the CPU policy (Recommender compatibility).
func (v *Vector) Recommend(currentCores int) int { return v.cpu.Recommend(currentCores) }

// RecommendVector evaluates every managed dimension against the current
// allocation vector and returns a Decision whose Current/Target carry
// the full vectors.
func (v *Vector) RecommendVector(cur core.Resources) core.Decision {
	d := core.Decision{Current: cur}
	target := cur

	// CPU: the wrapped policy, clamped to the managed range.
	target.CPUCores = v.cpu.Recommend(cur.CPUCores)
	if v.lim.Max.CPUCores > 0 {
		target.CPUCores = clampDim(target.CPUCores, v.lim.Min.CPUCores, v.lim.Max.CPUCores)
	}

	// RAM: dual-threshold policy over the ring window's peak.
	if v.lim.Max.RAMGB > 0 {
		peak := 0.0
		if view := v.ram.View(); len(view) > 0 {
			peak = stats.Max(view)
		}
		target.RAMGB = v.mem.Target(cur.RAMGB, peak, v.lim.Min.RAMGB, v.lim.Max.RAMGB)
	}

	// Disk: grow-only from the high-water mark.
	if v.lim.Max.DiskGB > 0 {
		target.DiskGB = v.disk.Target(cur.DiskGB, v.diskHigh, v.lim.Max.DiskGB)
	}

	// Replicas: vertical-first horizontal overflow. Only when the CPU
	// target is pinned at the per-pod ceiling does a replica get added;
	// a replica is removed only when the remaining set could absorb the
	// observed peak with headroom to spare AND the vertical dimension
	// has room again.
	if v.lim.Max.Replicas > 0 {
		reps := cur.Replicas
		if reps < 1 {
			reps = 1
		}
		maxPod := v.lim.Max.CPUCores
		if maxPod == 0 {
			maxPod = target.CPUCores
		}
		switch {
		case target.CPUCores >= maxPod && v.lim.Max.CPUCores > 0 &&
			v.totalCPUPeak > float64(maxPod*reps)*(1-v.HorizontalHeadroom) &&
			reps < v.lim.Max.Replicas:
			reps++
		case reps > v.lim.Min.Replicas && target.CPUCores < maxPod &&
			v.totalCPUPeak <= float64(maxPod*(reps-1))*(1-v.HorizontalHeadroom):
			reps--
		}
		target.Replicas = reps
	}

	v.totalCPUPeak = 0 // per-decision peak, like the window advancing

	d.Target = target
	d.Delta = target.CPUCores - cur.CPUCores
	v.last = d
	return d
}

// LastDecision returns the most recent vector decision.
func (v *Vector) LastDecision() core.Decision { return v.last }

// Reset clears every dimension's accumulated state.
func (v *Vector) Reset() {
	v.cpu.Reset()
	v.ram.Reset()
	v.diskHigh = 0
	v.totalCPUPeak = 0
	v.last = core.Decision{}
}

func clampDim(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if hi > 0 && v > hi {
		return hi
	}
	return v
}
