package recommend

import (
	"errors"
	"testing"

	"caasper/internal/core"
	"caasper/internal/errs"
)

func TestMemoryPolicyDualThreshold(t *testing.T) {
	p := DefaultMemoryPolicy()
	// Small allocation: the absolute floor (0.5 GB) dominates.
	if thr := p.Threshold(2); thr != 0.5 {
		t.Fatalf("Threshold(2) = %v, want 0.5 (absolute floor wins)", thr)
	}
	// Large allocation: the percent floor (20%) dominates — higher wins.
	if thr := p.Threshold(10); thr != 2.0 {
		t.Fatalf("Threshold(10) = %v, want 2.0 (percent floor wins)", thr)
	}

	// 4 GB granted, 3.8 GB peak used → free 0.2 < thr 0.8 → grow.
	if got := p.Target(4, 3.8, 1, 16); got <= 4 {
		t.Fatalf("Target(4, 3.8) = %d, want > 4", got)
	}
	// Growth is step-capped.
	if got := p.Target(4, 15.5, 1, 32); got != 4+p.MaxStepUpGB {
		t.Fatalf("Target(4, 15.5) = %d, want step-capped %d", got, 4+p.MaxStepUpGB)
	}
	// 16 GB granted, 2 GB used → free 14 > 2×3.2 → shrink, step-capped.
	if got := p.Target(16, 2, 1, 16); got != 16-p.MaxStepDownGB {
		t.Fatalf("Target(16, 2) = %d, want %d", got, 16-p.MaxStepDownGB)
	}
	// Hysteresis: free just above threshold holds.
	if got := p.Target(8, 6, 1, 16); got != 8 {
		t.Fatalf("Target(8, 6) = %d, want hold at 8", got)
	}
	// Never exceeds max.
	if got := p.Target(16, 15.9, 1, 16); got != 16 {
		t.Fatalf("Target at ceiling = %d, want 16", got)
	}
}

func TestDiskPolicyGrowOnly(t *testing.T) {
	p := DefaultDiskPolicy()
	// 20 GB allocated, 18 used → need ceil(18/0.8)=23 → round to 25.
	if got := p.Target(20, 18, 100); got != 25 {
		t.Fatalf("Target(20, 18) = %d, want 25", got)
	}
	// Usage fell: never shrink.
	if got := p.Target(50, 5, 100); got != 50 {
		t.Fatalf("grow-only violated: Target(50, 5) = %d, want 50", got)
	}
	// Clamped to max.
	if got := p.Target(90, 99, 100); got != 100 {
		t.Fatalf("Target(90, 99) = %d, want 100", got)
	}
}

func vectorUnderTest(t *testing.T, lim core.Limits) *Vector {
	t.Helper()
	cpu, err := NewByName("caasper", Settings{MaxCores: lim.Max.CPUCores})
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewVector(cpu, lim, MemoryPolicy{}, DiskPolicy{}, 60)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestVectorValidation(t *testing.T) {
	cpu, err := NewByName("control", Settings{MaxCores: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewVector(nil, core.Limits{Max: core.Resources{RAMGB: 8}}, MemoryPolicy{}, DiskPolicy{}, 60); !errors.Is(err, errs.ErrInvalidConfig) {
		t.Fatalf("nil cpu: want ErrInvalidConfig, got %v", err)
	}
	if _, err := NewVector(cpu, core.Limits{Max: core.Resources{CPUCores: 8}}, MemoryPolicy{}, DiskPolicy{}, 60); !errors.Is(err, errs.ErrInvalidConfig) {
		t.Fatalf("cpu-only limits: want ErrInvalidConfig, got %v", err)
	}
	if _, err := NewVector(cpu, core.Limits{Max: core.Resources{RAMGB: 8}}, MemoryPolicy{}, DiskPolicy{}, 0); !errors.Is(err, errs.ErrInvalidConfig) {
		t.Fatalf("zero window: want ErrInvalidConfig, got %v", err)
	}
}

func TestVectorRAMAndDiskDimensions(t *testing.T) {
	lim := core.Limits{
		Min: core.Resources{CPUCores: 1, RAMGB: 2, DiskGB: 20},
		Max: core.Resources{CPUCores: 8, RAMGB: 16, DiskGB: 100},
	}
	v := vectorUnderTest(t, lim)
	cur := core.Resources{CPUCores: 2, RAMGB: 4, DiskGB: 20}
	for m := 0; m < 60; m++ {
		v.ObserveVector(m, 1.0, 3.9, 22, 1)
	}
	d := v.RecommendVector(cur)
	if d.Target.RAMGB <= cur.RAMGB {
		t.Fatalf("RAM under pressure must grow: %+v", d.Target)
	}
	if d.Target.DiskGB <= cur.DiskGB {
		t.Fatalf("disk past high-water must grow: %+v", d.Target)
	}
	if d.Current != cur {
		t.Fatalf("Current = %+v, want %+v", d.Current, cur)
	}

	// Disk never shrinks even after usage drops.
	grown := d.Target
	for m := 60; m < 120; m++ {
		v.ObserveVector(m, 1.0, 3.0, 1, 1)
	}
	d2 := v.RecommendVector(grown)
	if d2.Target.DiskGB < grown.DiskGB {
		t.Fatalf("disk shrank %d → %d", grown.DiskGB, d2.Target.DiskGB)
	}
}

func TestVectorHorizontalOverflowVerticalFirst(t *testing.T) {
	lim := core.Limits{
		Min: core.Resources{CPUCores: 1, RAMGB: 2, Replicas: 1},
		Max: core.Resources{CPUCores: 4, RAMGB: 16, Replicas: 3},
	}
	v := vectorUnderTest(t, lim)

	// Demand hot against the per-pod ceiling: CPU pins at 4, then a
	// replica is added — vertical first, horizontal overflow second.
	cur := core.Resources{CPUCores: 4, RAMGB: 4, Replicas: 1}
	for m := 0; m < 60; m++ {
		v.ObserveVector(m, 3.95, 2.0, 0, 1)
	}
	d := v.RecommendVector(cur)
	if d.Target.CPUCores != 4 {
		t.Fatalf("CPU should stay pinned at the ceiling: %+v", d.Target)
	}
	if d.Target.Replicas != 2 {
		t.Fatalf("overflow should add a replica: %+v", d.Target)
	}

	// Demand collapses: CPU un-pins and the replica drains away.
	cur = d.Target
	for m := 60; m < 120; m++ {
		v.ObserveVector(m, 0.5, 2.0, 0, 2)
	}
	d = v.RecommendVector(cur)
	if d.Target.Replicas != 1 {
		t.Fatalf("idle set should scale back in: %+v", d.Target)
	}
	if got := d.Target.Replicas; got < lim.Min.Replicas {
		t.Fatalf("replicas below floor: %d", got)
	}
}

func TestVectorRecommenderCompat(t *testing.T) {
	lim := core.Limits{Min: core.Resources{RAMGB: 1}, Max: core.Resources{CPUCores: 8, RAMGB: 8}}
	v := vectorUnderTest(t, lim)
	var r Recommender = v // compile-time + runtime interface check
	for m := 0; m < 60; m++ {
		r.Observe(m, 1.0)
	}
	if got := r.Recommend(4); got < 1 || got > 8 {
		t.Fatalf("Recommend out of range: %d", got)
	}
	r.Reset()
	if v.ram.Len() != 0 || v.diskHigh != 0 {
		t.Fatal("Reset must clear every dimension")
	}
}
