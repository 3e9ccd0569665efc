package recommend

import (
	"testing"

	"caasper/internal/core"
)

func TestRAMTargetDualThreshold(t *testing.T) {
	// Small allocation: the absolute floor (0.5 GB) dominates. 2 GB
	// granted, 1.55 GB used → free 0.45 is under 0.5 but over 20% (0.4)
	// → grow.
	if got := RAMTarget(2, 1.55, 1, 16); got <= 2 {
		t.Fatalf("RAMTarget(2, 1.55) = %d, want > 2 (absolute floor wins)", got)
	}
	// Large allocation: the percent floor (20%) dominates — higher wins.
	// 10 GB granted, 8.5 GB used → free 1.5 is over 0.5 but under 2.0.
	if got := RAMTarget(10, 8.5, 1, 16); got <= 10 {
		t.Fatalf("RAMTarget(10, 8.5) = %d, want > 10 (percent floor wins)", got)
	}

	// 4 GB granted, 3.8 GB peak used → free 0.2 < thr 0.8 → grow.
	if got := RAMTarget(4, 3.8, 1, 16); got <= 4 {
		t.Fatalf("RAMTarget(4, 3.8) = %d, want > 4", got)
	}
	// Growth is step-capped.
	if got := RAMTarget(4, 15.5, 1, 32); got != 4+ramStepUpGB {
		t.Fatalf("RAMTarget(4, 15.5) = %d, want step-capped %d", got, 4+ramStepUpGB)
	}
	// 16 GB granted, 2 GB used → free 14 > 2×3.2 → shrink, step-capped.
	if got := RAMTarget(16, 2, 1, 16); got != 16-ramStepDownGB {
		t.Fatalf("RAMTarget(16, 2) = %d, want %d", got, 16-ramStepDownGB)
	}
	// Hysteresis: free just above threshold holds.
	if got := RAMTarget(8, 6, 1, 16); got != 8 {
		t.Fatalf("RAMTarget(8, 6) = %d, want hold at 8", got)
	}
	// Never exceeds max.
	if got := RAMTarget(16, 15.9, 1, 16); got != 16 {
		t.Fatalf("RAMTarget at ceiling = %d, want 16", got)
	}
}

func TestDiskTargetGrowOnly(t *testing.T) {
	// 20 GB allocated, 18 used → need ceil(18/0.8)=23 → round to 25.
	if got := DiskTarget(20, 18, 100); got != 25 {
		t.Fatalf("DiskTarget(20, 18) = %d, want 25", got)
	}
	// Usage fell: never shrink.
	if got := DiskTarget(50, 5, 100); got != 50 {
		t.Fatalf("grow-only violated: DiskTarget(50, 5) = %d, want 50", got)
	}
	// Clamped to max.
	if got := DiskTarget(90, 99, 100); got != 100 {
		t.Fatalf("DiskTarget(90, 99) = %d, want 100", got)
	}
}

// TestNextResources is the table for the one vector decision rule: the
// CPU clamp, RAM growth and hysteresis, grow-only disk, and the
// vertical-first replica rule with its bounds and its off switch.
func TestNextResources(t *testing.T) {
	web := core.Limits{
		Min: core.Resources{CPUCores: 1, Replicas: 1},
		Max: core.Resources{CPUCores: 4, Replicas: 3},
	}
	unbounded := core.Limits{Min: core.Resources{CPUCores: 1}, Max: core.Resources{CPUCores: 4}}
	floor2 := web
	floor2.Min.Replicas = 2
	ram := core.Limits{Min: core.Resources{CPUCores: 1, RAMGB: 1}, Max: core.Resources{CPUCores: 8, RAMGB: 16}}
	disk := core.Limits{Min: core.Resources{CPUCores: 1, DiskGB: 5}, Max: core.Resources{CPUCores: 8, DiskGB: 100}}
	diskNoMax := core.Limits{Min: core.Resources{CPUCores: 1}, Max: core.Resources{CPUCores: 8}}
	cpuOnly := core.Limits{Min: core.Resources{CPUCores: 1}, Max: core.Resources{CPUCores: 8}}

	for _, tc := range []struct {
		name       string
		cpu        int
		cur        core.Resources
		peak       WindowPeaks
		lim        core.Limits
		horizontal bool
		want       core.Resources
	}{
		{"cpu only passes through", 3, core.Resources{CPUCores: 2}, WindowPeaks{}, cpuOnly, false,
			core.Resources{CPUCores: 3}},
		{"cpu clamped to max", 9, core.Resources{CPUCores: 2}, WindowPeaks{}, cpuOnly, false,
			core.Resources{CPUCores: 8}},
		{"cpu clamped to min", 0, core.Resources{CPUCores: 2}, WindowPeaks{}, cpuOnly, false,
			core.Resources{CPUCores: 1}},

		// Replicas: 4-core pods, 75% of the set's ceiling is the line.
		{"add when pinned and hot", 4, core.Resources{CPUCores: 4, Replicas: 1}, WindowPeaks{TotalCPU: 3.95}, web, true,
			core.Resources{CPUCores: 4, Replicas: 2}},
		{"clamped target still pins", 7, core.Resources{CPUCores: 4, Replicas: 2}, WindowPeaks{TotalCPU: 7}, web, true,
			core.Resources{CPUCores: 4, Replicas: 3}},
		{"hold when pinned but cool", 4, core.Resources{CPUCores: 4, Replicas: 1}, WindowPeaks{TotalCPU: 3}, web, true,
			core.Resources{CPUCores: 4, Replicas: 1}},
		{"hold when hot but not pinned", 3, core.Resources{CPUCores: 3, Replicas: 1}, WindowPeaks{TotalCPU: 3.9}, web, true,
			core.Resources{CPUCores: 3, Replicas: 1}},
		{"hold at max replicas", 4, core.Resources{CPUCores: 4, Replicas: 3}, WindowPeaks{TotalCPU: 12}, web, true,
			core.Resources{CPUCores: 4, Replicas: 3}},
		{"hold when the smaller set lacks headroom", 3, core.Resources{CPUCores: 4, Replicas: 3}, WindowPeaks{TotalCPU: 7.8}, web, true,
			core.Resources{CPUCores: 3, Replicas: 3}},
		{"remove when the smaller set has headroom", 2, core.Resources{CPUCores: 4, Replicas: 3}, WindowPeaks{TotalCPU: 6}, web, true,
			core.Resources{CPUCores: 2, Replicas: 2}},
		{"hold while pinned even when idle", 4, core.Resources{CPUCores: 4, Replicas: 2}, WindowPeaks{TotalCPU: 0.5}, web, true,
			core.Resources{CPUCores: 4, Replicas: 2}},
		{"max 0 is unbounded", 4, core.Resources{CPUCores: 4, Replicas: 5}, WindowPeaks{TotalCPU: 16}, unbounded, true,
			core.Resources{CPUCores: 4, Replicas: 6}},
		{"floor of one replica", 1, core.Resources{CPUCores: 2, Replicas: 1}, WindowPeaks{}, unbounded, true,
			core.Resources{CPUCores: 1, Replicas: 1}},
		{"min replicas floor", 1, core.Resources{CPUCores: 2, Replicas: 2}, WindowPeaks{}, floor2, true,
			core.Resources{CPUCores: 1, Replicas: 2}},
		{"horizontal off never adds", 4, core.Resources{CPUCores: 4, Replicas: 1}, WindowPeaks{TotalCPU: 3.95}, web, false,
			core.Resources{CPUCores: 4, Replicas: 1}},
		{"horizontal off never removes", 1, core.Resources{CPUCores: 4, Replicas: 3}, WindowPeaks{}, web, false,
			core.Resources{CPUCores: 1, Replicas: 3}},

		// RAM: free below max(0.5 GB, 20%) grows; free above twice that
		// shrinks by at most 2 GB; in between holds.
		{"ram grows under pressure", 2, core.Resources{CPUCores: 2, RAMGB: 4}, WindowPeaks{RAMGB: 3.8}, ram, false,
			core.Resources{CPUCores: 2, RAMGB: 5}},
		{"ram growth is step-capped", 2, core.Resources{CPUCores: 2, RAMGB: 4}, WindowPeaks{RAMGB: 15.5}, ram, false,
			core.Resources{CPUCores: 2, RAMGB: 8}},
		{"ram hysteresis holds", 2, core.Resources{CPUCores: 2, RAMGB: 8}, WindowPeaks{RAMGB: 6}, ram, false,
			core.Resources{CPUCores: 2, RAMGB: 8}},
		{"ram shrinks when idle", 2, core.Resources{CPUCores: 2, RAMGB: 16}, WindowPeaks{RAMGB: 2}, ram, false,
			core.Resources{CPUCores: 2, RAMGB: 14}},

		// Disk: 20% headroom, 5 GB steps, never shrinks.
		{"disk grows past high water", 2, core.Resources{CPUCores: 2, DiskGB: 20}, WindowPeaks{DiskGB: 18}, disk, false,
			core.Resources{CPUCores: 2, DiskGB: 25}},
		{"disk never shrinks", 2, core.Resources{CPUCores: 2, DiskGB: 50}, WindowPeaks{DiskGB: 5}, disk, false,
			core.Resources{CPUCores: 2, DiskGB: 50}},
		{"disk capped at max", 2, core.Resources{CPUCores: 2, DiskGB: 90}, WindowPeaks{DiskGB: 99}, disk, false,
			core.Resources{CPUCores: 2, DiskGB: 100}},
		{"disk max 0 is unbounded", 2, core.Resources{CPUCores: 2, DiskGB: 20}, WindowPeaks{DiskGB: 90}, diskNoMax, false,
			core.Resources{CPUCores: 2, DiskGB: 115}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := NextResources(tc.cpu, tc.cur, tc.peak, tc.lim, tc.horizontal); got != tc.want {
				t.Fatalf("NextResources(%d, %v, %+v) = %v, want %v", tc.cpu, tc.cur, tc.peak, got, tc.want)
			}
		})
	}
}
