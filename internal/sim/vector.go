package sim

// vector.go extends the single-tenant simulator to the resource vector:
// RunVector replays the CPU dimension through the unchanged Run (so the
// CPU metrics, decisions and event stream stay byte-identical to a
// CPU-only run) and layers the RAM and disk loops on top — RAM under the
// dual-threshold MemoryPolicy with mem-pressure fault injection, disk
// under the grow-only DiskPolicy. Both non-CPU loops resize in place at
// decision ticks (memory hot-add and volume expansion do not restart the
// pod, unlike the CPU rolling update Run models).

import (
	"fmt"
	"time"

	"caasper/internal/billing"
	"caasper/internal/errs"
	"caasper/internal/obs"
	"caasper/internal/recommend"
	"caasper/internal/trace"
	"caasper/internal/workload"
)

// VectorResult aggregates a multi-resource run: the embedded CPU result
// plus the RAM/disk trajectories and their bills.
type VectorResult struct {
	*Result

	// FinalRAMGB / FinalDiskGB close the non-CPU trajectories (0 when
	// the dimension is unmanaged).
	FinalRAMGB, FinalDiskGB int
	// RAMScalings / DiskScalings count enacted non-CPU resizes.
	RAMScalings, DiskScalings int
	// OOMMinutes counts minutes with any RAM shortfall; RAMShortGBMin is
	// the shortfall integral in GB-minutes.
	OOMMinutes    int
	RAMShortGBMin float64
	// DiskFullMinutes counts minutes the disk trace exceeded the volume.
	DiskFullMinutes int
	// BilledRAMGBPeriods / BilledDiskGBPeriods are the non-CPU bills in
	// native units (GB-periods at unit rate).
	BilledRAMGBPeriods, BilledDiskGBPeriods float64
	// MemPressureWindows counts injected memory-pressure windows.
	MemPressureWindows int64
}

// TotalCost sums the dimensions at the billing DefaultRates weights.
func (r *VectorResult) TotalCost() float64 {
	rates := billing.DefaultRates()
	return r.BilledCorePeriods*rates.CPUCorePeriod +
		r.BilledRAMGBPeriods*rates.RAMGBPeriod +
		r.BilledDiskGBPeriods*rates.DiskGBPeriod
}

// String renders the headline vector metrics.
func (r *VectorResult) String() string {
	return fmt.Sprintf("%s ram=%dGB(%d scalings, %d oom) disk=%dGB(%d scalings)",
		r.Result.String(), r.FinalRAMGB, r.RAMScalings, r.OOMMinutes,
		r.FinalDiskGB, r.DiskScalings)
}

// RunVector replays the demand trace through the recommender across the
// full resource vector. The CPU dimension runs through Run unchanged;
// opts.Resources must manage at least one non-CPU dimension (use Run for
// CPU-only work).
func RunVector(tr *trace.Trace, rec recommend.Recommender, opts Options) (*VectorResult, error) {
	rr := opts.Resources.WithDefaults()
	if !rr.Multi() {
		return nil, fmt.Errorf("sim: RunVector needs a managed non-CPU dimension (use Run): %w", errs.ErrInvalidConfig)
	}
	if err := rr.Validate(); err != nil {
		return nil, err
	}
	cpu, err := Run(tr, rec, opts)
	if err != nil {
		return nil, err
	}
	res := &VectorResult{Result: cpu}

	h := opts.RunHooks
	events := obs.Enabled(h.Events)
	// A fresh injector for the non-CPU loops: draws are (kind, pod, time)
	// keyed, so its mem-pressure stream is identical to what a single
	// shared injector would produce, and Run's CPU fault draws are
	// untouched.
	inj := h.Injector()
	const simPod = "db-0"

	warmup := opts.WarmupMinutes
	if warmup <= 0 {
		warmup = opts.DecisionEveryMinutes
	}
	n := cpu.Minutes

	if rr.Max.RAMGB > 0 {
		ramTr := opts.RAMTrace
		if ramTr == nil {
			ramTr = workload.DeriveRAM(tr, 1, 0.5)
		}
		if ramTr.Len() < n {
			return nil, fmt.Errorf("sim: RAM trace covers %d of %d minutes: %w", ramTr.Len(), n, errs.ErrInvalidConfig)
		}
		meter, err := billing.NewMeter(1, opts.BillingPeriod, time.Minute)
		if err != nil {
			return nil, err
		}
		alloc := rr.Initial.RAMGB
		peak := 0.0
		for t := 0; t < n; t++ {
			demand := ramTr.At(t) + inj.MemPressureGB(simPod, int64(t))
			if demand > peak {
				peak = demand
			}
			if short := demand - float64(alloc); short > 0 {
				res.OOMMinutes++
				res.RAMShortGBMin += short
				if events {
					h.Events.Emit(obs.Event{T: int64(t), Type: "sim.oom", Fields: []obs.Field{
						obs.F("demand", demand),
						obs.I("alloc", int64(alloc)),
						obs.F("short", short),
					}})
				}
			}
			meter.Record(float64(alloc))
			if t >= warmup && t%opts.DecisionEveryMinutes == 0 {
				target := opts.Mem.Target(alloc, peak, rr.Min.RAMGB, rr.Max.RAMGB)
				if target != alloc {
					if events {
						h.Events.Emit(obs.Event{T: int64(t), Type: "sim.ram-resize", Fields: []obs.Field{
							obs.I("from", int64(alloc)),
							obs.I("to", int64(target)),
							obs.F("peak", peak),
						}})
					}
					alloc = target
					res.RAMScalings++
				}
				peak = 0
			}
		}
		meter.Flush()
		res.FinalRAMGB = alloc
		res.BilledRAMGBPeriods = meter.BilledCorePeriods()
	}

	if rr.Max.DiskGB > 0 {
		dskTr := opts.DiskTrace
		if dskTr == nil {
			dskTr = workload.DeriveDisk(tr, float64(rr.Initial.DiskGB)*0.5, 0.5)
		}
		if dskTr.Len() < n {
			return nil, fmt.Errorf("sim: disk trace covers %d of %d minutes: %w", dskTr.Len(), n, errs.ErrInvalidConfig)
		}
		meter, err := billing.NewMeter(1, opts.BillingPeriod, time.Minute)
		if err != nil {
			return nil, err
		}
		alloc := rr.Initial.DiskGB
		high := 0.0
		for t := 0; t < n; t++ {
			used := dskTr.At(t)
			if used > float64(alloc) {
				res.DiskFullMinutes++
				used = float64(alloc) // writes beyond the volume fail
			}
			if used > high {
				high = used
			}
			meter.Record(float64(alloc))
			if t >= warmup && t%opts.DecisionEveryMinutes == 0 {
				if target := opts.Disk.Target(alloc, high, rr.Max.DiskGB); target > alloc {
					if events {
						h.Events.Emit(obs.Event{T: int64(t), Type: "sim.disk-resize", Fields: []obs.Field{
							obs.I("from", int64(alloc)),
							obs.I("to", int64(target)),
							obs.F("high_water", high),
						}})
					}
					alloc = target
					res.DiskScalings++
				}
			}
		}
		meter.Flush()
		res.FinalDiskGB = alloc
		res.BilledDiskGBPeriods = meter.BilledCorePeriods()
	}

	res.MemPressureWindows = inj.Counts().MemPressureWindows
	return res, nil
}
