package workload

import (
	"errors"
	"fmt"
	"time"

	"caasper/internal/stats"
	"caasper/internal/trace"
)

// This file models a BenchBase-style load driver (paper §6.2: "we generate
// load using a selection of queries across the TPC-H, TPC-C, and YCSB
// benchmarks, using BenchBase to drive the client's workload across many
// terminals"). The live evaluation only needs the benchmarks as sources of
// transaction classes with characteristic CPU costs and read/write mixes;
// this package provides those classes, weighted mixes, and arrival-rate
// schedules that the dbsim package executes.

// TxnClass describes one transaction type of a benchmark.
type TxnClass struct {
	// Name identifies the class, e.g. "tpcc.NewOrder".
	Name string
	// CPUSeconds is the CPU time one transaction consumes on the
	// primary (writes) or on any replica (reads).
	CPUSeconds float64
	// Write marks transactions that must execute on the primary.
	Write bool
}

// MixEntry pairs a transaction class with its relative weight in a mix.
type MixEntry struct {
	Class  TxnClass
	Weight float64
}

// Mix is a weighted set of transaction classes.
type Mix []MixEntry

// MeanCPUSeconds returns the weighted mean CPU cost per transaction.
func (m Mix) MeanCPUSeconds() float64 {
	var wsum, csum float64
	for _, e := range m {
		wsum += e.Weight
		csum += e.Weight * e.Class.CPUSeconds
	}
	if wsum == 0 {
		return 0
	}
	return csum / wsum
}

// WriteFraction returns the weighted fraction of write transactions.
func (m Mix) WriteFraction() float64 {
	var wsum, w float64
	for _, e := range m {
		wsum += e.Weight
		if e.Class.Write {
			w += e.Weight
		}
	}
	if wsum == 0 {
		return 0
	}
	return w / wsum
}

// The standard mixes. CPU costs are stylised but keep the benchmarks'
// relative character: YCSB point operations are cheapest, TPC-C
// transactions are mid-weight with the canonical 45/43/4/4/4 mix, and
// TPC-H analytic queries are orders of magnitude heavier and read-only.

// TPCCMix returns the canonical TPC-C transaction mix.
func TPCCMix() Mix {
	return Mix{
		{Class: TxnClass{Name: "tpcc.NewOrder", CPUSeconds: 0.012, Write: true}, Weight: 45},
		{Class: TxnClass{Name: "tpcc.Payment", CPUSeconds: 0.006, Write: true}, Weight: 43},
		{Class: TxnClass{Name: "tpcc.OrderStatus", CPUSeconds: 0.004, Write: false}, Weight: 4},
		{Class: TxnClass{Name: "tpcc.Delivery", CPUSeconds: 0.020, Write: true}, Weight: 4},
		{Class: TxnClass{Name: "tpcc.StockLevel", CPUSeconds: 0.010, Write: false}, Weight: 4},
	}
}

// TPCHMix returns a read-only analytic mix of light/medium/heavy queries.
func TPCHMix() Mix {
	return Mix{
		{Class: TxnClass{Name: "tpch.QLight", CPUSeconds: 0.8, Write: false}, Weight: 50},
		{Class: TxnClass{Name: "tpch.QMedium", CPUSeconds: 2.5, Write: false}, Weight: 35},
		{Class: TxnClass{Name: "tpch.QHeavy", CPUSeconds: 8.0, Write: false}, Weight: 15},
	}
}

// YCSBMix returns workload-A-style 50/50 reads and updates.
func YCSBMix() Mix {
	return Mix{
		{Class: TxnClass{Name: "ycsb.Read", CPUSeconds: 0.0008, Write: false}, Weight: 50},
		{Class: TxnClass{Name: "ycsb.Update", CPUSeconds: 0.0012, Write: true}, Weight: 50},
	}
}

// MixedOLTP blends TPC-C with YCSB — the light read/write phases of the
// paper's workday experiment.
func MixedOLTP() Mix {
	out := append(Mix{}, TPCCMix()...)
	for _, e := range YCSBMix() {
		e.Weight *= 0.5
		out = append(out, e)
	}
	return out
}

// LoadSchedule is a complete client workload: an arrival-rate curve over
// time and the transaction mix the arrivals draw from. It is what the
// dbsim load generator executes, and what the trace-level experiments
// flatten into CPU demand.
type LoadSchedule struct {
	// Name labels the schedule in reports.
	Name string
	// Mix is the weighted transaction mix (the default when Phases is
	// empty).
	Mix Mix
	// Phases optionally switches the mix over time (the paper's workday
	// run alternates OLTP and analytic phases). Consecutive entries
	// cover consecutive intervals; past the last phase the final mix
	// applies.
	Phases []MixPhase
	// Rate maps minutes-from-start to arrivals per second.
	Rate Pattern
	// Duration is the total schedule length.
	Duration time.Duration
}

// MixPhase holds one time-bounded transaction mix.
type MixPhase struct {
	// Mix is the phase's transaction mix.
	Mix Mix
	// Minutes is the phase duration.
	Minutes float64
}

// MixAt returns the transaction mix active at the given minute.
func (ls *LoadSchedule) MixAt(minute float64) Mix {
	if len(ls.Phases) == 0 {
		return ls.Mix
	}
	var offset float64
	for i, ph := range ls.Phases {
		if minute < offset+ph.Minutes || i == len(ls.Phases)-1 {
			return ph.Mix
		}
		offset += ph.Minutes
	}
	return ls.Mix
}

// CPUDemandPattern converts the schedule into expected CPU demand in
// cores: rate (txn/s) × mean CPU seconds per txn = CPU-seconds per second
// = cores. Phase-dependent mixes are honoured.
func (ls *LoadSchedule) CPUDemandPattern() Pattern {
	return func(m float64) float64 { return ls.Rate(m) * ls.MixAt(m).MeanCPUSeconds() }
}

// DemandTrace renders the schedule's expected CPU demand at one-minute
// resolution.
func (ls *LoadSchedule) DemandTrace() *trace.Trace {
	return Render(ls.Name, ls.CPUDemandPattern(), ls.Duration)
}

// RateForCores returns the arrival rate (txn/s) that produces the target
// CPU demand in cores under the mix.
func RateForCores(mix Mix, cores float64) (float64, error) {
	mean := mix.MeanCPUSeconds()
	if mean <= 0 {
		return 0, errors.New("workload: mix has zero CPU cost")
	}
	return cores / mean, nil
}

// ScheduleForCores builds a LoadSchedule whose expected CPU demand follows
// the given core-demand pattern using the given mix.
func ScheduleForCores(name string, mix Mix, demand Pattern, duration time.Duration) (*LoadSchedule, error) {
	mean := mix.MeanCPUSeconds()
	if mean <= 0 {
		return nil, errors.New("workload: mix has zero CPU cost")
	}
	return &LoadSchedule{
		Name:     name,
		Mix:      mix,
		Rate:     func(m float64) float64 { return demand(m) / mean },
		Duration: duration,
	}, nil
}

// WorkdaySchedule builds the §6.2 Figure 9 live workload as a transaction
// schedule: light mixed OLTP for 3 hours, heavy TPC-H read batches for 6,
// then light OLTP again. The read-only middle phase matches the paper's
// "batches of read-only queries requiring ~5.5 cores".
func WorkdaySchedule(seed uint64) *LoadSchedule {
	rng := stats.NewRNG(seed)
	light := MixedOLTP()
	heavy := TPCHMix()
	lightRate, _ := RateForCores(light, 2.2)
	heavyRate, _ := RateForCores(heavy, 5.5)
	rate := Piecewise(
		Segment{Pattern: WithJitter(Constant(lightRate), 0.3, rng), Minutes: 3 * 60},
		Segment{Pattern: WithJitter(Constant(heavyRate), 0.1, rng), Minutes: 6 * 60},
		Segment{Pattern: WithJitter(Constant(lightRate), 0.3, rng), Minutes: 3 * 60},
	)
	return &LoadSchedule{
		Name: "workday-live",
		Mix:  light,
		Phases: []MixPhase{
			{Mix: light, Minutes: 3 * 60},
			{Mix: heavy, Minutes: 6 * 60},
			{Mix: light, Minutes: 3 * 60},
		},
		Rate:     rate,
		Duration: 12 * time.Hour,
	}
}

// Validate checks schedule invariants.
func (ls *LoadSchedule) Validate() error {
	if ls.Duration <= 0 {
		return fmt.Errorf("workload: schedule %q has non-positive duration", ls.Name)
	}
	if len(ls.Mix) == 0 {
		return fmt.Errorf("workload: schedule %q has empty mix", ls.Name)
	}
	if ls.Rate == nil {
		return fmt.Errorf("workload: schedule %q has nil rate", ls.Name)
	}
	return nil
}
