package workload

import (
	"errors"
	"fmt"
	"time"

	"caasper/internal/trace"
)

// This file reimplements the idea behind Stitcher (paper §6.2, [72]):
// recreating a customer's CPU trace from public benchmarks instead of the
// customer's proprietary queries and data. Given a target CPU envelope,
// the stitcher splits it into fixed-length segments, picks for each
// segment the benchmark mix whose character best matches the segment
// (write-heavy OLTP for low/variable regions, analytic reads for heavy
// plateaus), and emits per-segment arrival rates that reproduce the
// envelope's CPU usage.

// StitchSegment is one benchmark segment of a stitched workload.
type StitchSegment struct {
	// Start is the segment's offset from workload start.
	Start time.Duration
	// Length is the segment duration.
	Length time.Duration
	// Mix is the benchmark mix chosen for the segment.
	Mix Mix
	// MixName names the source benchmark ("tpcc", "tpch", "ycsb", "oltp").
	MixName string
	// RatePerSec is the arrival rate reproducing the segment's mean CPU.
	RatePerSec float64
	// TargetCores is the segment's mean CPU in the source trace.
	TargetCores float64
}

// StitchedWorkload is a benchmark-recreated customer workload.
type StitchedWorkload struct {
	// Name labels the workload.
	Name string
	// Segments are the consecutive benchmark segments.
	Segments []StitchSegment
	// Source is the trace the stitcher replicated.
	Source *trace.Trace
}

// Stitch recreates the target trace from benchmark mixes using segments of
// the given length. It mirrors Stitcher's matching step with a simple,
// interpretable rule set:
//
//   - segments with mean CPU ≥ heavyThreshold cores and low variability
//     are mapped to TPC-H analytic batches;
//   - highly variable segments are mapped to YCSB (cheap point ops allow
//     the fastest rate modulation);
//   - everything else is mapped to the mixed TPC-C/YCSB OLTP blend.
func Stitch(target *trace.Trace, segment time.Duration) (*StitchedWorkload, error) {
	if target == nil || target.Len() == 0 {
		return nil, errors.New("workload: empty stitch target")
	}
	if segment < target.Interval {
		return nil, fmt.Errorf("workload: segment %v shorter than trace interval %v", segment, target.Interval)
	}
	perSeg := int(segment / target.Interval)
	const heavyThreshold = 4.0

	var segs []StitchSegment
	for off := 0; off < target.Len(); off += perSeg {
		window := target.Window(off, off+perSeg)
		mean, cv := meanAndCV(window)
		var mix Mix
		var name string
		switch {
		case mean >= heavyThreshold && cv < 0.25:
			mix, name = TPCHMix(), "tpch"
		case cv >= 0.5:
			mix, name = YCSBMix(), "ycsb"
		default:
			mix, name = MixedOLTP(), "oltp"
		}
		rate, err := RateForCores(mix, mean)
		if err != nil {
			return nil, err
		}
		segs = append(segs, StitchSegment{
			Start:       time.Duration(off) * target.Interval,
			Length:      time.Duration(len(window)) * target.Interval,
			Mix:         mix,
			MixName:     name,
			RatePerSec:  rate,
			TargetCores: mean,
		})
	}
	return &StitchedWorkload{Name: target.Name + "-stitched", Segments: segs, Source: target}, nil
}

func meanAndCV(xs []float64) (mean, cv float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	var sum float64
	for _, v := range xs {
		sum += v
	}
	mean = sum / float64(len(xs))
	if mean == 0 {
		return 0, 0
	}
	var ss float64
	for _, v := range xs {
		d := v - mean
		ss += d * d
	}
	sd := 0.0
	if len(xs) > 1 {
		sd = sqrt(ss / float64(len(xs)-1))
	}
	return mean, sd / mean
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// Newton iterations; avoids importing math for one call and is exact
	// enough for a coefficient of variation.
	z := x
	for i := 0; i < 24; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// Schedule flattens the stitched workload back into a LoadSchedule whose
// rate follows the per-segment stitched rates. The mix reported on the
// schedule is the mix of the first segment; per-segment mixes remain
// available on Segments for transaction-level replay.
func (sw *StitchedWorkload) Schedule() *LoadSchedule {
	segs := sw.Segments
	rate := func(m float64) float64 {
		t := time.Duration(m * float64(time.Minute))
		for _, s := range segs {
			if t >= s.Start && t < s.Start+s.Length {
				return s.RatePerSec
			}
		}
		if len(segs) > 0 && t >= segs[len(segs)-1].Start {
			return segs[len(segs)-1].RatePerSec
		}
		return 0
	}
	mix := MixedOLTP()
	if len(segs) > 0 {
		mix = segs[0].Mix
	}
	phases := make([]MixPhase, 0, len(segs))
	for _, s := range segs {
		phases = append(phases, MixPhase{Mix: s.Mix, Minutes: s.Length.Minutes()})
	}
	return &LoadSchedule{
		Name:     sw.Name,
		Mix:      mix,
		Phases:   phases,
		Rate:     rate,
		Duration: sw.Source.Duration(),
	}
}
