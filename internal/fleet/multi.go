package fleet

// multi.go holds the state only multi-resource tenants carry: their RAM
// and disk traces, grants, window peaks and meters, the per-minute RAM
// and disk accounting that advanceTo's run-by-run catch-up calls for
// them (advanceMulti), and the replica moves of horizontal overflow.
// Catching up, deciding, the arbiter's capacity check and the in-place
// resize are shared with CPU-only tenants (events.go, fleet.go), which
// are the vectors whose non-CPU dimensions are unmanaged and never
// allocate a multiState. The determinism contract is unchanged: phase 1
// (advanceTo, decide) writes only tenant-local state, phase 2 (enact,
// moveReplicas) runs sequentially.

import (
	"fmt"
	"time"

	"caasper/internal/billing"
	"caasper/internal/core"
	"caasper/internal/errs"
	"caasper/internal/k8s"
	"caasper/internal/obs"
	"caasper/internal/recommend"
	"caasper/internal/trace"
	"caasper/internal/workload"
)

// multiState is the per-tenant multi-resource runtime state, owned by
// exactly one tenant and touched from its phase-1 goroutine plus the
// sequential phase 2.
type multiState struct {
	// ram / dsk are the per-minute per-pod demand/usage series in GB
	// (nil when the dimension is unmanaged).
	ram, dsk []float64

	// Current grants: the RAM GB per pod, the volume GB per pod and the
	// replica count.
	ramAlloc, diskAlloc, replicas int

	// Decision-window accumulators. The peaks' RAM and total-CPU entries
	// reset at each decision; the disk high-water mark never does (disk
	// only grows).
	peak     recommend.WindowPeaks
	ramShort float64 // RAM shortfall GB-minutes since the last decision

	// Meters for the non-CPU dimensions, value-held like tenant.acct.
	ramMeter, diskMeter billing.Meter
}

// initMulti builds the tenant's multi-resource state: demand traces
// (derived deterministically from the CPU trace when absent), initial
// grants from the resolved range, and per-dimension meters.
func (t *tenant) initMulti(rr core.ResourceRange, replicas, minutes int, meter *billing.Meter) error {
	m := &multiState{replicas: replicas}
	if rr.Max.RAMGB > 0 {
		ram, err := dimTrace("RAM", t.spec.RAMTrace, func() *trace.Trace {
			return workload.DeriveRAM(t.spec.Trace, 1, 0.5)
		}, minutes)
		if err != nil {
			return err
		}
		m.ram, m.ramAlloc, m.ramMeter = ram, rr.Initial.RAMGB, *meter
	}
	if rr.Max.DiskGB > 0 {
		dsk, err := dimTrace("disk", t.spec.DiskTrace, func() *trace.Trace {
			return workload.DeriveDisk(t.spec.Trace, float64(rr.Initial.DiskGB)*0.5, 0.5)
		}, minutes)
		if err != nil {
			return err
		}
		m.dsk, m.diskAlloc, m.diskMeter = dsk, rr.Initial.DiskGB, *meter
	}
	t.mr = m
	return nil
}

// dimTrace resolves one non-CPU dimension's per-minute series: the
// spec's trace, or the derived one when the spec gives none. It must be
// on the 1-minute grid and cover the horizon.
func dimTrace(dim string, tr *trace.Trace, derive func() *trace.Trace, minutes int) ([]float64, error) {
	if tr == nil {
		tr = derive()
	}
	if tr.Interval != time.Minute {
		return nil, fmt.Errorf("%s trace interval %s is not 1m (resample first): %w", dim, tr.Interval, errs.ErrInvalidConfig)
	}
	if len(tr.Values) < minutes {
		return nil, fmt.Errorf("%s trace covers %d of %d minutes: %w", dim, len(tr.Values), minutes, errs.ErrInvalidConfig)
	}
	return tr.Values, nil
}

// advanceMulti accounts the non-CPU dimensions over minutes [from, to),
// a span of constant CPU demand and constant grants inside advanceTo's
// walk. RAM demand adds the per-minute mem-pressure draw and disk usage
// is capped at the volume, so the peaks, shortfalls and full minutes
// are walked minute by minute; the meters advance in bulk (RecordN),
// billing every replica.
func (t *tenant) advanceMulti(from, to int, demand float64) {
	m := t.mr
	if demand > m.peak.TotalCPU {
		m.peak.TotalCPU = demand
	}
	pods := float64(m.replicas)
	if m.ram != nil {
		alloc := float64(m.ramAlloc)
		for k := from; k < to; k++ {
			rdemand := m.ram[k] + t.inj.MemPressureGB(t.pod, int64(k))
			if rdemand > m.peak.RAMGB {
				m.peak.RAMGB = rdemand
			}
			if short := rdemand - alloc; short > 0 {
				m.ramShort += short
				t.res.RAMShortGBMin += short
				t.res.OOMMinutes++
			}
		}
		m.ramMeter.RecordN(alloc*pods, to-from)
	}
	if m.dsk != nil {
		alloc := float64(m.diskAlloc)
		for k := from; k < to; k++ {
			used := m.dsk[k]
			if used > alloc {
				t.res.DiskFullMinutes++
				used = alloc // writes beyond the volume fail
			}
			if used > m.peak.DiskGB {
				m.peak.DiskGB = used
			}
		}
		m.diskMeter.RecordN(alloc*pods, to-from)
	}
}

// moveReplicas enacts the replica half of a granted vector proposal in
// phase 2: one replica added or removed. A new replica is scheduled onto
// any node with room, so it can still lose to cluster-wide capacity the
// arbiter's per-node check did not cover; that counts as a deferral.
func (s *runState) moveReplicas(t *tenant, now int) {
	m, prop := t.mr, t.prop
	switch {
	case prop.target.Replicas > m.replicas:
		p, err := t.set.AddReplica(s.cluster, t.set.CPULimit(), int64(now))
		if err != nil {
			t.res.Deferrals++
			if s.events {
				s.fields = append(s.fields[:0],
					obs.S("tenant", t.spec.Name),
					obs.S("reason", "scale-out"),
					obs.I("want_replicas", int64(prop.target.Replicas)),
					obs.F("severity", prop.severity),
				)
				s.emit(obs.Event{T: int64(now), Type: "fleet.deferred", Fields: s.fields})
			}
			return
		}
		// Only stateless tenants add replicas: there is no data to seed,
		// so the new pod serves from the next minute on.
		p.Phase = k8s.PhaseRunning
		m.replicas++
		t.res.NumScalings++
	case prop.target.Replicas < m.replicas:
		if _, err := t.set.RemoveReplica(s.cluster); err == nil {
			m.replicas--
			t.res.NumScalings++
		}
	}
}

// finishMulti closes the tenant's multi-resource books in the epilogue.
func (t *tenant) finishMulti() {
	m := t.mr
	t.res.FinalReplicas = m.replicas
	if m.ram != nil {
		m.ramMeter.Flush()
		t.res.FinalRAMGB = m.ramAlloc
		t.res.BilledRAMGBPeriods = m.ramMeter.BilledCorePeriods()
	}
	if m.dsk != nil {
		m.diskMeter.Flush()
		t.res.FinalDiskGB = m.diskAlloc
		t.res.BilledDiskGBPeriods = m.diskMeter.BilledCorePeriods()
	}
}
