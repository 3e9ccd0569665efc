package fleet

// multi.go holds the state only multi-resource tenants carry: their RAM
// and disk traces, grants, window peaks and meters, the minute-by-minute
// catch-up that feeds them (observeMultiSegment), and the replica moves
// of horizontal overflow. Deciding, the arbiter's capacity check and the
// in-place resize are shared with CPU-only tenants (fleet.go), which are
// the vectors whose non-CPU dimensions are unmanaged and never allocate a
// multiState. The determinism contract is unchanged: phase 1
// (observeMultiSegment, decide) writes only tenant-local state, phase 2
// (enact, moveReplicas) runs sequentially.

import (
	"fmt"
	"time"

	"caasper/internal/billing"
	"caasper/internal/core"
	"caasper/internal/errs"
	"caasper/internal/k8s"
	"caasper/internal/obs"
	"caasper/internal/recommend"
	"caasper/internal/workload"
)

// multiState is the per-tenant multi-resource runtime state, owned by
// exactly one tenant and touched from its phase-1 goroutine plus the
// sequential phase 2.
type multiState struct {
	pol recommend.VectorPolicy

	// ram / dsk are the per-minute per-pod demand/usage series in GB
	// (nil when the dimension is unmanaged).
	ram, dsk []float64

	// Current grants: the RAM GB per pod, the volume GB per pod and the
	// replica count.
	ramAlloc, diskAlloc, replicas int

	// seeding is the minute the newest replica finishes seeding (−1:
	// none in flight); seedMin is the spec's seeding delay.
	seeding, seedMin int

	// Decision-window accumulators. The peaks' RAM and total-CPU entries
	// reset at each decision; the disk high-water mark never does (disk
	// only grows).
	peak     recommend.WindowPeaks
	ramShort float64 // RAM shortfall GB-minutes since the last decision

	// Meters for the non-CPU dimensions, value-held like tenant.meter.
	ramMeter, diskMeter billing.Meter
}

// initMulti builds the tenant's multi-resource state: demand traces
// (derived deterministically from the CPU trace when absent), initial
// grants from the resolved range, and per-dimension meters.
func (t *tenant) initMulti(rr core.ResourceRange, replicas, minutes int, opts Options) error {
	m := &multiState{
		pol:      recommend.VectorPolicy{Mem: t.spec.Mem, Disk: t.spec.Disk, Horizontal: t.spec.Stateless},
		replicas: replicas,
		seeding:  -1,
		seedMin:  t.spec.SeedMinutes,
	}
	period := opts.BillingPeriod
	if period == 0 {
		period = time.Hour
	}
	rates := billing.DefaultRates()

	if rr.Max.RAMGB > 0 {
		tr := t.spec.RAMTrace
		if tr == nil {
			tr = workload.DeriveRAM(t.spec.Trace, 1, 0.5)
		}
		if tr.Interval != time.Minute {
			return fmt.Errorf("RAM trace interval %s is not 1m (resample first): %w", tr.Interval, errs.ErrInvalidConfig)
		}
		if len(tr.Values) < minutes {
			return fmt.Errorf("RAM trace covers %d of %d minutes: %w", len(tr.Values), minutes, errs.ErrInvalidConfig)
		}
		m.ram = tr.Values
		m.ramAlloc = rr.Initial.RAMGB
		price := opts.RAMPricePerGBPeriod
		if price == 0 {
			price = rates.RAMGBPeriod
		}
		mm, err := billing.NewMeter(price, period, time.Minute)
		if err != nil {
			return err
		}
		m.ramMeter = *mm
	}
	if rr.Max.DiskGB > 0 {
		tr := t.spec.DiskTrace
		if tr == nil {
			tr = workload.DeriveDisk(t.spec.Trace, float64(rr.Initial.DiskGB)*0.5, 0.5)
		}
		if tr.Interval != time.Minute {
			return fmt.Errorf("disk trace interval %s is not 1m (resample first): %w", tr.Interval, errs.ErrInvalidConfig)
		}
		if len(tr.Values) < minutes {
			return fmt.Errorf("disk trace covers %d of %d minutes: %w", len(tr.Values), minutes, errs.ErrInvalidConfig)
		}
		m.dsk = tr.Values
		m.diskAlloc = rr.Initial.DiskGB
		price := opts.DiskPricePerGBPeriod
		if price == 0 {
			price = rates.DiskGBPeriod
		}
		dm, err := billing.NewMeter(price, period, time.Minute)
		if err != nil {
			return err
		}
		m.diskMeter = *dm
	}
	t.mr = m
	return nil
}

// observeMultiSegment is the multi-resource catch-up: the per-minute
// observe/account/meter walk over minutes [segStart, segEnd). The CPU
// trace is interpreted as TOTAL tenant demand spread across the serving
// replicas (so horizontal overflow actually relieves pressure); RAM and
// disk traces are per pod. Seeding flips, RAM pressure draws and disk
// caps change minute by minute, so there is no analytic form here and
// multi-resource tenants never sleep.
func (t *tenant) observeMultiSegment(segStart, segEnd int) {
	m := t.mr
	limf := float64(t.set.CPULimit()) // constant within the segment
	for now := segStart; now < segEnd; now++ {
		// Flip a freshly-seeded replica into service (tenant-local: only
		// this goroutine touches this set's pods in phase 1).
		if m.seeding >= 0 && now >= m.seeding {
			for _, p := range t.set.Pods {
				if p.Phase == k8s.PhaseRestarting {
					p.Phase = k8s.PhaseRunning
				}
			}
			m.seeding = -1
		}
		serving := 0
		for _, p := range t.set.Pods {
			if p.Running() {
				serving++
			}
		}
		if serving < 1 {
			serving = 1 // the primary always serves in this model
		}
		capf := limf * float64(serving)

		demand := t.spec.Trace.Values[now]
		if demand > m.peak.TotalCPU {
			m.peak.TotalCPU = demand
		}
		usage := demand
		if usage > capf {
			usage = capf
		}

		// The recommender sees the per-replica average — the same
		// per-pod signal a scrape of any one serving pod would show.
		perPod := usage / float64(serving)
		observed := perPod
		if t.inj.DropSample(t.pod, int64(now)) {
			observed = t.prevUsage
		}
		t.prevUsage = perPod
		t.rec.Observe(now, observed)

		// Ground-truth accounting in total core-minutes.
		if slack := capf - usage; slack > 0 {
			t.res.SumSlack += slack
		}
		if short := demand - capf; short > 0 {
			t.res.SumInsufficient += short
			t.severity += short
			t.res.ThrottledMinutes++
		}
		// Billing covers every pod, seeding replicas included — capacity
		// is reserved (and paid for) from the moment it is scheduled.
		pods := float64(len(t.set.Pods))
		t.meter.Record(limf * pods)

		if m.ram != nil {
			rdemand := m.ram[now] + t.inj.MemPressureGB(t.pod, int64(now))
			if rdemand > m.peak.RAMGB {
				m.peak.RAMGB = rdemand
			}
			if short := rdemand - float64(m.ramAlloc); short > 0 {
				m.ramShort += short
				t.res.RAMShortGBMin += short
				t.res.OOMMinutes++
			}
			m.ramMeter.Record(float64(m.ramAlloc) * pods)
		}
		if m.dsk != nil {
			used := m.dsk[now]
			if used > float64(m.diskAlloc) {
				t.res.DiskFullMinutes++
				used = float64(m.diskAlloc) // writes beyond the volume fail
			}
			if used > m.peak.DiskGB {
				m.peak.DiskGB = used
			}
			m.diskMeter.Record(float64(m.diskAlloc) * pods)
		}
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
		if _, err := t.set.AddReplica(s.cluster, t.set.CPULimit(), int64(now+m.seedMin)); err != nil {
			t.res.Deferrals++
			if s.events {
				s.h.Events.Emit(obs.Event{T: int64(now), Type: "fleet.deferred", Fields: []obs.Field{
					obs.S("tenant", t.spec.Name),
					obs.S("reason", "scale-out"),
					obs.I("want_replicas", int64(prop.target.Replicas)),
					obs.F("severity", prop.severity),
				}})
			}
			return
		}
		m.replicas++
		m.seeding = now + m.seedMin
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
