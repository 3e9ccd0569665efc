package fleet

// multi.go holds the multi-resource tenant loop: RAM scaled by the
// dual-threshold MemoryPolicy, disk grown off its high-water mark, and —
// for stateless tiers — horizontal overflow once the vertical CPU
// ceiling pins. CPU-only tenants never allocate a multiState and run the
// exact pre-vector code paths in fleet.go and events.go; everything here
// engages only when TenantSpec.Resources manages a non-CPU dimension. The
// determinism contract is unchanged: phase 1 (observeMultiSegment,
// decideMulti) writes only tenant-local state, phase 2 (enactMulti) runs
// sequentially.

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

// horizontalHeadroom is the fraction of the replica set's total vertical
// ceiling kept free before overflow adds a replica (and, symmetrically,
// the margin a smaller set must absorb the peak under before scale-in).
const horizontalHeadroom = 0.25

// multiState is the per-tenant multi-resource runtime state, owned by
// exactly one tenant and touched from its phase-1 goroutine plus the
// sequential phase 2.
type multiState struct {
	mem  recommend.MemoryPolicy
	disk recommend.DiskPolicy

	// ram / dsk are the per-minute per-pod demand/usage series in GB
	// (nil when the dimension is unmanaged).
	ram, dsk []float64

	// Current grants: the RAM GB per pod, the volume GB per pod and the
	// replica count.
	ramAlloc, diskAlloc, replicas int

	// seeding is the minute the newest replica finishes seeding (−1:
	// none in flight); seedMin is the spec's seeding delay.
	seeding, seedMin int

	// Decision-window accumulators, reset at each decision.
	ramPeak      float64 // peak per-pod RAM demand (GB)
	diskHigh     float64 // high-water disk usage (GB) — never reset: grow-only
	cpuPeakTotal float64 // peak total CPU demand across replicas (cores)
	ramShort     float64 // RAM shortfall GB-minutes since the last decision

	// Meters for the non-CPU dimensions, value-held like tenant.meter.
	ramMeter, diskMeter billing.Meter
}

// initMulti builds the tenant's multi-resource state: demand traces
// (derived deterministically from the CPU trace when absent), initial
// grants from the resolved range, and per-dimension meters.
func (t *tenant) initMulti(rr core.ResourceRange, replicas, minutes int, opts Options) error {
	m := &multiState{
		mem:      t.spec.Mem,
		disk:     t.spec.Disk,
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
		if demand > m.cpuPeakTotal {
			m.cpuPeakTotal = demand
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
			if rdemand > m.ramPeak {
				m.ramPeak = rdemand
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
			if used > m.diskHigh {
				m.diskHigh = used
			}
			m.diskMeter.Record(float64(m.diskAlloc) * pods)
		}
	}
}

// decideMulti evaluates every managed dimension at a decision tick and
// files one vector proposal when any of them wants to move. Replica
// overflow is vertical-first: a replica is added only when the CPU
// target is pinned at the per-pod ceiling AND the peak total demand
// exceeds what the current set can serve with headroom; it is removed
// only when the target is off the ceiling and the smaller set would
// still absorb the peak with the same headroom.
func (t *tenant) decideMulti(limit int) {
	m, rr := t.mr, &t.spec.Resources
	maxCores := rr.Max.CPUCores
	target := t.rec.Recommend(limit)
	if target < rr.Min.CPUCores {
		target = rr.Min.CPUCores
	} else if target > maxCores {
		target = maxCores
	}

	ram := m.ramAlloc
	if m.ram != nil {
		ram = m.mem.Target(m.ramAlloc, m.ramPeak, rr.Min.RAMGB, rr.Max.RAMGB)
	}
	disk := m.diskAlloc
	if m.dsk != nil {
		disk = m.disk.Target(m.diskAlloc, m.diskHigh, rr.Max.DiskGB)
	}
	reps := m.replicas
	if t.spec.Stateless {
		maxR := rr.Max.Replicas // 0 = unbounded
		minR := rr.Min.Replicas
		if minR < 1 {
			minR = 1
		}
		ceiling := float64(maxCores*reps) * (1 - horizontalHeadroom)
		smaller := float64(maxCores*(reps-1)) * (1 - horizontalHeadroom)
		if target >= maxCores && m.cpuPeakTotal > ceiling && (maxR == 0 || reps < maxR) {
			reps++
		} else if reps > minR && target < maxCores && m.cpuPeakTotal <= smaller {
			reps--
		}
	}

	if target != limit || ram != m.ramAlloc || disk != m.diskAlloc || reps != m.replicas {
		// RAM shortfall joins CPU insufficiency as the arbiter's priority
		// signal: an OOM-ing tenant outranks a merely-throttled one.
		t.prop = proposal{
			target:   target,
			severity: t.severity + m.ramShort,
			multi:    true,
			ram:      ram,
			disk:     disk,
			reps:     reps,
		}
		t.hasProp = true
	}
	t.severity, m.ramShort, m.ramPeak, m.cpuPeakTotal = 0, 0, 0, 0
}

// enactMulti applies one granted vector proposal in phase 2: the in-place
// CPU/RAM resize first (all-or-nothing with rollback, same fault model as
// the CPU-only enact), then the grow-only volume expansion, then the
// replica add/remove. A restart-failure fault aborts only the resize —
// volume growth and replica moves are not pod restarts.
func (s *runState) enactMulti(t *tenant, now int) {
	m := t.mr
	from := t.set.CPULimit()
	fromRAM := m.ramAlloc
	fromReps := m.replicas
	prop := t.prop

	oldMem := t.spec.MemGiBPerPod
	newMem := t.spec.MemGiBPerPod
	if m.ram != nil {
		oldMem = float64(fromRAM)
		newMem = float64(prop.ram)
	}

	if prop.target != from || (m.ram != nil && prop.ram != fromRAM) {
		if t.inj.RestartFails(t.pod, int64(now)) {
			t.res.ResizesAborted++
			if s.events {
				s.h.Events.Emit(obs.Event{T: int64(now), Type: "fleet.resize-aborted", Fields: []obs.Field{
					obs.S("tenant", t.spec.Name),
					obs.I("from", int64(from)),
					obs.I("to", int64(prop.target)),
					obs.S("reason", "restart-fail"),
				}})
			}
			return
		}
		done := s.arb.done[:0]
		for _, p := range t.set.Pods {
			if err := s.cluster.ResizeInPlace(p, k8s.NewGuaranteedSpec(prop.target, newMem)); err != nil {
				for _, q := range done {
					_ = s.cluster.ResizeInPlace(q, k8s.NewGuaranteedSpec(from, oldMem))
				}
				s.arb.done = done[:0]
				t.res.ResizesAborted++
				if s.events {
					s.h.Events.Emit(obs.Event{T: int64(now), Type: "fleet.resize-aborted", Fields: []obs.Field{
						obs.S("tenant", t.spec.Name),
						obs.I("from", int64(from)),
						obs.I("to", int64(prop.target)),
						obs.S("reason", "infeasible"),
					}})
				}
				return
			}
			done = append(done, p)
		}
		s.arb.done = done[:0]
		if m.ram != nil {
			m.ramAlloc = prop.ram
			t.set.MemGiBPerPod = newMem // future replicas inherit the grant
		}
		t.res.NumScalings++
	}

	if m.dsk != nil && prop.disk > m.diskAlloc {
		m.diskAlloc = prop.disk // grow-only: enact never shrinks a volume
	}

	if t.spec.Stateless && prop.reps != fromReps {
		if prop.reps > fromReps {
			if _, err := t.set.AddReplica(s.cluster, t.set.CPULimit(), int64(now+m.seedMin)); err != nil {
				// The arbiter checks existing pods' nodes; a fresh replica
				// competes for cluster-wide capacity and may still lose.
				t.res.Deferrals++
				if s.events {
					s.h.Events.Emit(obs.Event{T: int64(now), Type: "fleet.deferred", Fields: []obs.Field{
						obs.S("tenant", t.spec.Name),
						obs.S("reason", "scale-out"),
						obs.I("want_replicas", int64(prop.reps)),
						obs.F("severity", prop.severity),
					}})
				}
			} else {
				m.replicas++
				m.seeding = now + m.seedMin
				t.res.NumScalings++
			}
		} else if _, err := t.set.RemoveReplica(s.cluster); err == nil {
			m.replicas--
			t.res.NumScalings++
		}
	}

	if s.events {
		s.h.Events.Emit(obs.Event{T: int64(now), Type: "fleet.resize", Fields: []obs.Field{
			obs.S("tenant", t.spec.Name),
			obs.I("from", int64(from)),
			obs.I("to", int64(prop.target)),
			obs.F("severity", prop.severity),
			obs.I("ram_from", int64(fromRAM)),
			obs.I("ram_to", int64(m.ramAlloc)),
			obs.I("disk_gb", int64(m.diskAlloc)),
			obs.I("replicas", int64(m.replicas)),
		}})
	}
}

// infeasibleMulti is the multi-dimensional arbiter check: per node, the
// summed CPU AND RAM resize deltas of the tenant's pods must fit the
// node's free capacity (CPU under the current scheduling pressure). It
// returns the first violating node and the shortfall in the violating
// dimension's native unit, or "" when the grant fits.
func infeasibleMulti(t *tenant, cluster *k8s.Cluster, pressure float64, arb *arbScratch) (string, float64) {
	m := t.mr
	podMem := t.spec.MemGiBPerPod
	if m.ram != nil {
		podMem = float64(t.prop.ram)
	}
	arb.nodes = arb.nodes[:0]
	arb.need = arb.need[:0]
	arb.needMem = arb.needMem[:0]
	for _, p := range t.set.Pods {
		cpuDelta := float64(t.prop.target) - p.CPULimit()
		memDelta := podMem - p.Spec.Requests.MemoryGiB
		if (cpuDelta <= 0 && memDelta <= 0) || p.NodeName == "" {
			continue
		}
		if cpuDelta < 0 {
			cpuDelta = 0
		}
		if memDelta < 0 {
			memDelta = 0
		}
		found := false
		for j, name := range arb.nodes {
			if name == p.NodeName {
				arb.need[j] += cpuDelta
				arb.needMem[j] += memDelta
				found = true
				break
			}
		}
		if !found {
			arb.nodes = append(arb.nodes, p.NodeName)
			arb.need = append(arb.need, cpuDelta)
			arb.needMem = append(arb.needMem, memDelta)
		}
	}
	for j, name := range arb.nodes {
		n := cluster.NodeByName(name)
		if n == nil {
			return name, arb.need[j]
		}
		free := n.Free()
		if avail := free.CPUCores - pressure; arb.need[j] > avail {
			return name, arb.need[j] - avail
		}
		if arb.needMem[j] > free.MemoryGiB {
			return name, arb.needMem[j] - free.MemoryGiB
		}
	}
	return "", 0
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
