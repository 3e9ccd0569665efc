package k8s

import (
	"fmt"
	"sort"

	"caasper/internal/errs"
	"caasper/internal/faults"
	"caasper/internal/obs"
)

// Restart-resilience defaults (see the matching Operator fields).
const (
	// defaultMaxRestartRetries is the retry budget per pod after its
	// first failed attempt.
	defaultMaxRestartRetries = 2
	// defaultBackoffBaseSeconds is the first retry delay; later retries
	// double it (30 s, 60 s, 120 s, …).
	defaultBackoffBaseSeconds = 30
)

// Operator coordinates a stateful set's state transitions (paper Figure 1,
// step 1): role management, failover, and — central to this repository —
// rolling updates with restart (§2.2): a resize restarts pods one at a
// time, secondaries first, the initial primary last, each restart evicting
// and rescheduling the pod with its new resource spec.
//
// The operator is tick-driven: call Tick once per simulated second.
//
// Restarts are allowed to misbehave (the faults layer injects failed and
// stuck attempts, and scheduling pressure): each pod restart is one
// *attempt* with a patience budget (RestartAttemptTimeoutSeconds); an
// attempt that fails, hangs past its budget, or cannot schedule retries
// with exponential backoff up to MaxRestartRetries times, and when the
// budget is exhausted the whole rolling update aborts into a consistent
// whole-set spec — never a split one — after which the scaler resumes
// deciding on the next tick.
type Operator struct {
	// Set is the managed stateful set.
	Set *StatefulSet
	// Cluster schedules restarted pods.
	Cluster *Cluster
	// RestartSeconds is how long one pod's deallocate/reschedule/restart
	// cycle takes. Database A's strict HA flow takes ~300 s per pod (a
	// 3-replica resize spans the paper's 5–15 minute window); Database B
	// ~120 s.
	RestartSeconds int64

	// InPlace enables the Kubernetes in-place pod resize feature the
	// paper evaluates as future work (§2.2 footnote 4, §6.2 footnote 10,
	// §8): limits change without deallocating pods, so resizes complete
	// in one tick with no restarts, no dropped connections and no
	// failover. The paper reports that with this feature "neither the
	// scale-up lag nor failed transactions occur".
	InPlace bool

	// Faults, when non-nil, injects failed restarts, stuck restarts and
	// scheduling pressure (faults package). Nil is the fault-free fast
	// path: every hook below reduces to one nil check.
	Faults *faults.Injector
	// MaxRestartRetries bounds retries per pod after its first failed
	// attempt before the update aborts (0 selects the default, 2).
	MaxRestartRetries int
	// RestartAttemptTimeoutSeconds is the patience budget of a single
	// restart attempt: an attempt still incomplete this long after it
	// began (stuck container, scheduling stall) is declared failed and
	// retried (0 selects the default, 2×RestartSeconds).
	RestartAttemptTimeoutSeconds int64
	// BackoffBaseSeconds is the first retry delay; retry n waits
	// base·2^(n−1) before the next attempt (0 selects the default, 30 s).
	BackoffBaseSeconds int64

	// OnPodDown, OnPodUp and OnFailover, when non-nil, notify the
	// application layer (the database simulator drops the pod's
	// connections on restart, matching the paper's "user connections
	// are interrupted when a pod instance restarts").
	OnPodDown  func(p *Pod)
	OnPodUp    func(p *Pod)
	OnFailover func(oldPrimary, newPrimary *Pod)

	// FailoverCount counts primary hand-offs (observability).
	FailoverCount int
	// ResizeCount counts completed rolling updates.
	ResizeCount int
	// RestartRetries counts restart attempts that were retried after a
	// failure, hang or scheduling stall.
	RestartRetries int
	// ResizesAborted counts rolling updates that gave up and rolled the
	// set back to a consistent spec.
	ResizesAborted int

	// Events, when non-nil and enabled, receives the operator's
	// structured lifecycle stream keyed on simulated seconds:
	// "k8s.resize-requested" / "k8s.resize-rejected", "k8s.rolling-phase"
	// per pod transition, "k8s.restart-disruption" per eviction,
	// "k8s.restart-retry" per backed-off retry, "k8s.resize-aborted" on
	// rollback, "k8s.failover" per hand-off and a "k8s.resize-completed"
	// span event carrying the update's simulated duration.
	Events obs.Sink
	// Stats, when non-nil, receives runtime counters (pod restarts,
	// failovers, completed resizes, retries, aborts).
	Stats *obs.Registry

	// rolling-update state
	updating    bool
	started     bool // first restart of the update has begun
	targetCores int
	fromCores   int      // limit before the update (rollback anchor)
	resizeSpan  obs.Span // open resize interval, ends at completion
	queue       []*Pod   // pods still to restart, in restart order
	inFlight    *Pod     // pod currently restarting
	// attempt counts restart attempts for the in-flight pod (1 = first);
	// attemptDeadline is the tick at which the current attempt is
	// declared failed.
	attempt         int
	attemptDeadline int64
	// recovering is an aborted update's in-flight pod still being
	// brought back up at the rolled-back spec. While it is non-nil the
	// operator reports idle (the scaler decides again) but rejects new
	// resizes.
	recovering *Pod
	// EffectiveAt records when the most recent resize became effective
	// for the primary (users "experience" the new allocation).
	EffectiveAt int64
}

// NewOperator builds an operator.
func NewOperator(set *StatefulSet, cluster *Cluster, restartSeconds int64) (*Operator, error) {
	if set == nil || cluster == nil {
		return nil, fmt.Errorf("k8s: operator needs a set and a cluster: %w", errs.ErrInvalidConfig)
	}
	if restartSeconds < 1 {
		return nil, fmt.Errorf("k8s: restartSeconds must be ≥ 1: %w", errs.ErrInvalidConfig)
	}
	return &Operator{Set: set, Cluster: cluster, RestartSeconds: restartSeconds}, nil
}

// Updating reports whether a rolling update is in flight.
func (o *Operator) Updating() bool { return o.updating }

// TargetCores returns the in-flight resize target (0 when idle).
func (o *Operator) TargetCores() int {
	if !o.updating {
		return 0
	}
	return o.targetCores
}

// maxRestartAttempts returns the attempt budget per pod (first attempt
// plus retries).
func (o *Operator) maxRestartAttempts() int {
	retries := o.MaxRestartRetries
	if retries <= 0 {
		retries = defaultMaxRestartRetries
	}
	return retries + 1
}

// attemptTimeout returns the per-attempt patience budget in seconds.
func (o *Operator) attemptTimeout() int64 {
	if o.RestartAttemptTimeoutSeconds > 0 {
		return o.RestartAttemptTimeoutSeconds
	}
	return 2 * o.RestartSeconds
}

// emit sends one lifecycle event when the sink is enabled.
func (o *Operator) emit(now int64, typ string, fields ...obs.Field) {
	if obs.Enabled(o.Events) {
		o.Events.Emit(obs.Event{T: now, Type: typ, Fields: fields})
	}
}

// RequestResize begins a rolling update to the new whole-core limit. It
// fails while another update (or an abort recovery) is in flight — the
// scaler serializes on this — or when the target equals the current limit.
func (o *Operator) RequestResize(targetCores int, now int64) error {
	if o.updating {
		o.emit(now, "k8s.resize-rejected", obs.I("to", int64(targetCores)), obs.S("reason", "update in flight"))
		return fmt.Errorf("k8s: resize to %d rejected: update to %d in flight", targetCores, o.targetCores)
	}
	if o.recovering != nil {
		o.emit(now, "k8s.resize-rejected", obs.I("to", int64(targetCores)), obs.S("reason", "abort recovery in flight"))
		return fmt.Errorf("k8s: resize to %d rejected: pod %s still recovering from an aborted update", targetCores, o.recovering.Name)
	}
	if targetCores < 1 {
		o.emit(now, "k8s.resize-rejected", obs.I("to", int64(targetCores)), obs.S("reason", "invalid target"))
		return fmt.Errorf("k8s: invalid target %d", targetCores)
	}
	from := o.Set.CPULimit()
	if targetCores == from {
		o.emit(now, "k8s.resize-rejected", obs.I("to", int64(targetCores)), obs.S("reason", "target equals current limit"))
		return fmt.Errorf("k8s: target %d equals current limit", targetCores)
	}
	if o.InPlace {
		// In-place resize: patch every pod's spec without a restart.
		// Node request accounting moves with the spec; a scale-up that
		// no longer fits its node would be rejected by the real
		// scheduler too, so reject it here rather than over-commit.
		o.emit(now, "k8s.resize-requested",
			obs.I("from", int64(from)), obs.I("to", int64(targetCores)), obs.S("mode", "in-place"))
		if err := o.resizeInPlace(targetCores); err != nil {
			o.emit(now, "k8s.resize-rejected", obs.I("to", int64(targetCores)), obs.S("reason", err.Error()))
			return err
		}
		o.ResizeCount++
		o.EffectiveAt = now
		o.Stats.Counter("k8s.resizes_completed").Inc()
		o.emit(now, "k8s.resize-completed",
			obs.I("dur", 0), obs.I("to", int64(targetCores)), obs.S("mode", "in-place"))
		return nil
	}
	o.updating = true
	o.started = false
	o.targetCores = targetCores
	o.fromCores = from
	o.emit(now, "k8s.resize-requested",
		obs.I("from", int64(from)), obs.I("to", int64(targetCores)),
		obs.S("mode", "rolling"), obs.I("pods", int64(len(o.Set.Pods))))
	o.resizeSpan = obs.StartSpan(o.Events, "k8s.resize-completed", now)

	// Restart order: secondaries by ordinal, the current primary last
	// (§3.1: "the operator policy prioritizes updating the initial
	// primary replica last to avoid additional client failovers").
	var secondaries, primaries []*Pod
	for _, p := range o.Set.Pods {
		if p.Role == RolePrimary {
			primaries = append(primaries, p)
		} else {
			secondaries = append(secondaries, p)
		}
	}
	sort.Slice(secondaries, func(i, j int) bool { return secondaries[i].Ordinal < secondaries[j].Ordinal })
	o.queue = append(secondaries, primaries...)
	return nil
}

// resizeInPlace patches every pod's spec through the cluster's in-place
// resize path, validating feasibility pod by pod. On a mid-way failure it
// rolls the already-patched pods back so the set never ends up split.
func (o *Operator) resizeInPlace(targetCores int) error {
	spec := NewGuaranteedSpec(targetCores, o.Set.MemGiBPerPod)
	var done []*Pod
	var prev []ContainerSpec
	for _, p := range o.Set.Pods {
		old := p.Spec
		if err := o.Cluster.ResizeInPlace(p, spec); err != nil {
			for i := len(done) - 1; i >= 0; i-- {
				// Shrinking back to the previous spec always fits.
				if rbErr := o.Cluster.ResizeInPlace(done[i], prev[i]); rbErr != nil {
					// Rollback of a shrink cannot fail; if it somehow
					// does, surface both errors loudly.
					return fmt.Errorf("k8s: in-place rollback failed: %v (original: %w)", rbErr, err)
				}
			}
			return err
		}
		done = append(done, p)
		prev = append(prev, old)
	}
	return nil
}

// Tick advances the rolling-update state machine by one step at time now
// (seconds). It finishes at most one restart and starts at most one per
// call; with one call per simulated second this matches the serialized
// per-pod flow.
func (o *Operator) Tick(now int64) {
	if o.Faults != nil {
		o.Cluster.SetPressure(o.Faults.PressureCores(now))
	}

	// Post-abort recovery: the aborted update's in-flight pod still has
	// to come back up (at the rolled-back spec) even though the update
	// itself ended and the scaler is deciding again. Recovery ignores
	// injected restart failures — it must terminate — but competes for
	// capacity like any restart, so scheduling pressure still delays it.
	if o.recovering != nil && now >= o.recovering.RestartingUntil {
		p := o.recovering
		if err := o.Cluster.Schedule(p); err == nil {
			p.Phase = PhaseRunning
			p.Restarts++
			o.recovering = nil
			o.Stats.Counter("k8s.pod_restarts").Inc()
			o.emit(now, "k8s.rolling-phase",
				obs.S("pod", p.Name), obs.S("phase", "recovered"), obs.I("restarts", int64(p.Restarts)))
			if o.OnPodUp != nil {
				o.OnPodUp(p)
			}
		} else {
			o.Stats.Counter("k8s.sched_retries").Inc()
		}
	}

	if !o.updating {
		return
	}

	// Complete — or give up on — an in-flight restart attempt.
	if o.inFlight != nil {
		p := o.inFlight
		if now >= o.attemptDeadline {
			// The attempt outlived its patience budget: a stuck
			// container or a scheduling stall. Retry with backoff or
			// abort the update.
			o.retryOrAbort(now, p, "attempt timed out")
			return
		}
		if now < p.RestartingUntil {
			return // still restarting
		}
		if o.Faults.RestartFails(p.Name, now) {
			o.retryOrAbort(now, p, "restart failed")
			return
		}
		if err := o.Cluster.Schedule(p); err != nil {
			// No capacity right now: retry next tick, bounded by the
			// attempt deadline. Real operators back off; one-second
			// retries are equivalent here.
			o.Stats.Counter("k8s.sched_retries").Inc()
			return
		}
		p.Phase = PhaseRunning
		p.Restarts++
		o.inFlight = nil
		o.attempt = 0
		o.Stats.Counter("k8s.pod_restarts").Inc()
		o.emit(now, "k8s.rolling-phase",
			obs.S("pod", p.Name), obs.S("phase", "running"), obs.I("restarts", int64(p.Restarts)))
		if o.OnPodUp != nil {
			o.OnPodUp(p)
		}
	}

	// Start the next restart, or finish the update.
	if len(o.queue) == 0 {
		o.updating = false
		o.ResizeCount++
		o.EffectiveAt = now
		o.Stats.Counter("k8s.resizes_completed").Inc()
		o.resizeSpan.End(now, obs.I("to", int64(o.targetCores)), obs.S("mode", "rolling"))
		o.resizeSpan = obs.Span{}
		return
	}
	if !o.started {
		o.started = true
		o.emit(now, "k8s.resize-started",
			obs.I("to", int64(o.targetCores)), obs.I("pods", int64(len(o.queue))))
	}
	p := o.queue[0]
	o.queue = o.queue[1:]

	// Restarting the primary forces a failover to an updated secondary
	// first — the single, final failover the paper's ordering is
	// designed to guarantee.
	if p.Role == RolePrimary {
		if s := o.pickFailoverTarget(); s != nil {
			p.Role = RoleSecondary
			s.Role = RolePrimary
			o.FailoverCount++
			o.Stats.Counter("k8s.failovers").Inc()
			o.emit(now, "k8s.failover", obs.S("from", p.Name), obs.S("to", s.Name))
			if o.OnFailover != nil {
				o.OnFailover(p, s)
			}
		}
	}

	o.Cluster.Evict(p)
	o.emit(now, "k8s.restart-disruption",
		obs.S("pod", p.Name), obs.S("role", string(p.Role)), obs.I("until", now+o.RestartSeconds))
	if o.OnPodDown != nil {
		o.OnPodDown(p)
	}
	p.Phase = PhaseRestarting
	p.Spec = NewGuaranteedSpec(o.targetCores, o.Set.MemGiBPerPod)
	p.RestartingUntil = now + o.RestartSeconds
	if d := o.Faults.RestartStuck(p.Name, now); d > 0 {
		p.RestartingUntil += d
	}
	o.attempt = 1
	o.attemptDeadline = now + o.attemptTimeout()
	o.inFlight = p
	o.emit(now, "k8s.rolling-phase",
		obs.S("pod", p.Name), obs.S("phase", "restarting"), obs.I("cores", int64(o.targetCores)))
}

// retryOrAbort handles a failed restart attempt for the in-flight pod:
// relaunch it after an exponentially backed-off delay, or — once the
// attempt budget is spent — abort the whole update.
func (o *Operator) retryOrAbort(now int64, p *Pod, reason string) {
	if o.attempt >= o.maxRestartAttempts() {
		o.abortResize(now, reason)
		return
	}
	base := o.BackoffBaseSeconds
	if base <= 0 {
		base = defaultBackoffBaseSeconds
	}
	delay := base << uint(o.attempt-1) // 1×, 2×, 4×, …
	o.attempt++
	o.RestartRetries++
	o.Stats.Counter("k8s.restart_retries").Inc()
	p.RestartingUntil = now + delay + o.RestartSeconds
	// The fresh attempt can get stuck too (independent draw).
	if d := o.Faults.RestartStuck(p.Name, now); d > 0 {
		p.RestartingUntil += d
	}
	o.attemptDeadline = now + delay + o.attemptTimeout()
	o.emit(now, "k8s.restart-retry",
		obs.S("pod", p.Name), obs.S("reason", reason),
		obs.I("attempt", int64(o.attempt)), obs.I("backoff", delay),
		obs.I("until", p.RestartingUntil))
}

// abortResize gives up on the rolling update, leaving every pod on one
// consistent spec — never a split set. The rollback direction is chosen
// so that every patch is a *shrink*, which always fits: a scale-up abort
// reverts the already-updated pods to the old limit; a scale-down abort
// rolls the not-yet-updated pods forward to the new one. The in-flight
// pod is relaunched at the final spec through the recovery path; until
// it lands, new resizes are rejected (and audited) rather than queued.
func (o *Operator) abortResize(now int64, reason string) {
	final := o.fromCores
	if o.targetCores < o.fromCores {
		final = o.targetCores
	}
	spec := NewGuaranteedSpec(final, o.Set.MemGiBPerPod)
	for _, p := range o.Set.Pods {
		if p == o.inFlight || int(p.Spec.Requests.CPUCores) == final {
			continue
		}
		// Shrink by construction; an error would mean the invariant
		// broke, so surface it in the audit stream instead of splitting
		// the set silently.
		if err := o.Cluster.ResizeInPlace(p, spec); err != nil {
			o.Stats.Counter("k8s.rollback_errors").Inc()
			o.emit(now, "k8s.rolling-phase",
				obs.S("pod", p.Name), obs.S("phase", "rollback-error"), obs.S("reason", err.Error()))
			continue
		}
		o.emit(now, "k8s.rolling-phase",
			obs.S("pod", p.Name), obs.S("phase", "rolled-back"), obs.I("cores", int64(final)))
	}
	if p := o.inFlight; p != nil {
		// Kill the failed attempt and relaunch at the final spec; the
		// recovery path (top of Tick) completes it outside the update.
		p.Spec = spec
		p.RestartingUntil = now + o.RestartSeconds
		o.recovering = p
	}
	o.inFlight = nil
	o.queue = nil
	o.updating = false
	o.started = false
	o.attempt = 0
	o.ResizesAborted++
	o.Stats.Counter("k8s.resizes_aborted").Inc()
	o.emit(now, "k8s.resize-aborted",
		obs.I("from", int64(o.fromCores)), obs.I("to", int64(o.targetCores)),
		obs.I("final", int64(final)), obs.S("reason", reason))
	// Drop the open span: aborted updates must not emit resize-completed.
	o.resizeSpan = obs.Span{}
}

// pickFailoverTarget chooses the running secondary with the lowest
// ordinal (deterministic; already resized at this point in the queue).
func (o *Operator) pickFailoverTarget() *Pod {
	var best *Pod
	for _, p := range o.Set.Pods {
		if p.Running() && p.Role == RoleSecondary {
			if best == nil || p.Ordinal < best.Ordinal {
				best = p
			}
		}
	}
	return best
}
