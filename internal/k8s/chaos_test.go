package k8s

import (
	"strings"
	"testing"

	"caasper/internal/baselines"
	"caasper/internal/faults"
	"caasper/internal/obs"
)

// captureRec records every observation it is fed and always recommends a
// fixed target — a probe for what the scaler actually shows the
// recommender.
type captureRec struct {
	target  int
	minutes []int
	values  []float64
}

func (c *captureRec) Name() string { return "capture" }
func (c *captureRec) Observe(minute int, usageCores float64) {
	c.minutes = append(c.minutes, minute)
	c.values = append(c.values, usageCores)
}
func (c *captureRec) Recommend(int) int { return c.target }
func (c *captureRec) Reset()            { c.minutes, c.values = nil, nil }

// panicRec panics on Recommend — the scaler must survive it.
type panicRec struct{ captureRec }

func (p *panicRec) Recommend(int) int { panic("recommender bug") }

func mustSpec(t *testing.T, s string) *faults.Spec {
	t.Helper()
	spec, err := faults.ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestScalerCursorSurvivesFailover is the regression test for the cursor
// bug: the scaler tracked only a bare series index, so after a failover
// the index kept walking a *different pod's* history — feeding the new
// primary's old secondary-role samples as if they were fresh primary
// load. The fix keys the cursor on (pod, index) and resumes from the new
// primary's first post-failover bucket.
func TestScalerCursorSurvivesFailover(t *testing.T) {
	c := SmallCluster()
	set, err := NewStatefulSet("db", 2, 4, 16, c)
	if err != nil {
		t.Fatal(err)
	}
	op, err := NewOperator(set, c, 100)
	if err != nil {
		t.Fatal(err)
	}
	ms := NewMetricsServer(60)
	rec := &captureRec{target: 4}
	sc, err := NewScaler(rec, op, ms, 600, 2, 8)
	if err != nil {
		t.Fatal(err)
	}

	// Primary db-0 at 6 cores for 10 closed buckets; secondary db-1 idles
	// at 1 core but has *more* closed buckets (14) — its scrapes kept
	// flowing while db-0's stalled, exactly the shape that exposed the
	// bare-index bug.
	for s := int64(0); s < 10*60; s++ {
		ms.RecordUsage("db-0", s, 6)
	}
	ms.RecordUsage("db-0", 10*60, 6) // close bucket 9
	for s := int64(0); s < 14*60; s++ {
		ms.RecordUsage("db-1", s, 1)
	}
	sc.Tick(0)
	if n := len(rec.values); n != 10 {
		t.Fatalf("pre-failover observations = %d, want 10", n)
	}

	// Failover on the bucket boundary: db-1 becomes primary and starts
	// serving the real load from second 840 (bucket 14) on.
	set.Pods[0].Role = RoleSecondary
	set.Pods[1].Role = RolePrimary
	ms.RecordUsage("db-1", 14*60, 7) // closes idle bucket 13
	sc.Tick(1)
	if n := len(rec.values); n != 10 {
		t.Fatalf("failover instant fed %d observations, want still 10 (no closed post-failover bucket yet)", n)
	}
	// Two post-failover buckets close at 7 cores.
	for s := int64(14*60 + 1); s < 16*60; s++ {
		ms.RecordUsage("db-1", s, 7)
	}
	ms.RecordUsage("db-1", 16*60, 7)
	sc.Tick(2)

	// The buggy cursor would now have replayed db-1's buckets 10..13 —
	// four samples at 1 core of pre-failover secondary history.
	for i, v := range rec.values {
		if v == 1 {
			t.Fatalf("observation %d = 1 core: new primary's pre-failover history leaked into the feed\nvalues: %v", i, rec.values)
		}
	}
	// Exactly the 10 old-primary samples plus db-1's post-failover buckets
	// (bucket 14 at ~1→7 transition is skipped: it closed pre-switch).
	want := []float64{6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 7, 7}
	if len(rec.values) != len(want) {
		t.Fatalf("observations = %v, want %v", rec.values, want)
	}
	for i := range want {
		if rec.values[i] != want[i] {
			t.Fatalf("observation %d = %v, want %v (all: %v)", i, rec.values[i], want[i], rec.values)
		}
	}
	// The minute indices stay on the global bucket grid across the switch.
	if last := rec.minutes[len(rec.minutes)-1]; last != 15 {
		t.Errorf("last minute index = %d, want 15", last)
	}
}

// TestScalerCarriesForwardOverSilentBuckets is the regression test for
// restart-gap zeros: buckets with no samples (pod restarting, scrapes
// lost) used to be fed to the recommender as measured 0.0, dragging the
// recommendation down right after every resize. They now carry the last
// real level forward.
func TestScalerCarriesForwardOverSilentBuckets(t *testing.T) {
	c := SmallCluster()
	set, _ := NewStatefulSet("db", 2, 4, 16, c)
	op, _ := NewOperator(set, c, 100)
	ms := NewMetricsServer(60)
	rec := &captureRec{target: 4}
	sc, err := NewScaler(rec, op, ms, 600, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sc.Stats = reg

	// Buckets 0–4 measured at 3.5 cores, buckets 5–7 silent (restart
	// gap), buckets 8–9 measured at 3.5 again.
	for s := int64(0); s < 5*60; s++ {
		ms.RecordUsage("db-0", s, 3.5)
	}
	for s := int64(8 * 60); s < 10*60; s++ {
		ms.RecordUsage("db-0", s, 3.5)
	}
	ms.RecordUsage("db-0", 10*60, 3.5)
	sc.Tick(0)

	if len(rec.values) != 10 {
		t.Fatalf("observations = %v, want 10 buckets", rec.values)
	}
	for i, v := range rec.values {
		if v != 3.5 {
			t.Errorf("observation %d = %v, want carried-forward 3.5", i, v)
		}
	}
	if got := reg.Counter("k8s.silent_samples").Value(); got != 3 {
		t.Errorf("silent_samples counter = %d, want 3", got)
	}
	// And the metrics server itself knows which buckets were silent.
	for i := 0; i < 10; i++ {
		want := i >= 5 && i <= 7
		if ms.IsSilent("db-0", i) != want {
			t.Errorf("IsSilent(%d) = %v, want %v", i, !want, want)
		}
	}
}

// TestScalerGapDecisionMatchesGaplessRun pins the post-resize decision:
// a run whose metric stream has a restart gap must decide exactly like a
// run that never lost a sample, because carry-forward makes the gap
// invisible to the recommender.
func TestScalerGapDecisionMatchesGaplessRun(t *testing.T) {
	decide := func(gap bool) float64 {
		c := SmallCluster()
		set, _ := NewStatefulSet("db", 2, 6, 16, c)
		op, _ := NewOperator(set, c, 100)
		ms := NewMetricsServer(60)
		rec, err := baselines.NewKubernetesVPA(baselines.DefaultKubernetesVPAOptions(8))
		if err != nil {
			t.Fatal(err)
		}
		sc, err := NewScaler(rec, op, ms, 1200, 2, 8)
		if err != nil {
			t.Fatal(err)
		}
		for s := int64(0); s <= 20*60; s++ {
			inGap := gap && s >= 10*60 && s < 13*60
			if !inGap {
				ms.RecordUsage("db-0", s, 4)
			}
		}
		sc.Tick(1200)
		if len(sc.DecisionSeries) != 1 {
			t.Fatalf("decisions = %v", sc.DecisionSeries)
		}
		return sc.DecisionSeries[0]
	}
	withGap, without := decide(true), decide(false)
	if withGap != without {
		t.Errorf("decision with restart gap = %v, without = %v; carry-forward must make them equal", withGap, without)
	}
}

// TestScalerHoldsOnStaleMetrics pins graceful degradation: when the
// primary's samples stop arriving entirely (dead metrics pipeline), the
// scaler holds the last enacted limit instead of deciding on silence.
func TestScalerHoldsOnStaleMetrics(t *testing.T) {
	c := SmallCluster()
	set, _ := NewStatefulSet("db", 2, 4, 16, c)
	op, _ := NewOperator(set, c, 100)
	ms := NewMetricsServer(60)
	sc, err := NewScaler(baselines.NewControl(8), op, ms, 600, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	mem := obs.NewMemorySink()
	reg := obs.NewRegistry()
	sc.Events, sc.Stats = mem, reg

	// Samples flow for 100 s, then the pipeline dies.
	for s := int64(0); s <= 100; s++ {
		ms.RecordUsage("db-0", s, 3)
	}
	sc.Tick(600) // newest sample is 500 s old > 3×60 s default threshold

	if sc.DecisionsHeld != 1 || sc.ScalingsRequested != 0 {
		t.Errorf("held=%d requested=%d, want 1/0", sc.DecisionsHeld, sc.ScalingsRequested)
	}
	if set.CPULimit() != 4 {
		t.Errorf("limit = %d, want held 4", set.CPULimit())
	}
	if got := reg.Counter("k8s.decisions_held").Value(); got != 1 {
		t.Errorf("decisions_held counter = %d, want 1", got)
	}
	lines := eventLines(mem)
	if countEvents(lines, "k8s.decision-held") != 1 {
		t.Fatalf("no decision-held event:\n%s", strings.Join(lines, "\n"))
	}
	for _, l := range lines {
		if strings.Contains(l, `"type":"k8s.decision-held"`) && !strings.Contains(l, `"reason":"metrics stale"`) {
			t.Errorf("held event missing stale reason: %s", l)
		}
	}

	// Disabling the check restores the old eager behavior.
	sc2, _ := NewScaler(baselines.NewControl(8), op, ms, 600, 2, 8)
	sc2.StaleAfterSeconds = -1
	sc2.Tick(600)
	if sc2.DecisionsHeld != 0 || sc2.ScalingsRequested != 1 {
		t.Errorf("disabled staleness: held=%d requested=%d, want 0/1", sc2.DecisionsHeld, sc2.ScalingsRequested)
	}
}

// TestScalerRecoversFromRecommenderPanic pins the other degradation rule:
// a panicking recommender must not take the control loop down — the tick
// holds, the panic is counted, and later ticks keep running.
func TestScalerRecoversFromRecommenderPanic(t *testing.T) {
	c := SmallCluster()
	set, _ := NewStatefulSet("db", 2, 4, 16, c)
	op, _ := NewOperator(set, c, 100)
	ms := NewMetricsServer(60)
	sc, err := NewScaler(&panicRec{}, op, ms, 600, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	mem := obs.NewMemorySink()
	reg := obs.NewRegistry()
	sc.Events, sc.Stats = mem, reg
	for s := int64(0); s <= 1300; s++ {
		ms.RecordUsage("db-0", s, 3)
	}

	sc.Tick(600)
	sc.Tick(1200)

	if sc.RecommenderPanics != 2 || sc.DecisionsHeld != 2 {
		t.Errorf("panics=%d held=%d, want 2/2", sc.RecommenderPanics, sc.DecisionsHeld)
	}
	if set.CPULimit() != 4 {
		t.Errorf("limit = %d, want held 4", set.CPULimit())
	}
	if got := reg.Counter("k8s.recommender_panics").Value(); got != 2 {
		t.Errorf("recommender_panics counter = %d, want 2", got)
	}
	lines := eventLines(mem)
	if countEvents(lines, "k8s.recommender-panic") != 2 || countEvents(lines, "k8s.decision-held") != 2 {
		t.Errorf("panic audit events missing:\n%s", strings.Join(lines, "\n"))
	}
}

// TestOperatorRetriesThenAbortsStuckUpdate is the acceptance lifecycle
// test: under an injected permanently-stuck restart the operator retries
// with exponential backoff, aborts into a consistent whole-set limit
// (never a split spec), rejects-and-audits the resize the scaler asks for
// while the aborted pod recovers, and accepts a fresh resize afterwards.
func TestOperatorRetriesThenAbortsStuckUpdate(t *testing.T) {
	c := SmallCluster()
	set, err := NewStatefulSet("db", 3, 4, 16, c)
	if err != nil {
		t.Fatal(err)
	}
	op, err := NewOperator(set, c, 400)
	if err != nil {
		t.Fatal(err)
	}
	ms := NewMetricsServer(60)
	sc, err := NewScaler(baselines.NewControl(6), op, ms, 300, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(mustSpec(t, "restart-stuck:p=1:dur=100000"), 1)
	mem := obs.NewMemorySink()
	reg := obs.NewRegistry()
	inj.Events, inj.Stats = mem, reg
	op.Events, op.Stats = mem, reg
	sc.Events, sc.Stats = mem, reg
	op.Faults = inj

	for now := int64(0); now <= 3350; now++ {
		op.Tick(now)
		for _, p := range set.Pods {
			if p.Running() {
				ms.RecordUsage(p.Name, now, p.ConsumeCPU(3, 1))
			}
		}
		sc.Tick(now)
	}

	// Retry/abort accounting: the scaler requests at t=300, the operator
	// starts the first attempt at t=301 (deadline 1101), retries at 1101
	// and 1931 (backoff 30 then 60), and aborts at 2791.
	if op.RestartRetries != 2 {
		t.Errorf("RestartRetries = %d, want 2", op.RestartRetries)
	}
	if op.ResizesAborted != 1 {
		t.Errorf("ResizesAborted = %d, want 1", op.ResizesAborted)
	}
	if got := reg.Counter("k8s.restart_retries").Value(); got != 2 {
		t.Errorf("restart_retries counter = %d, want 2", got)
	}
	if got := reg.Counter("k8s.resizes_aborted").Value(); got != 1 {
		t.Errorf("resizes_aborted counter = %d, want 1", got)
	}
	// The scaler's decision during recovery was rejected and audited;
	// after recovery the next decision was accepted (second update).
	if sc.ScalingsRejected != 1 {
		t.Errorf("ScalingsRejected = %d, want 1", sc.ScalingsRejected)
	}
	if got := reg.Counter("k8s.resizes_rejected").Value(); got != 1 {
		t.Errorf("resizes_rejected counter = %d, want 1", got)
	}
	if sc.ScalingsRequested != 2 {
		t.Errorf("ScalingsRequested = %d, want 2 (initial + post-recovery)", sc.ScalingsRequested)
	}

	// Exact chaos event sequence (fault injections, retries, abort,
	// recovery, rejection, re-request), in emission order.
	wantSeq := []string{
		`{"t":300,"type":"k8s.resize-requested","from":4,"to":6,"mode":"rolling","pods":3}`,
		`{"t":301,"type":"fault.restart-stuck","pod":"db-1","dur":100000}`,
		`{"t":1101,"type":"fault.restart-stuck","pod":"db-1","dur":100000}`,
		`{"t":1101,"type":"k8s.restart-retry","pod":"db-1","reason":"attempt timed out","attempt":2,"backoff":30,"until":101531}`,
		`{"t":1931,"type":"fault.restart-stuck","pod":"db-1","dur":100000}`,
		`{"t":1931,"type":"k8s.restart-retry","pod":"db-1","reason":"attempt timed out","attempt":3,"backoff":60,"until":102391}`,
		`{"t":2791,"type":"k8s.resize-aborted","from":4,"to":6,"final":4,"reason":"attempt timed out"}`,
		`{"t":3000,"type":"k8s.resize-rejected","to":6,"reason":"abort recovery in flight"}`,
		`{"t":3191,"type":"k8s.rolling-phase","pod":"db-1","phase":"recovered","restarts":1}`,
		`{"t":3300,"type":"k8s.resize-requested","from":4,"to":6,"mode":"rolling","pods":3}`,
	}
	lines := eventLines(mem)
	i := 0
	for _, l := range lines {
		if i < len(wantSeq) && l == wantSeq[i] {
			i++
		}
	}
	if i != len(wantSeq) {
		t.Errorf("event sequence diverged at step %d (%s)\nstream:\n%s",
			i, wantSeq[i], strings.Join(lines, "\n"))
	}

	// No split spec at any point after the abort settled: by the end of
	// the run the *second* update is in flight, so check consistency on a
	// fresh replica scan — every pod not mid-restart shares one limit.
	limits := map[float64]int{}
	for _, p := range set.Pods {
		if p.Running() {
			limits[p.Spec.Requests.CPUCores]++
		}
	}
	if len(limits) > 1 {
		t.Errorf("split spec across running pods: %v", limits)
	}
	// The aborted update must not have emitted a completion span.
	aborted2790 := false
	for _, l := range lines {
		if strings.Contains(l, `"type":"k8s.resize-completed"`) && strings.Contains(l, `"t":300,`) {
			aborted2790 = true
		}
	}
	if aborted2790 {
		t.Error("aborted update emitted a resize-completed span")
	}
}

// TestOperatorAbortRollsBackUpdatedPods pins the whole-set consistency
// rule when the abort lands mid-queue: the already-updated pods are
// rolled back (scale-up abort → final = the old limit), so the set never
// splits across two specs.
func TestOperatorAbortRollsBackUpdatedPods(t *testing.T) {
	c := SmallCluster()
	set, _ := NewStatefulSet("db", 3, 4, 16, c)
	op, _ := NewOperator(set, c, 100)
	op.MaxRestartRetries = 1
	op.BackoffBaseSeconds = 10
	mem := obs.NewMemorySink()
	op.Events = mem

	if err := op.RequestResize(6, 0); err != nil {
		t.Fatal(err)
	}
	// Let the first secondary (db-1) update cleanly, then arm the
	// injector so every later restart fails: the abort lands mid-queue
	// with one pod already on the new spec.
	now := int64(0)
	for ; now < 5000; now++ {
		op.Tick(now)
		if set.Pods[1].Running() && set.Pods[1].Spec.Requests.CPUCores == 6 {
			break
		}
	}
	if !op.Updating() {
		t.Fatal("update finished before the fault could be armed")
	}
	op.Faults = faults.New(mustSpec(t, "restart-fail:p=1"), 1)
	for ; now < 10000 && op.Updating(); now++ {
		op.Tick(now)
	}
	if op.ResizesAborted != 1 {
		t.Fatalf("ResizesAborted = %d, want 1", op.ResizesAborted)
	}
	// The already-updated db-1 was rolled back by the abort itself.
	if got := set.Pods[1].Spec.Requests.CPUCores; got != 4 {
		t.Errorf("updated pod db-1 at %v cores after abort, want rolled back to 4", got)
	}
	if countEvents(eventLines(mem), "k8s.rolling-phase") == 0 {
		t.Error("no rolling-phase events emitted")
	}
	// Scale-up abort: final spec is the old limit for every pod.
	for now := int64(5000); op.recovering != nil; now++ {
		op.Tick(now)
	}
	for _, p := range set.Pods {
		if p.Spec.Requests.CPUCores != 4 {
			t.Errorf("pod %s at %v cores after abort, want rolled back to 4", p.Name, p.Spec.Requests.CPUCores)
		}
		if !p.Running() {
			t.Errorf("pod %s not running after recovery", p.Name)
		}
	}
	if got := allocatedCores(c); got != 12 {
		t.Errorf("allocated = %v, want 12 (3 pods × 4 cores)", got)
	}
}

// TestOperatorScaleDownAbortRollsForward pins the other abort direction:
// aborting a scale-DOWN rolls the remaining pods forward to the new
// (smaller) limit — still one consistent spec, still only shrinks.
func TestOperatorScaleDownAbortRollsForward(t *testing.T) {
	c := SmallCluster()
	set, _ := NewStatefulSet("db", 3, 6, 16, c)
	op, _ := NewOperator(set, c, 100)
	op.MaxRestartRetries = 1
	op.BackoffBaseSeconds = 10
	inj := faults.New(mustSpec(t, "restart-fail:p=1"), 1)
	op.Faults = inj

	if err := op.RequestResize(4, 0); err != nil {
		t.Fatal(err)
	}
	for now := int64(0); now < 5000 && op.Updating(); now++ {
		op.Tick(now)
	}
	if op.ResizesAborted != 1 {
		t.Fatalf("ResizesAborted = %d, want 1", op.ResizesAborted)
	}
	for now := int64(5000); op.recovering != nil; now++ {
		op.Tick(now)
	}
	for _, p := range set.Pods {
		if p.Spec.Requests.CPUCores != 4 {
			t.Errorf("pod %s at %v cores, want rolled forward to 4", p.Name, p.Spec.Requests.CPUCores)
		}
	}
}

// TestSchedulingPressureDelaysRestart pins the cluster-side fault: with
// transient co-tenant pressure eating node headroom, a restarted pod can
// fail to place and re-enters the scheduling queue until the pressure
// window passes (or the attempt deadline retries it).
func TestSchedulingPressureDelaysRestart(t *testing.T) {
	// One-node cluster: 8 cores, one 4-core pod. Free = 4 cores; a
	// pressure of 6 cores blocks any placement.
	c, err := NewCluster(NewNode("n1", 8, 32))
	if err != nil {
		t.Fatal(err)
	}
	p := &Pod{Name: "solo", Phase: PhasePending, Spec: NewGuaranteedSpec(4, 8)}
	if err := c.Schedule(p); err != nil {
		t.Fatal(err)
	}
	c.Evict(p)
	p.Phase = PhaseRestarting

	c.SetPressure(6)
	if err := c.Schedule(p); err == nil {
		t.Fatal("schedule under 6-core pressure should fail")
	} else if !strings.Contains(err.Error(), "pressure 6c") {
		t.Errorf("error should mention pressure: %v", err)
	}
	c.SetPressure(0)
	if err := c.Schedule(p); err != nil {
		t.Fatalf("schedule after pressure cleared: %v", err)
	}
	if got := allocatedCores(c); got != 4 {
		t.Errorf("allocated = %v, want 4", got)
	}
}

// TestOperatorInPlaceMidwayFailureRollsBackEarlierPods is the satellite
// coverage for resizeInPlace's rollback arm: the scale-up fits for the
// first pods but not for a later one, so the earlier patches are undone
// and node request accounting returns to exactly the pre-resize state.
func TestOperatorInPlaceMidwayFailureRollsBackEarlierPods(t *testing.T) {
	// n1 takes all three pods (least-allocated always prefers it); its
	// free capacity (14 − 12 = 2) fits the first pod's +2 growth but not
	// the second's.
	c, err := NewCluster(NewNode("n1", 14, 96), NewNode("n2", 5, 32))
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewStatefulSet("db", 3, 4, 16, c)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range set.Pods {
		if p.NodeName != "n1" {
			t.Fatalf("pod %s on %s, test assumes all pods pack onto n1", p.Name, p.NodeName)
		}
	}
	op, err := NewOperator(set, c, 60)
	if err != nil {
		t.Fatal(err)
	}
	op.InPlace = true

	if err := op.RequestResize(6, 0); err == nil {
		t.Fatal("mid-way infeasible in-place resize should fail")
	}
	for _, p := range set.Pods {
		if p.CPULimit() != 4 {
			t.Errorf("pod %s limit = %v after rollback, want 4", p.Name, p.CPULimit())
		}
	}
	if got := allocatedCores(c); got != 12 {
		t.Errorf("allocated = %v, want pre-resize 12", got)
	}
	free := 0.0
	for _, n := range c.Nodes() {
		if n.Name == "n1" {
			free = n.Free().CPUCores
		}
	}
	if free != 2 {
		t.Errorf("n1 free = %v, want 2 — request accounting must balance", free)
	}
	if op.ResizeCount != 0 {
		t.Errorf("failed resize counted: %d", op.ResizeCount)
	}
}

// TestMetricsGapFaultDropsSamples pins the metrics-server fault hook: a
// p=1 metrics-gap spec silences every scrape, and the buckets the server
// later synthesizes are marked silent rather than measured.
func TestMetricsGapFaultDropsSamples(t *testing.T) {
	ms := NewMetricsServer(60)
	ms.Faults = faults.New(mustSpec(t, "metrics-gap:p=1"), 9)
	for s := int64(0); s < 300; s++ {
		ms.RecordUsage("db-0", s, 5)
	}
	if len(ms.UsageSeries("db-0")) != 0 {
		t.Errorf("series = %v, want empty under total sample loss", ms.UsageSeries("db-0"))
	}
	if _, ok := ms.LastSampleAt("db-0"); ok {
		t.Error("no sample should have been accepted")
	}
	if c := ms.Faults.Counts(); c.MetricsGaps != 300 {
		t.Errorf("MetricsGaps = %d, want 300", c.MetricsGaps)
	}
}

// TestFaultStreamDeterministicAcrossSeeds sanity-checks the operator-level
// chaos determinism contract in one process: two identical closed-loop
// runs with the same fault seed produce byte-identical event streams.
func TestFaultStreamDeterministicAcrossSeeds(t *testing.T) {
	run := func() []string {
		c := SmallCluster()
		set, _ := NewStatefulSet("db", 3, 4, 16, c)
		op, _ := NewOperator(set, c, 200)
		ms := NewMetricsServer(60)
		sc, err := NewScaler(baselines.NewControl(6), op, ms, 600, 2, 8)
		if err != nil {
			t.Fatal(err)
		}
		inj := faults.New(mustSpec(t, "restart-fail:p=0.4,restart-stuck:p=0.3:dur=120,metrics-gap:p=0.01"), 42)
		mem := obs.NewMemorySink()
		inj.Events = mem
		op.Events = mem
		sc.Events = mem
		op.Faults = inj
		ms.Faults = inj
		for now := int64(0); now < 4000; now++ {
			op.Tick(now)
			for _, p := range set.Pods {
				if p.Running() {
					ms.RecordUsage(p.Name, now, p.ConsumeCPU(3, 1))
				}
			}
			sc.Tick(now)
		}
		return eventLines(mem)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("line %d differs:\n%s\n%s", i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Fatal("chaos run emitted no events")
	}
}
