package k8s

import (
	"strings"
	"testing"

	"caasper/internal/baselines"
	"caasper/internal/obs"
)

// eventLines encodes a memory sink's stream to NDJSON lines for assertions.
func eventLines(mem *obs.MemorySink) []string {
	lines := make([]string, 0, len(mem.Events()))
	var buf []byte
	for _, e := range mem.Events() {
		buf = e.AppendNDJSON(buf[:0])
		lines = append(lines, string(buf))
	}
	return lines
}

func countEvents(lines []string, typ string) int {
	needle := `"type":"` + typ + `"`
	n := 0
	for _, l := range lines {
		if strings.Contains(l, needle) {
			n++
		}
	}
	return n
}

// TestScalerSuppressedDecisionsDuringRollingUpdate pins the health-check
// path: decision ticks that land while a rolling update is in flight must
// be recorded as suppressed (event + counter) without double-issuing a
// resize or polluting DecisionSeries.
func TestScalerSuppressedDecisionsDuringRollingUpdate(t *testing.T) {
	c := SmallCluster()
	set, err := NewStatefulSet("db", 3, 4, 16, c)
	if err != nil {
		t.Fatal(err)
	}
	// 400 s per pod → a 3-pod rolling update spans 1200 s, straddling two
	// 600 s decision ticks that must both be suppressed.
	op, err := NewOperator(set, c, 400)
	if err != nil {
		t.Fatal(err)
	}
	ms := NewMetricsServer(60)
	rec := baselines.NewControl(8) // always wants 8 cores
	sc, err := NewScaler(rec, op, ms, 600, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	mem := obs.NewMemorySink()
	reg := obs.NewRegistry()
	op.Events, op.Stats = mem, reg
	sc.Events, sc.Stats = mem, reg

	for now := int64(0); now < 3600; now++ {
		op.Tick(now)
		for _, p := range set.Pods {
			used := p.ConsumeCPU(2, 1)
			ms.RecordUsage(p.Name, now, used)
		}
		sc.Tick(now)
	}

	// Exactly one resize: requested at the first decision tick (t=600),
	// in flight across the t=1200 and t=1800 ticks.
	if sc.ScalingsRequested != 1 {
		t.Errorf("ScalingsRequested = %d, want 1", sc.ScalingsRequested)
	}
	if op.ResizeCount != 1 {
		t.Errorf("ResizeCount = %d, want 1 (suppressed ticks must not stack resizes)", op.ResizeCount)
	}
	if sc.DecisionsSuppressed != 2 {
		t.Errorf("DecisionsSuppressed = %d, want 2", sc.DecisionsSuppressed)
	}
	if got := reg.Counter("k8s.decisions_suppressed").Value(); got != 2 {
		t.Errorf("counter k8s.decisions_suppressed = %d, want 2", got)
	}

	lines := eventLines(mem)
	if got := countEvents(lines, "k8s.decision-suppressed"); got != 2 {
		t.Errorf("decision-suppressed events = %d, want 2", got)
	}
	if got := countEvents(lines, "k8s.resize-requested"); got != 1 {
		t.Errorf("resize-requested events = %d, want 1", got)
	}
	// The suppression path returns before RequestResize, so the operator
	// never rejects a stacked request.
	if got := countEvents(lines, "k8s.resize-rejected"); got != 0 {
		t.Errorf("resize-rejected events = %d, want 0", got)
	}

	// Suppressed ticks carry the full audit payload but stay out of
	// DecisionSeries: decisions + suppressed == all ticks taken.
	decisions := countEvents(lines, "k8s.decision")
	if decisions != len(sc.DecisionSeries) {
		t.Errorf("decision events = %d, DecisionSeries len = %d; must match", decisions, len(sc.DecisionSeries))
	}
	for _, l := range lines {
		if !strings.Contains(l, `"type":"k8s.decision-suppressed"`) {
			continue
		}
		// "current" is omitted: the set's limit shifts mid-update as pods
		// restart with the new spec.
		for _, want := range []string{`"target":8`, `"updating_to":8`, `"reason":"rolling update in flight"`} {
			if !strings.Contains(l, want) {
				t.Errorf("suppressed event %s missing %s", l, want)
			}
		}
	}
}

// TestScalerSuppressedWithoutSinkStillCounts checks the disabled-telemetry
// path: no sink, no registry — the counter field still advances and no
// resize is double-issued.
func TestScalerSuppressedWithoutSinkStillCounts(t *testing.T) {
	c := SmallCluster()
	set, _ := NewStatefulSet("db", 3, 4, 16, c)
	op, _ := NewOperator(set, c, 400)
	ms := NewMetricsServer(60)
	sc, err := NewScaler(baselines.NewControl(8), op, ms, 600, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	for now := int64(0); now < 3600; now++ {
		op.Tick(now)
		for _, p := range set.Pods {
			ms.RecordUsage(p.Name, now, p.ConsumeCPU(2, 1))
		}
		sc.Tick(now)
	}
	if sc.DecisionsSuppressed != 2 {
		t.Errorf("DecisionsSuppressed = %d, want 2", sc.DecisionsSuppressed)
	}
	if op.ResizeCount != 1 {
		t.Errorf("ResizeCount = %d, want 1", op.ResizeCount)
	}
}

// TestOperatorLifecycleEventStream pins the operator's event schema for
// one full rolling update: requested → started → per-pod phases →
// failover → completed span with the simulated duration.
func TestOperatorLifecycleEventStream(t *testing.T) {
	c := SmallCluster()
	set, _ := NewStatefulSet("db", 3, 4, 16, c)
	op, _ := NewOperator(set, c, 100)
	mem := obs.NewMemorySink()
	reg := obs.NewRegistry()
	op.Events, op.Stats = mem, reg

	if err := op.RequestResize(6, 50); err != nil {
		t.Fatal(err)
	}
	for now := int64(50); op.Updating(); now++ {
		op.Tick(now)
	}

	lines := eventLines(mem)
	for typ, want := range map[string]int{
		"k8s.resize-requested":   1,
		"k8s.resize-started":     1,
		"k8s.restart-disruption": 3,
		"k8s.failover":           1,
		"k8s.resize-completed":   1,
	} {
		if got := countEvents(lines, typ); got != want {
			t.Errorf("%s events = %d, want %d\n%s", typ, got, want, strings.Join(lines, "\n"))
		}
	}
	// The completed span is stamped at the request time and carries the
	// whole update's simulated duration.
	found := false
	for _, l := range lines {
		if strings.Contains(l, `"type":"k8s.resize-completed"`) {
			found = true
			if !strings.Contains(l, `"t":50,`) {
				t.Errorf("span event not stamped at start: %s", l)
			}
			if !strings.Contains(l, `"dur":`) || !strings.Contains(l, `"mode":"rolling"`) {
				t.Errorf("span event missing dur/mode: %s", l)
			}
		}
	}
	if !found {
		t.Fatal("no resize-completed event")
	}
	if got := reg.Counter("k8s.pod_restarts").Value(); got != 3 {
		t.Errorf("pod_restarts counter = %d, want 3", got)
	}
	if got := reg.Counter("k8s.failovers").Value(); got != 1 {
		t.Errorf("failovers counter = %d, want 1", got)
	}
	if got := reg.Counter("k8s.resizes_completed").Value(); got != 1 {
		t.Errorf("resizes_completed counter = %d, want 1", got)
	}
}
