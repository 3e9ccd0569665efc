package tuning

import (
	"strings"
	"testing"

	"caasper/internal/obs"
)

func TestRandomSearchSkipReasonsAndEvents(t *testing.T) {
	tr := shortCyclicalTrace()
	space := DefaultSearchSpace()
	space.MinCores = [2]int{999, 999} // every combination invalid
	mem := obs.NewMemorySink()
	reg := obs.NewRegistry()
	_, report, err := RandomSearchReport(tr, SearchOptions{
		Samples: 8,
		Seed:    3,
		Space:   &space,
		Events:  mem,
		Metrics: reg,
	})
	if err == nil {
		t.Fatal("all-invalid search should error")
	}
	if report.Skipped != 8 {
		t.Fatalf("Skipped = %d, want 8", report.Skipped)
	}
	total := 0
	for _, n := range report.SkipReasons {
		total += n
	}
	if total != 8 {
		t.Errorf("SkipReasons sum = %d, want 8: %v", total, report.SkipReasons)
	}
	if len(mem.Events()) != 8 {
		t.Fatalf("skip events = %d, want 8", len(mem.Events()))
	}
	var buf []byte
	for i, e := range mem.Events() {
		if e.Type != "tuning.skip" {
			t.Fatalf("event %d type = %s", i, e.Type)
		}
		if e.T != int64(i) {
			t.Errorf("skip events out of sampling order: event %d has T=%d", i, e.T)
		}
		buf = e.AppendNDJSON(buf[:0])
		if !strings.Contains(string(buf), `"reason":`) {
			t.Errorf("skip event missing reason: %s", buf)
		}
	}
	if got := reg.Counter("tuning.skipped").Value(); got != 8 {
		t.Errorf("counter tuning.skipped = %d, want 8", got)
	}
}

func TestRandomSearchPoolStatsPopulated(t *testing.T) {
	tr := shortCyclicalTrace()
	_, report, err := RandomSearchReport(tr, SearchOptions{
		Samples:       6,
		Seed:          11,
		SeasonMinutes: 6 * 60,
		Workers:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.PoolTasks != 6 {
		t.Errorf("PoolTasks = %d, want 6", report.PoolTasks)
	}
	if report.PoolWorkers != 2 {
		t.Errorf("PoolWorkers = %d, want 2", report.PoolWorkers)
	}
	if report.PoolUtilization <= 0 || report.PoolUtilization > 1 {
		t.Errorf("PoolUtilization = %v, want in (0, 1]", report.PoolUtilization)
	}
	if report.EvalLatencyP50 <= 0 || report.EvalLatencyP99 < report.EvalLatencyP50 {
		t.Errorf("eval latency quantiles p50=%v p99=%v look wrong", report.EvalLatencyP50, report.EvalLatencyP99)
	}
	if !strings.Contains(report.PoolSummary(), "6 tasks on 2 workers") {
		t.Errorf("PoolSummary = %q", report.PoolSummary())
	}
}
