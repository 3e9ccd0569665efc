package sim

import (
	"testing"
	"time"

	"caasper/internal/baselines"
	"caasper/internal/hooks"
	"caasper/internal/obs"
	"caasper/internal/trace"
)

// TestRunHooksEmbeddedSpelling proves the RunHooks spelling is live
// end-to-end: a sink set through the embedded struct receives the run's
// events.
func TestRunHooksEmbeddedSpelling(t *testing.T) {
	tr := trace.New("flat", time.Minute, make([]float64, 60))
	rec := baselines.NewControl(2)

	mem := obs.NewMemorySink()
	opts := DefaultOptions(2, 8)
	opts.RunHooks = hooks.RunHooks{Events: mem}
	if _, err := Run(tr, rec, opts); err != nil {
		t.Fatal(err)
	}
	if mem.Len() == 0 {
		t.Error("embedded RunHooks.Events received no events")
	}
}
