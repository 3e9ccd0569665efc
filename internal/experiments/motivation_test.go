package experiments

import (
	"strings"
	"testing"
)

func TestMotivationHorizontalShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("live-loop experiment")
	}
	res, err := MotivationHorizontal()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's §1/§3.1 argument, quantified: horizontal scaling
	// barely helps a write-heavy single-primary workload...
	if res.HorizontalThroughputGain > 1.25 {
		t.Errorf("horizontal gain = %v, should stay marginal (writes can't spread)",
			res.HorizontalThroughputGain)
	}
	// ...while vertical scaling recovers most of the lost throughput.
	if res.VerticalThroughputGain < 1.5 {
		t.Errorf("vertical gain = %v, want a large recovery", res.VerticalThroughputGain)
	}
	if res.VerticalThroughputGain <= res.HorizontalThroughputGain {
		t.Error("vertical must beat horizontal on a write-heavy workload")
	}
	// Horizontal still pays for its extra replicas.
	if res.Horizontal.BilledCorePeriods <= res.Fixed.BilledCorePeriods {
		t.Error("added replicas must show up on the bill")
	}
	// The vertical run relieves primary throttling dramatically.
	if res.Vertical.SumInsufficient > res.Horizontal.SumInsufficient/2 {
		t.Errorf("vertical insufficient %v vs horizontal %v",
			res.Vertical.SumInsufficient, res.Horizontal.SumInsufficient)
	}
	if !strings.Contains(res.Report, "horizontal") {
		t.Error("report missing")
	}
}
