package k8s

import "testing"

func TestResizeInPlaceAdjustsAllocation(t *testing.T) {
	c, err := NewCluster(NewNode("n1", 8, 32))
	if err != nil {
		t.Fatal(err)
	}
	p := &Pod{Name: "a", Phase: PhasePending, Spec: NewGuaranteedSpec(2, 8)}
	if err := c.Schedule(p); err != nil {
		t.Fatal(err)
	}
	// Grow within capacity.
	if err := c.ResizeInPlace(p, NewGuaranteedSpec(6, 8)); err != nil {
		t.Fatal(err)
	}
	if got := allocatedCores(c); got != 6 {
		t.Errorf("allocated = %v, want 6", got)
	}
	if p.CPULimit() != 6 {
		t.Errorf("limit = %v", p.CPULimit())
	}
	// Grow beyond capacity: rejected (the real feature's Infeasible).
	if err := c.ResizeInPlace(p, NewGuaranteedSpec(9, 8)); err == nil {
		t.Error("over-capacity in-place resize should fail")
	}
	if p.CPULimit() != 6 {
		t.Error("failed resize must not change the spec")
	}
	// Shrink always fits.
	if err := c.ResizeInPlace(p, NewGuaranteedSpec(2, 8)); err != nil {
		t.Fatal(err)
	}
	if got := allocatedCores(c); got != 2 {
		t.Errorf("allocated after shrink = %v", got)
	}
	// Invalid spec rejected.
	if err := c.ResizeInPlace(p, ContainerSpec{}); err == nil {
		t.Error("invalid spec should fail")
	}
	// Unbound pod: spec updates locally.
	q := &Pod{Name: "q", Spec: NewGuaranteedSpec(1, 1)}
	if err := c.ResizeInPlace(q, NewGuaranteedSpec(3, 1)); err != nil {
		t.Fatal(err)
	}
	if q.CPULimit() != 3 {
		t.Error("unbound pod spec not updated")
	}
	// Pod bound to a vanished node: error.
	ghost := &Pod{Name: "g", NodeName: "gone", Spec: NewGuaranteedSpec(1, 1)}
	if err := c.ResizeInPlace(ghost, NewGuaranteedSpec(2, 1)); err == nil {
		t.Error("unknown node should fail")
	}
}

func TestOperatorInPlaceResizeIsInstantAndQuiet(t *testing.T) {
	c := SmallCluster()
	set, err := NewStatefulSet("db", 3, 2, 16, c)
	if err != nil {
		t.Fatal(err)
	}
	op, err := NewOperator(set, c, 300)
	if err != nil {
		t.Fatal(err)
	}
	op.InPlace = true

	var downs int
	op.OnPodDown = func(*Pod) { downs++ }

	if err := op.RequestResize(6, 1000); err != nil {
		t.Fatal(err)
	}
	// Instant: no update in flight, every pod already resized, no
	// restarts, no failovers (§6.2 footnote 10).
	if op.Updating() {
		t.Error("in-place resize should complete synchronously")
	}
	for _, p := range set.Pods {
		if p.CPULimit() != 6 || !p.Running() || p.Restarts != 0 {
			t.Errorf("pod %s: limit=%v phase=%s restarts=%d", p.Name, p.CPULimit(), p.Phase, p.Restarts)
		}
	}
	if downs != 0 || op.FailoverCount != 0 {
		t.Errorf("downs=%d failovers=%d, want 0", downs, op.FailoverCount)
	}
	if op.ResizeCount != 1 || op.EffectiveAt != 1000 {
		t.Errorf("ResizeCount=%d EffectiveAt=%d", op.ResizeCount, op.EffectiveAt)
	}
	if p := set.Primary(); p == nil || p.Ordinal != 0 {
		t.Error("primary must not move during in-place resize")
	}
}

func TestOperatorInPlaceInfeasibleRollsBack(t *testing.T) {
	// A 2-node cluster where each node fits one pod at 4 cores but not 8.
	c, err := NewCluster(NewNode("n1", 6, 32), NewNode("n2", 6, 32))
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewStatefulSet("db", 2, 4, 8, c)
	if err != nil {
		t.Fatal(err)
	}
	op, err := NewOperator(set, c, 60)
	if err != nil {
		t.Fatal(err)
	}
	op.InPlace = true
	if err := op.RequestResize(8, 0); err == nil {
		t.Fatal("infeasible in-place resize should fail")
	}
	// All pods rolled back to the original spec.
	for _, p := range set.Pods {
		if p.CPULimit() != 4 {
			t.Errorf("pod %s limit = %v after rollback, want 4", p.Name, p.CPULimit())
		}
	}
	if got := allocatedCores(c); got != 8 {
		t.Errorf("allocated = %v, want original 8", got)
	}
	if op.ResizeCount != 0 {
		t.Errorf("failed resize counted: %d", op.ResizeCount)
	}
}
