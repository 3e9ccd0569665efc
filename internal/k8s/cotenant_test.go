package k8s

import "testing"

func TestAddCoTenants(t *testing.T) {
	c := SmallCluster() // 6 × 8 cores
	if err := AddCoTenants(c, 6, 2, 8); err != nil {
		t.Fatal(err)
	}
	if got := allocatedCores(c); got != 12 {
		t.Errorf("allocated = %v, want 12", got)
	}
	// With 2 cores reserved per node, a 7-core pod no longer fits
	// anywhere — the §6.2 "bounded to a max of 6 cores" situation.
	big := &Pod{Name: "big", Phase: PhasePending, Spec: NewGuaranteedSpec(7, 8)}
	if err := c.Schedule(big); err == nil {
		t.Error("7-core pod should not fit next to co-tenants")
	}
	six := &Pod{Name: "six", Phase: PhasePending, Spec: NewGuaranteedSpec(6, 8)}
	if err := c.Schedule(six); err != nil {
		t.Errorf("6-core pod should fit: %v", err)
	}
}

func TestAddCoTenantsOverflow(t *testing.T) {
	c, _ := NewCluster(NewNode("n", 4, 8))
	if err := AddCoTenants(c, 3, 2, 2); err == nil {
		t.Error("over-capacity co-tenants should fail")
	}
}
