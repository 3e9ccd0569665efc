package k8s

import "testing"

func TestAddReplica(t *testing.T) {
	c := SmallCluster()
	set, err := NewStatefulSet("db", 2, 4, 16, c)
	if err != nil {
		t.Fatal(err)
	}
	p, err := set.AddReplica(c, 4, 500)
	if err != nil {
		t.Fatal(err)
	}
	if p.Ordinal != 2 || p.Name != "db-2" {
		t.Errorf("new replica = %s (ordinal %d)", p.Name, p.Ordinal)
	}
	if p.Role != RoleSecondary {
		t.Errorf("role = %s, want secondary (the primary is fixed)", p.Role)
	}
	if p.Running() {
		t.Error("new replica must seed before serving (§3.1 size-of-data copy)")
	}
	if p.RestartingUntil != 500 {
		t.Errorf("seed deadline = %d", p.RestartingUntil)
	}
	if len(set.Pods) != 3 {
		t.Errorf("set size = %d", len(set.Pods))
	}
	// Capacity is reserved immediately even while seeding.
	if got := allocatedCores(c); got != 12 {
		t.Errorf("allocated = %v, want 12", got)
	}
	// Running set is unaffected until the seed completes.
	if got := len(set.RunningPods()); got != 2 {
		t.Errorf("running = %d", got)
	}
}

func TestAddReplicaClusterFull(t *testing.T) {
	c, _ := NewCluster(NewNode("n", 8, 32))
	set, err := NewStatefulSet("db", 1, 6, 8, c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.AddReplica(c, 6, 100); err == nil {
		t.Error("full cluster should reject the scale-out")
	}
	if len(set.Pods) != 1 {
		t.Errorf("failed scale-out must not grow the set: %d", len(set.Pods))
	}
}
