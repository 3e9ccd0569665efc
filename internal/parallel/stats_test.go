package parallel

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestForEachStatsAccounting(t *testing.T) {
	st := NewStats()
	err := ForEachStats(context.Background(), 10, 4, st, func(i int) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Tasks() != 10 {
		t.Errorf("Tasks = %d, want 10", st.Tasks())
	}
	if st.Workers() != 4 {
		t.Errorf("Workers = %d, want 4", st.Workers())
	}
	// The first claim leaves 9 tasks pending; the recorded max can only
	// be lower if claims race, never higher.
	if q := st.MaxQueueDepth(); q < 1 || q > 9 {
		t.Errorf("MaxQueueDepth = %d, want in [1, 9]", q)
	}
	if st.Latency().Count() != 10 {
		t.Errorf("latency samples = %d, want 10", st.Latency().Count())
	}
	if b := st.busy.Load(); b < 10*int64(time.Millisecond) {
		t.Errorf("busy = %d ns, want ≥ 10ms of summed sleeps", b)
	}
	if st.elapsed.Load() <= 0 {
		t.Error("elapsed time not recorded")
	}
	if u := st.Utilization(); u <= 0 || u > 1 {
		t.Errorf("Utilization = %v, want in (0, 1]", u)
	}
}

func TestForEachStatsSequentialPath(t *testing.T) {
	st := NewStats()
	if err := ForEachStats(context.Background(), 5, 1, st, func(i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if st.Tasks() != 5 || st.Workers() != 1 {
		t.Errorf("tasks/workers = %d/%d, want 5/1", st.Tasks(), st.Workers())
	}
	if st.MaxQueueDepth() != 4 {
		t.Errorf("MaxQueueDepth = %d, want 4 (sequential claims are ordered)", st.MaxQueueDepth())
	}
}

func TestForEachStatsNilStatsDelegates(t *testing.T) {
	ran := 0
	if err := ForEachStats(context.Background(), 3, 1, nil, func(i int) error { ran++; return nil }); err != nil {
		t.Fatal(err)
	}
	if ran != 3 {
		t.Errorf("ran = %d, want 3", ran)
	}
}

func TestForEachStatsPreservesErrorContract(t *testing.T) {
	st := NewStats()
	sentinel := errors.New("boom")
	err := ForEachStats(context.Background(), 8, 4, st, func(i int) error {
		if i == 2 || i == 6 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	// Failing tasks still count: the pool ran all of them.
	if st.Tasks() != 8 {
		t.Errorf("Tasks = %d, want 8", st.Tasks())
	}
}

func TestForEachStatsAccumulatesAcrossRuns(t *testing.T) {
	st := NewStats()
	for r := 0; r < 3; r++ {
		if err := ForEachStats(context.Background(), 4, 2, st, func(i int) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if st.Tasks() != 12 {
		t.Errorf("Tasks = %d, want 12 accumulated", st.Tasks())
	}
}
