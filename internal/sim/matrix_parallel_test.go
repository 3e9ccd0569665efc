package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"caasper/internal/trace"
	"caasper/internal/workload"
)

// Matrix cells are evaluated across a worker pool but written by index, so
// Cells ordering, every per-cell Result and the rendered Summary must be
// identical for every worker count.
func TestRunMatrixDeterministicAcrossWorkerCounts(t *testing.T) {
	traces := []*trace.Trace{
		workload.Workday12h(1),
		workload.StepTrace62h(1),
	}
	factories := testFactories()
	run := func(workers int) *Matrix {
		t.Helper()
		m, err := RunMatrix(traces, factories, Options{
			DecisionEveryMinutes: 10,
			ResizeDelayMinutes:   10,
			BillingPeriod:        time.Hour,
			Workers:              workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return m
	}

	want := run(1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got := run(workers)
		if got.Summary() != want.Summary() {
			t.Errorf("workers=%d: summary differs from sequential run:\n%s\nvs\n%s",
				workers, got.Summary(), want.Summary())
		}
		for i := range want.Cells {
			if got.Cells[i].TraceName != want.Cells[i].TraceName ||
				got.Cells[i].RecommenderName != want.Cells[i].RecommenderName {
				t.Fatalf("workers=%d: cell %d is %s/%s, want %s/%s", workers, i,
					got.Cells[i].TraceName, got.Cells[i].RecommenderName,
					want.Cells[i].TraceName, want.Cells[i].RecommenderName)
			}
			if !reflect.DeepEqual(got.Cells[i].Result, want.Cells[i].Result) {
				t.Errorf("workers=%d: cell %d result differs", workers, i)
			}
		}
	}
}

func BenchmarkRunMatrixParallel(b *testing.B) {
	traces := []*trace.Trace{
		workload.Workday12h(1),
		workload.StepTrace62h(1),
	}
	factories := testFactories()
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunMatrix(traces, factories, Options{
					DecisionEveryMinutes: 10,
					ResizeDelayMinutes:   10,
					BillingPeriod:        time.Hour,
					Workers:              workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
