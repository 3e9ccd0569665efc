package experiments

import (
	"fmt"
	"strings"
	"time"

	"caasper/internal/baselines"
	"caasper/internal/core"
	"caasper/internal/dbsim"
	"caasper/internal/recommend"
	"caasper/internal/workload"
)

// MotivationHorizontalResult quantifies the paper's §1/§3.1 motivating
// argument: horizontal scaling "is not well suited for stateful
// monolithic systems ... that have a fixed number of total instances
// (e.g., single writable primary)". A write-heavy workload that
// out-demands its per-pod CPU is run three ways:
//
//   - Fixed: the undersized deployment as-is;
//   - Horizontal: an HPA-style scaler adds read replicas (each paying a
//     size-of-data-copy seed) but can never give the primary more CPU;
//   - Vertical: CaaSPER resizes the pods.
type MotivationHorizontalResult struct {
	Fixed, Horizontal, Vertical *dbsim.LiveResult
	// HorizontalThroughputGain and VerticalThroughputGain are relative
	// to the fixed run.
	HorizontalThroughputGain float64
	VerticalThroughputGain   float64
	Report                   string
}

// MotivationHorizontal runs the §1/§3.1 contrast: 6 hours of TPC-C
// (92% writes) demanding ~5 cores against 2-core pods. The workload is
// deterministic, so it takes no seed.
func MotivationHorizontal() (*MotivationHorizontalResult, error) {
	mix := workload.TPCCMix()
	sched, err := workload.ScheduleForCores("write-heavy", mix,
		workload.Constant(5), 6*time.Hour)
	if err != nil {
		return nil, err
	}

	const podCores = 2
	noRetry := func(o dbsim.HarnessOptions) dbsim.HarnessOptions {
		o.DB.Retry = false // drops make the throughput impact visible
		return o
	}

	fixedOpts := noRetry(dbsim.DatabaseAOptions(podCores, podCores))
	fixed, err := dbsim.RunLive(sched, baselines.NewControl(podCores), fixedOpts)
	if err != nil {
		return nil, fmt.Errorf("fixed: %w", err)
	}

	hOpts := dbsim.DefaultHorizontalOptions(podCores, 6)
	hOpts.Harness = noRetry(hOpts.Harness)
	// Give the horizontal path its best case: every read is offloaded
	// to the added replicas. The gain stays marginal anyway — TPC-C is
	// 92% writes, and writes can only run on the primary.
	hOpts.Harness.DB.SecondaryReadFraction = 1.0
	horizontal, err := dbsim.RunHorizontal(sched, hOpts)
	if err != nil {
		return nil, fmt.Errorf("horizontal: %w", err)
	}

	vCfg := core.DefaultConfig(8)
	vRec, err := recommend.NewCaaSPERReactive(vCfg, 40)
	if err != nil {
		return nil, err
	}
	vOpts := noRetry(dbsim.DatabaseAOptions(podCores, 8))
	vertical, err := dbsim.RunLive(sched, vRec, vOpts)
	if err != nil {
		return nil, fmt.Errorf("vertical: %w", err)
	}

	res := &MotivationHorizontalResult{Fixed: fixed, Horizontal: horizontal, Vertical: vertical}
	if fixed.DB.CompletedTxns > 0 {
		res.HorizontalThroughputGain = horizontal.DB.CompletedTxns / fixed.DB.CompletedTxns
		res.VerticalThroughputGain = vertical.DB.CompletedTxns / fixed.DB.CompletedTxns
	}

	tb := NewTable("Motivation (§1/§3.1) — horizontal vs vertical scaling for a write-heavy single-primary DB",
		"strategy", "completed txns", "thrpt vs fixed", "primary insufficient", "billed core-h")
	tb.AddRow("fixed (2-core pods)", fixed.DB.CompletedTxns, "1.00x",
		fixed.SumInsufficient, fixed.BilledCorePeriods)
	tb.AddRow("horizontal (HPA, +replicas)", horizontal.DB.CompletedTxns,
		ratio(res.HorizontalThroughputGain), horizontal.SumInsufficient, horizontal.BilledCorePeriods)
	tb.AddRow("vertical (caasper)", vertical.DB.CompletedTxns,
		ratio(res.VerticalThroughputGain), vertical.SumInsufficient, vertical.BilledCorePeriods)
	var b strings.Builder
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "paper: replicas \"cannot serve write-transaction load\" and need a size-of-data copy — only vertical scaling relieves the primary\n")
	res.Report = b.String()
	return res, nil
}
