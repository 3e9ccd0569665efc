// Quickstart: make one CaaSPER decision by hand, then run a full
// trace-driven simulation against an over-provisioned workload and watch
// the algorithm right-size it.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"caasper"
)

func main() {
	// --- One-shot decision ------------------------------------------------
	// A pod allocated 12 cores whose workload uses ~2.5: what would
	// CaaSPER do? (This is the paper's Figure 7b over-provisioning case.)
	usage := make([]float64, 60)
	for i := range usage {
		usage[i] = 2.5 + 0.3*float64(i%3)
	}
	cfg := caasper.DefaultConfig(16)
	d, err := caasper.Decide(cfg, 12, usage)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("one-shot decision:")
	fmt.Printf("  %d -> %d cores (%s)\n", d.Current.CPUCores, d.Target.CPUCores, d.Branch)
	fmt.Printf("  %s\n\n", d.Explanation)

	// --- Full simulation --------------------------------------------------
	// A 12-hour workday trace: light OLTP, a heavy 6-hour batch window,
	// light OLTP again. Start over-provisioned at 8 cores and let the
	// reactive recommender track the load.
	tr := caasper.Workloads["workday12h"](42)
	rec, err := caasper.NewReactive(caasper.DefaultConfig(8), 40)
	if err != nil {
		log.Fatal(err)
	}
	opts := caasper.DefaultSimOptions(8, 8)
	res, err := caasper.Simulate(tr, rec, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("simulated %s of %q:\n", time.Duration(res.Minutes)*time.Minute, res.TraceName)
	fmt.Printf("  scalings:          %d\n", res.NumScalings)
	for _, dec := range res.Decisions {
		fmt.Printf("    t=%4dm  %d -> %d cores\n", dec.Minute, dec.From, dec.To)
	}
	fmt.Printf("  avg slack:         %.2f cores\n", res.AvgSlack)
	fmt.Printf("  throttled minutes: %.1f%%\n", res.ThrottledPct*100)
	fmt.Printf("  throughput proxy:  %.1f%%\n", res.ThroughputProxy()*100)
	fmt.Printf("  billed core-hours: %.0f (fixed 8 cores would bill %d)\n",
		res.BilledCorePeriods, 8*12)
}
