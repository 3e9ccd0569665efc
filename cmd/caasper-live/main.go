// Command caasper-live runs the full end-to-end autoscaling loop of
// paper Figure 1 on the miniature Kubernetes substrate: a replicated
// database stateful set driven by a BenchBase-style transaction schedule,
// with a metrics server, a pluggable recommender, a scaler with safety
// checks, rolling-update resizes (secondaries first, primary last), and
// pay-as-you-go billing.
//
// Examples:
//
//	caasper-live -workload workday -database A -recommender caasper
//	caasper-live -workload cyclical -database B -recommender caasper-proactive
//	caasper-live -workload workday -recommender control -control-cores 6
//
// Chaos runs inject deterministic faults (same -fault-seed, same faults):
//
//	caasper-live -workload workday -recommender caasper \
//	    -faults "restart-stuck:p=0.3:dur=600,metrics-gap:p=0.01" -fault-seed 7
package main

import (
	"flag"
	"fmt"
	_ "net/http/pprof"
	"os"
	"time"

	"caasper"
	"caasper/internal/faults"
	"caasper/internal/obs"
)

func main() {
	var (
		workloadName = flag.String("workload", "workday", "live workload: workday (12h), cyclical (3d), customer (20h)")
		database     = flag.String("database", "A", "database preset: A (3 replicas, strict HA) or B (2 read-scale replicas)")
		recName      = flag.String("recommender", "caasper", "recommender: caasper, caasper-proactive, vpa, openshift, autopilot, control")
		initial      = flag.Int("initial", 0, "initial cores (default: workload preset)")
		maxCores     = flag.Int("max", 0, "max cores (default: workload preset)")
		controlAt    = flag.Int("control-cores", 0, "fixed allocation for -recommender control")
		seed         = flag.Uint64("seed", 1, "workload seed")
		faultSpec    = flag.String("faults", "", `fault-injection spec, e.g. "restart-fail:p=0.1,restart-stuck:p=0.05:dur=600,metrics-gap:p=0.02,sched-pressure:cores=4" (empty: fault-free)`)
		faultSeed    = flag.Uint64("fault-seed", 1, "fault-injection seed (same seed, same faults, byte-identical stream)")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	var cli obs.CLIConfig
	cli.Register(flag.CommandLine)
	flag.Parse()

	session, err := cli.Start()
	if err != nil {
		fatal(err)
	}
	defer session.Finish(os.Stdout)

	if _, err := obs.StartPprof(*pprofAddr, session.Log); err != nil {
		fatal(err)
	}

	// Graceful SIGINT/SIGTERM: flush the event sink and print the obs
	// summary before exiting, so an interrupted run still yields a valid
	// NDJSON stream and its metrics.
	session.FlushOnSignal(os.Stdout, "caasper-live")

	sched, defInitial, defMax, err := buildSchedule(*workloadName, *seed)
	if err != nil {
		fatal(err)
	}
	if *initial == 0 {
		*initial = defInitial
	}
	if *maxCores == 0 {
		*maxCores = defMax
	}
	if *controlAt == 0 {
		*controlAt = *maxCores
	}

	rec, err := buildRecommender(*recName, *maxCores, *controlAt)
	if err != nil {
		fatal(err)
	}

	var opts caasper.LiveOptions
	switch *database {
	case "A", "a":
		opts = caasper.DatabaseA(*initial, *maxCores)
	case "B", "b":
		opts = caasper.DatabaseB(*initial, *maxCores)
	default:
		fatal(fmt.Errorf("unknown database preset %q", *database))
	}

	if opts.Resources.Max.CPUCores > 8 {
		opts.Cluster = caasper.LargeCluster()
	}
	opts.Events = session.Events
	opts.Metrics = session.Metrics

	spec, err := caasper.ParseFaultSpec(*faultSpec)
	if err != nil {
		fatal(err)
	}
	opts.FaultSpec = spec
	opts.FaultSeed = *faultSeed

	fmt.Printf("running %s on Database %s with %s (%d replicas, %d..%d cores)...\n",
		sched.Name, *database, rec.Name(), opts.Replicas, opts.Resources.Min.CPUCores, opts.Resources.Max.CPUCores)
	start := time.Now()
	res, err := caasper.RunLive(sched, rec, opts)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("\nsimulated %s of wall time in %v\n", sched.Duration, time.Since(start).Round(time.Millisecond))
	fmt.Printf("completed txns:     %.0f\n", res.DB.CompletedTxns)
	fmt.Printf("dropped txns:       %.0f\n", res.DB.DroppedTxns)
	fmt.Printf("retried txns:       %.0f\n", res.DB.RetriedTxns)
	fmt.Printf("interrupted txns:   %.0f (restarts/failovers)\n", res.DB.InterruptedTxns)
	fmt.Printf("avg / med / p99 latency: %.1f / %.1f / %.1f ms\n",
		res.DB.AvgLatencyMS, res.DB.MedLatencyMS, res.DB.P99LatencyMS)
	fmt.Printf("resizes:            %d (failovers %d, suppressed decisions %d)\n",
		res.NumScalings, res.Failovers, res.DecisionsSuppressed)
	fmt.Printf("sum slack:          %.1f core-minutes\n", res.SumSlack)
	fmt.Printf("sum insufficient:   %.1f core-minutes\n", res.SumInsufficient)
	fmt.Printf("billed core-hours:  %.0f\n", res.BilledCorePeriods)
	if !spec.Empty() {
		fmt.Printf("\n%s", faults.Summarize(spec, *faultSeed, res.FaultCounts))
		fmt.Printf("  restart retries:           %d\n", res.RestartRetries)
		fmt.Printf("  resizes aborted:           %d\n", res.ResizesAborted)
	}
}

func buildSchedule(name string, seed uint64) (*caasper.LoadSchedule, int, int, error) {
	switch name {
	case "workday":
		return caasper.WorkdaySchedule(seed), 6, 6, nil
	case "cyclical":
		tr := caasper.Workloads["cyclical3d"](seed)
		sched, err := caasper.ScheduleForCores("cyclical-live", caasper.MixedOLTP(),
			caasper.TracePattern(tr), 72*time.Hour)
		return sched, 14, 14, err
	case "customer":
		src := caasper.Workloads["customer"](seed)
		sw, err := caasper.Stitch(src, 30*time.Minute)
		if err != nil {
			return nil, 0, 0, err
		}
		return sw.Schedule(), 6, 6, nil
	default:
		return nil, 0, 0, fmt.Errorf("unknown live workload %q", name)
	}
}

func buildRecommender(name string, maxCores, controlAt int) (caasper.Recommender, error) {
	return caasper.NewRecommenderByName(name, caasper.RecommenderSettings{
		MaxCores:     maxCores,
		ControlCores: controlAt,
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "caasper-live:", err)
	os.Exit(1)
}
