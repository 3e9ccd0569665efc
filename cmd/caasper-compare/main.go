// Command caasper-compare runs a matrix of recommenders over a set of
// workload traces under identical simulator settings and prints the
// K/C/N / throughput / cost comparison — the quickest way to see where
// each policy wins.
//
// Examples:
//
//	caasper-compare -workloads step62h,cyclical3d
//	caasper-compare -workloads workday12h -recommenders caasper,vpa,autopilot
//	caasper-compare -alibaba c_1,c_29247 -recommenders caasper,caasper-proactive
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"caasper"
	"caasper/internal/obs"
	"caasper/internal/recommend"
	"caasper/internal/sim"
	"caasper/internal/trace"
	"caasper/internal/workload"
)

func main() {
	var (
		workloads    = flag.String("workloads", "workday12h", "comma-separated synthetic workload names")
		alibaba      = flag.String("alibaba", "", "comma-separated alibaba trace ids")
		recommenders = flag.String("recommenders", "control,caasper,caasper-proactive,vpa,openshift,autopilot", "comma-separated policies")
		seed         = flag.Uint64("seed", 1, "workload seed")
		season       = flag.Int("season", 1440, "seasonal period for the proactive policy (minutes)")
		workers      = flag.Int("workers", 0, "worker goroutines for matrix cells (default: GOMAXPROCS; the table is identical for any value)")
	)
	var cli obs.CLIConfig
	cli.Register(flag.CommandLine)
	flag.Parse()

	session, err := cli.Start()
	if err != nil {
		fatal(err)
	}
	defer session.Finish(os.Stdout)
	session.FlushOnSignal(os.Stdout, "caasper-compare")

	traces, err := collectTraces(*workloads, *alibaba, *seed)
	if err != nil {
		fatal(err)
	}
	factories, err := collectFactories(*recommenders, traces, *season)
	if err != nil {
		fatal(err)
	}
	session.Log.Infof("matrix: %d traces x %d recommenders", len(traces), len(factories))

	opts := sim.Options{
		DecisionEveryMinutes: 10,
		ResizeDelayMinutes:   10,
		BillingPeriod:        time.Hour,
		Workers:              *workers,
	}
	opts.Events, opts.Metrics = session.Events, session.Metrics
	m, err := sim.RunMatrix(traces, factories, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Print(m.Summary())
}

func collectTraces(workloads, alibaba string, seed uint64) ([]*trace.Trace, error) {
	var out []*trace.Trace
	if alibaba != "" {
		for _, id := range splitList(alibaba) {
			tr, err := workload.AlibabaTrace(id, seed)
			if err != nil {
				return nil, err
			}
			out = append(out, tr)
		}
		return out, nil
	}
	for _, name := range splitList(workloads) {
		gen, ok := caasper.Workloads[name]
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		out = append(out, gen(seed))
	}
	return out, nil
}

func collectFactories(list string, traces []*trace.Trace, season int) ([]sim.RecommenderFactory, error) {
	// Size the shared ladder from the largest trace peak so every
	// policy competes on the same field.
	peak := 0.0
	for _, tr := range traces {
		if m := tr.Summarize().Max; m > peak {
			peak = m
		}
	}
	maxCores := int(peak*1.5) + 2
	controlCores := int(peak) + 1

	settings := caasper.RecommenderSettings{
		MaxCores:     maxCores,
		Season:       season,
		ControlCores: controlCores,
	}
	var out []sim.RecommenderFactory
	for _, name := range splitList(list) {
		name := name
		// Validate eagerly so an unknown name fails before any cell runs.
		if _, err := caasper.NewRecommenderByName(name, settings); err != nil {
			return nil, err
		}
		out = append(out, sim.RecommenderFactory{Name: name, New: func() (recommend.Recommender, error) {
			return caasper.NewRecommenderByName(name, settings)
		}})
	}
	return out, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "caasper-compare:", err)
	os.Exit(1)
}
