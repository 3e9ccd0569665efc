// Command caasper-experiments regenerates every table and figure of the
// paper's evaluation (see DESIGN.md §3 for the full index) and prints the
// reports, optionally to a file. Individual experiments are selectable:
//
//	caasper-experiments                       # run everything
//	caasper-experiments -run fig3,fig10       # a subset
//	caasper-experiments -samples 1000         # deeper tuning sweeps
//	caasper-experiments -out results.txt
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"caasper/internal/experiments"
	"caasper/internal/obs"
	"caasper/internal/parallel"
)

type runner struct {
	id  string
	doc string
	fn  func(seed uint64, samples, workers int) (string, error)
}

var runners = []runner{
	{"fig3", "recommender comparison on the 62h step workload (§3.3)", func(seed uint64, _, _ int) (string, error) {
		r, err := experiments.Figure3(seed)
		if err != nil {
			return "", err
		}
		return r.Report, nil
	}},
	{"fig4", "slope-driven scale-up example (§4.2)", func(seed uint64, _, _ int) (string, error) {
		r, err := experiments.Figure4(seed)
		if err != nil {
			return "", err
		}
		return r.Report, nil
	}},
	{"fig5", "PvP curves: throttled vs right-sized (§4.2)", func(seed uint64, _, _ int) (string, error) {
		r, err := experiments.Figure5(seed)
		if err != nil {
			return "", err
		}
		return r.Report, nil
	}},
	{"fig6", "scaling-factor function shape (§4.2)", func(uint64, int, int) (string, error) {
		return experiments.Figure6().Report, nil
	}},
	{"fig7", "typical vs flat PvP curves, walk-down (§4.2)", func(seed uint64, _, _ int) (string, error) {
		r, err := experiments.Figure7(seed)
		if err != nil {
			return "", err
		}
		return r.Report, nil
	}},
	{"fig9", "live 12h workday on Database A + Table 1 (§6.2)", func(seed uint64, _, _ int) (string, error) {
		r, err := experiments.Figure9Table1(seed)
		if err != nil {
			return "", err
		}
		return r.Report, nil
	}},
	{"fig10", "live 3-day cyclical on Database B + Table 1 (§6.2)", func(seed uint64, _, _ int) (string, error) {
		r, err := experiments.Figure10Table1(seed)
		if err != nil {
			return "", err
		}
		return r.Report, nil
	}},
	{"fig11", "recreated customer trace + Table 2 (§6.2)", func(seed uint64, _, _ int) (string, error) {
		r, err := experiments.Figure11Table2(seed)
		if err != nil {
			return "", err
		}
		return r.Report, nil
	}},
	{"fig12", "tuning scatter + Pareto frontier (§6.3)", func(seed uint64, samples, _ int) (string, error) {
		r, err := experiments.Figure12(seed, samples)
		if err != nil {
			return "", err
		}
		return r.Report, nil
	}},
	{"fig13", "alpha drill-down (§6.3)", func(seed uint64, samples, _ int) (string, error) {
		f12, err := experiments.Figure12(seed, samples)
		if err != nil {
			return "", err
		}
		r, err := experiments.Figure13(f12)
		if err != nil {
			return "", err
		}
		return r.Report, nil
	}},
	{"fig14", "Alibaba traces + Table 3 (§6.3)", func(seed uint64, samples, _ int) (string, error) {
		r, err := experiments.Figure14Table3(seed, samples)
		if err != nil {
			return "", err
		}
		return r.Report, nil
	}},
	{"correctness", "simulator-vs-live paired t-test (§5)", func(seed uint64, _, _ int) (string, error) {
		r, err := experiments.SimulatorCorrectness(seed)
		if err != nil {
			return "", err
		}
		return r.Report, nil
	}},
	{"table1-margins", "Table 1 metrics with ± error margins across replica runs (§6.2)", func(seed uint64, _, workers int) (string, error) {
		_, report, err := experiments.ReplicatedFigure9([]uint64{seed, seed + 1, seed + 2}, workers)
		return report, err
	}},
	{"motivation", "horizontal vs vertical scaling for single-primary DBs (§1/§3.1)", func(_ uint64, _, _ int) (string, error) {
		r, err := experiments.MotivationHorizontal()
		if err != nil {
			return "", err
		}
		return r.Report, nil
	}},
	{"ablation-inplace", "rolling-update vs in-place resize (§8 future work)", func(seed uint64, _, _ int) (string, error) {
		r, err := experiments.AblationInPlace(seed)
		if err != nil {
			return "", err
		}
		return r.Report, nil
	}},
	{"ablation-horizon", "proactive scale-ahead horizon sweep (§6.2)", func(seed uint64, _, workers int) (string, error) {
		r, err := experiments.AblationHorizon(seed, workers)
		if err != nil {
			return "", err
		}
		return r.Report, nil
	}},
	{"ablation-prefilter", "forecast-confidence prefilter (§4.3 future work)", func(seed uint64, _, _ int) (string, error) {
		r, err := experiments.AblationPrefilter(seed)
		if err != nil {
			return "", err
		}
		return r.Report, nil
	}},
}

func main() {
	var (
		run     = flag.String("run", "", "comma-separated experiment ids (default: all)")
		samples = flag.Int("samples", 200, "tuning-sweep sample count for fig12/fig13/fig14 (paper: 5000)")
		seed    = flag.Uint64("seed", 1, "experiment seed")
		out     = flag.String("out", "", "also write reports to this file")
		list    = flag.Bool("list", false, "list experiments and exit")
		workers = flag.Int("workers", 0, "worker goroutines for fan-out stages (default: GOMAXPROCS)")
	)
	var cli obs.CLIConfig
	cli.Register(flag.CommandLine)
	flag.Parse()

	session, err := cli.Start()
	if err != nil {
		fatal(err)
	}
	defer session.Finish(os.Stdout)
	session.FlushOnSignal(os.Stdout, "caasper-experiments")

	if *list {
		for _, r := range runners {
			fmt.Printf("%-12s %s\n", r.id, r.doc)
		}
		return
	}

	selected := map[string]bool{}
	if *run != "" {
		for _, id := range strings.Split(*run, ",") {
			selected[strings.TrimSpace(id)] = true
		}
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	var active []runner
	for _, r := range runners {
		if len(selected) == 0 || selected[r.id] {
			active = append(active, r)
		}
	}

	// Experiments run concurrently but their reports are buffered and
	// printed in the declaration order, so the output is byte-identical to
	// a sequential run for every -workers value. A failing experiment is
	// reported in place rather than aborting the batch, matching the old
	// sequential behaviour.
	type outcome struct {
		text string
		err  error
	}
	results, _ := parallel.Map(context.Background(), len(active), *workers, func(i int) (outcome, error) {
		t0 := time.Now()
		text, err := active[i].fn(*seed, *samples, *workers)
		session.Metrics.Histogram("experiments.latency").ObserveSince(t0)
		session.Log.Infof("%s done in %v", active[i].id, time.Since(t0).Round(time.Millisecond))
		return outcome{text: text, err: err}, nil
	})

	// The audit stream is emitted sequentially in declaration order, so
	// -events output is identical for every -workers value.
	failed := 0
	for i, r := range active {
		fmt.Fprintf(w, "================ %s — %s ================\n", r.id, r.doc)
		if obs.Enabled(session.Events) {
			session.Events.Emit(obs.Event{T: int64(i), Type: "experiment.done", Fields: []obs.Field{
				obs.S("id", r.id),
				obs.B("ok", results[i].err == nil),
			}})
		}
		if results[i].err != nil {
			fmt.Fprintf(w, "ERROR: %v\n\n", results[i].err)
			session.Metrics.Counter("experiments.failed").Inc()
			failed++
			continue
		}
		session.Metrics.Counter("experiments.succeeded").Inc()
		fmt.Fprintf(w, "%s\n", results[i].text)
	}
	if failed > 0 {
		session.Finish(os.Stdout)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "caasper-experiments:", err)
	os.Exit(1)
}
