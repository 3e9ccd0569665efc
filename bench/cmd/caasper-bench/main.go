// Command caasper-bench runs the repository benchmark.
//
// One run of one workload, printing its result as the last line of
// standard output (per-layer metrics with -trace 1):
//
//	caasper-bench -workload fleet-week-mixed -seed 3 -seconds 12 -trace 0
//
// Repeated runs of several workloads, each stored as a run file with its
// environment, followed by one traced run per workload:
//
//	caasper-bench -workloads all -seed 1 -runs 10 -out DIR
//
// Compare two such directories with benchcmp. See bench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"caasper/bench"
)

func main() {
	var (
		workload  = flag.String("workload", "", "run this one workload and print its result line")
		workloads = flag.String("workloads", "", `comma-separated workloads for -out mode, or "all"`)
		seed      = flag.Uint64("seed", 1, "workload input seed")
		seconds   = flag.Float64("seconds", bench.RunSeconds, "measured window per run")
		trace     = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		runs      = flag.Int("runs", 5, "-out mode: untraced runs per workload")
		out       = flag.String("out", "", "-out mode: directory for run files")
		tmp       = flag.String("tmp", ".bench_build/tmp", "scratch directory for snapshot files")
		traceDir  = flag.String("trace-dir", ".bench_build/traces", "where traced runs write their spans")
	)
	flag.Parse()
	base := bench.Options{Seed: *seed, Seconds: *seconds, Sizes: bench.Full, TmpDir: *tmp, Log: os.Stderr}
	var err error
	switch {
	case *out != "":
		err = runMany(base, *workloads, *runs, *out)
	case *workload != "":
		base.Workload, base.Trace = *workload, *trace == 1
		err = runOne(base, *traceDir)
	default:
		err = errors.New("need -workload NAME or -workloads LIST -out DIR")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "caasper-bench:", err)
		os.Exit(1)
	}
}

func runOne(o bench.Options, traceDir string) error {
	if o.Trace {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return err
		}
		// One file per workload, the latest run's: a serve workload's
		// request spans run to tens of megabytes.
		o.TraceFile = filepath.Join(traceDir, o.Workload+".spans.json")
	}
	res, err := bench.Run(o)
	if err != nil {
		return err
	}
	report(o, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// report explains a result on standard error.
func report(o bench.Options, res *bench.Result) {
	for _, p := range res.Problems {
		fmt.Fprintf(os.Stderr, "[%s seed=%d] INCORRECT: %s\n", o.Workload, o.Seed, p)
	}
	if res.Invalid != "" {
		fmt.Fprintf(os.Stderr, "[%s seed=%d] INVALID: %s\n", o.Workload, o.Seed, res.Invalid)
	}
}

func runMany(base bench.Options, list string, runs int, dir string) error {
	names := bench.Workloads
	if list != "" && list != "all" {
		names = strings.Split(list, ",")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	env := bench.Environment(".")
	write := func(o bench.Options, res *bench.Result, k int) error {
		b, err := json.MarshalIndent(bench.NewRunFile(o, env, res), "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, bench.RunFileName(o.Workload, k, o.Trace)), append(b, '\n'), 0o644)
	}
	for k := 1; k <= runs; k++ {
		for _, w := range names {
			o := base
			o.Workload = w
			res, err := bench.Run(o)
			if err != nil {
				return err
			}
			report(o, res)
			if err := write(o, res, k); err != nil {
				return err
			}
		}
	}
	for _, w := range names {
		o := base
		o.Workload, o.Trace = w, true
		o.TraceFile = filepath.Join(dir, w+".spans.json")
		res, err := bench.Run(o)
		if err != nil {
			return err
		}
		report(o, res)
		if err := write(o, res, 0); err != nil {
			return err
		}
	}
	return summarize(dir)
}

// summarize prints each workload's end-to-end medians and spreads.
func summarize(dir string) error {
	rfs, err := bench.ReadRunFiles(dir)
	if err != nil {
		return err
	}
	fmt.Printf("%-20s %-22s %14s %14s %14s %8s %5s\n", "workload", "metric", "q1", "median", "q3", "iqr/med", "runs")
	for _, w := range bench.Workloads {
		for _, m := range bench.EndToEnd {
			var xs []float64
			for _, rf := range rfs {
				if rf.Workload == w && rf.Valid {
					xs = append(xs, rf.Metrics[m.Name].Value)
				}
			}
			if len(xs) == 0 {
				continue
			}
			q1, q2, q3 := bench.Quartiles(xs)
			fmt.Printf("%-20s %-22s %14.6g %14.6g %14.6g %8.4f %5d\n", w, m.Name, q1, q2, q3, (q3-q1)/q2, len(xs))
		}
	}
	return nil
}
