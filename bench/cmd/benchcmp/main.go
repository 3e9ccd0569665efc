// Command benchcmp compares two directories of caasper-bench run files —
// the parent commit's and a change's — and gives every (workload,
// end-to-end metric) a verdict: ok, regressed (worse than the metric's
// bound), unresolved (spread wider than the bound) or improved (at least
// 9 of 10 paired runs won, by more than the parent's spread). A change
// whose share of failed operations rises regresses too.
//
//	benchcmp OLD_DIR NEW_DIR
//
// It exits 1 when anything regressed.
package main

import (
	"fmt"
	"os"

	"caasper/bench"
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp OLD_DIR NEW_DIR")
		os.Exit(2)
	}
	old, err := bench.ReadRunFiles(os.Args[1])
	if err == nil {
		var cur []bench.RunFile
		cur, err = bench.ReadRunFiles(os.Args[2])
		if err == nil {
			regressed := compare(old, cur)
			if regressed {
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintln(os.Stderr, "benchcmp:", err)
	os.Exit(2)
}

func compare(old, cur []bench.RunFile) bool {
	regressed := false
	fmt.Printf("%-20s %-22s %12s %12s %12s | %12s %12s %12s %6s  %s\n",
		"workload", "metric", "old q1", "old median", "old q3", "new q1", "new median", "new q3", "wins", "verdict")
	for _, w := range bench.Workloads {
		o, n := runsOf(old, w), runsOf(cur, w)
		if len(o) == 0 || len(n) == 0 {
			continue
		}
		for _, m := range bench.EndToEnd {
			c := bench.Compare(m, values(o, m.Name), values(n, m.Name))
			fmt.Printf("%-20s %-22s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g %3d/%-2d  %s\n",
				w, m.Name, c.Old[0], c.Old[1], c.Old[2], c.New[0], c.New[1], c.New[2], c.Wins, c.Pairs, c.Verdict)
			regressed = regressed || c.Verdict == bench.VerdictRegressed
		}
		of, oa := failures(o)
		nf, na := failures(n)
		v := bench.FailureVerdict(of, oa, nf, na)
		fmt.Printf("%-20s %-22s %d/%d failed | %d/%d failed  %s\n", w, "failure_share", of, oa, nf, na, v)
		regressed = regressed || v == bench.VerdictRegressed
	}
	return regressed
}

// runsOf keeps a workload's valid untraced runs, in run order.
func runsOf(rfs []bench.RunFile, w string) []bench.RunFile {
	var out []bench.RunFile
	for _, rf := range rfs {
		if rf.Workload == w && rf.Valid && !rf.Traced {
			out = append(out, rf)
		}
	}
	return out
}

func values(rfs []bench.RunFile, metric string) []float64 {
	xs := make([]float64, len(rfs))
	for i, rf := range rfs {
		xs[i] = rf.Metrics[metric].Value
	}
	return xs
}

func failures(rfs []bench.RunFile) (failed, attempted int64) {
	for _, rf := range rfs {
		failed += rf.Failed
		attempted += rf.Attempted
		if !rf.Correct {
			failed++ // an incorrect run counts as one more failed operation
		}
	}
	return failed, attempted
}
