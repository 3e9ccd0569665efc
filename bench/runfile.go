package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// RunFile is one run as caasper-bench -out stores it: the result with the
// environment, seed and sizes it was measured under.
type RunFile struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Sizes     Sizes            `json:"sizes"`
	Env       Env              `json:"env"`
	Valid     bool             `json:"valid"`
	Invalid   string           `json:"invalid,omitempty"`
	Correct   bool             `json:"correct"`
	Problems  []string         `json:"problems,omitempty"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// NewRunFile wraps a result for storage.
func NewRunFile(o Options, env Env, res *Result) RunFile {
	return RunFile{
		Workload: o.Workload, Seed: o.Seed, Seconds: o.Seconds, Traced: o.Trace, Sizes: o.Sizes, Env: env,
		Valid: res.Invalid == "", Invalid: res.Invalid, Correct: res.Correct, Problems: res.Problems,
		Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics,
	}
}

// RunFileName names run k (from 1) of a workload; traced runs get their
// own name so a comparison never mixes them in.
func RunFileName(workload string, k int, traced bool) string {
	if traced {
		return fmt.Sprintf("%s.traced.json", workload)
	}
	return fmt.Sprintf("%s.run-%02d.json", workload, k)
}

// ReadRunFiles loads a directory's untraced run files in run order.
func ReadRunFiles(dir string) ([]RunFile, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.run-*.json"))
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("bench: no run files in %s", dir)
	}
	sort.Strings(names)
	var out []RunFile
	for _, n := range names {
		b, err := os.ReadFile(n)
		if err != nil {
			return nil, err
		}
		var rf RunFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", n, err)
		}
		out = append(out, rf)
	}
	return out, nil
}
