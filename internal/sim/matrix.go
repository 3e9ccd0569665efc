package sim

import (
	"context"
	"fmt"
	"strings"

	"caasper/internal/errs"
	"caasper/internal/obs"
	"caasper/internal/parallel"
	"caasper/internal/recommend"
	"caasper/internal/trace"
)

// RecommenderFactory builds a fresh recommender per run. Matrix runs need
// factories rather than instances because recommenders are stateful and a
// single instance must not leak history across cells. New must be safe to
// call from concurrent goroutines (RunMatrix evaluates cells across a
// worker pool): construct everything inside the closure instead of
// capturing shared mutable state.
type RecommenderFactory struct {
	// Name labels the column in reports.
	Name string
	// New builds a fresh instance.
	New func() (recommend.Recommender, error)
}

// MatrixCell is one (trace, recommender) outcome.
type MatrixCell struct {
	TraceName       string
	RecommenderName string
	Result          *Result
}

// Matrix is the cross product of traces and recommender factories — the
// harness behind "evaluate our system's performance against standard
// workload traces" (§5 objective 2): every policy sees every trace under
// identical simulator settings.
type Matrix struct {
	Cells []MatrixCell
}

// RunMatrix simulates every trace × factory combination across a bounded
// worker pool (opts.Workers; below 1 selects runtime.GOMAXPROCS(0)). opts
// applies to every cell except the initial and maximum cores, which are
// derived per trace when opts.Resources.Max.CPUCores is zero (traces of
// very different magnitudes need different ladders).
//
// Each cell is an independent task writing its result into an
// index-addressed slot, so Cells keeps the historical ordering — traces in
// input order, factories in input order within each trace — and the whole
// matrix is deterministic for every worker count. On failure the error
// reported is the one from the earliest cell in that ordering.
func RunMatrix(traces []*trace.Trace, factories []RecommenderFactory, opts Options) (*Matrix, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("sim: no traces: %w", errs.ErrEmptyTrace)
	}
	if len(factories) == 0 {
		return nil, fmt.Errorf("sim: no recommender factories: %w", errs.ErrInvalidConfig)
	}
	// Derive per-trace options sequentially (a cheap peak scan) so the
	// worker tasks are pure cell evaluations.
	perTrace := make([]Options, len(traces))
	for i, tr := range traces {
		cellOpts := opts
		if cpu := &cellOpts.Resources; cpu.Max.CPUCores == 0 {
			peak := tr.Peak()
			cpu.Max.CPUCores = int(peak*1.5) + 2
			cpu.Initial.CPUCores = int(peak) + 1
			if cpu.Min.CPUCores == 0 {
				cpu.Min.CPUCores = 2
			}
			if cpu.Initial.CPUCores > cpu.Max.CPUCores {
				cpu.Initial.CPUCores = cpu.Max.CPUCores
			}
		}
		perTrace[i] = cellOpts
	}

	// Event determinism across worker counts: concurrent cells must not
	// interleave on a shared sink, so each cell captures its stream into
	// its own memory sink and the streams are replayed into the caller's
	// sink sequentially, in cell order, after the pool drains. Each cell's
	// replay is preceded by a "sim.run" header identifying it. Each cell's
	// memory sink replaces the caller's in that cell's options.
	shared := opts.Events
	emitShared := obs.Enabled(shared)
	var cellSinks []*obs.MemorySink
	if emitShared {
		cellSinks = make([]*obs.MemorySink, len(traces)*len(factories))
	}

	m := &Matrix{Cells: make([]MatrixCell, len(traces)*len(factories))}
	err := parallel.ForEach(context.Background(), len(m.Cells), opts.Workers, func(idx int) error {
		ti, fi := idx/len(factories), idx%len(factories)
		tr, f := traces[ti], factories[fi]
		rec, err := f.New()
		if err != nil {
			return fmt.Errorf("sim: building %s: %w", f.Name, err)
		}
		cellOpts := perTrace[ti]
		if emitShared {
			cellSinks[idx] = obs.NewMemorySink()
			cellOpts.Events = cellSinks[idx]
		}
		res, err := Run(tr, rec, cellOpts)
		if err != nil {
			return fmt.Errorf("sim: %s on %s: %w", f.Name, tr.Name, err)
		}
		m.Cells[idx] = MatrixCell{
			TraceName:       tr.Name,
			RecommenderName: f.Name,
			Result:          res,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if emitShared {
		for idx, mem := range cellSinks {
			c := m.Cells[idx]
			shared.Emit(obs.Event{T: 0, Type: "sim.run", Fields: []obs.Field{
				obs.S("trace", c.TraceName),
				obs.S("recommender", c.RecommenderName),
				obs.I("cell", int64(idx)),
			}})
			mem.ReplayTo(shared)
		}
	}
	return m, nil
}

// Summary renders a compact comparison table: one row per cell with the
// K/C/N metrics, throughput proxy and cost.
func (m *Matrix) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-20s %10s %10s %6s %10s %8s\n",
		"trace", "recommender", "K", "C", "N", "thrpt", "cost")
	for _, c := range m.Cells {
		r := c.Result
		fmt.Fprintf(&b, "%-14s %-20s %10.0f %10.1f %6d %9.1f%% %8.0f\n",
			c.TraceName, c.RecommenderName, r.SumSlack, r.SumInsufficient,
			r.NumScalings, r.ThroughputProxy()*100, r.BilledCorePeriods)
	}
	return b.String()
}
