// Package bench is the repository benchmark. It drives the public caasper
// API from outside — fleet replays, the serve ingest path and a
// snapshot restart — over inputs generated from a seed, checks that every
// output is correct, and reports end-to-end metrics from an untraced run
// and per-layer metrics from a traced one. BENCHMARK.json at the repository
// root mirrors the catalogue below; a unit test keeps the two in step.
package bench

// Metric describes one reported number. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts as
// a regression; per-layer metrics carry none.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Workload names, in the order -workloads all runs them.
const (
	FleetMonthPlateau = "fleet-month-plateau"
	FleetWeekMixed    = "fleet-week-mixed"
	ServeIngest       = "serve-ingest"
	ServeRestart      = "serve-restart"
)

// Workloads lists every workload.
var Workloads = []string{FleetMonthPlateau, FleetWeekMixed, ServeIngest, ServeRestart}

// RunSeconds is the default measured window of one run.
const RunSeconds = 20

// EndToEnd is what a user of the system sees, reported by every workload
// from the untraced run. Each metric is defined per workload in README.md:
// "tenant-minutes" are replayed minutes for the fleets and ingested
// samples (one sample is one tenant-minute) for the server, and
// latency_p50_ms is the median time from submitting a unit of work until
// its result can be read.
//
// Each bound is set from the spread (interquartile range over median) of
// ten runs with ten seeds, measured in three stretches an hour or more
// apart (README.md, "Numbers"): a metric's spread must stay below its
// bound. The heap's stayed at or below 0.026, hence 0.1. The times and
// rates reached 0.18 (0.24 for serve-ingest's latency) when other tenants
// of the host slowed it by half, so they keep 0.25, the most
// BENCHMARK.json allows; a longer run would not help, since that spread is
// drift between runs, not noise within one. setup_s, a median of set-ups
// of a few milliseconds, spreads the most (up to 0.23) and has the
// largest bound.
var EndToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "tenant_minutes_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "heap_peak_mb", Unit: "MB", Better: "lower", Bound: 0.1},
}

// PerLayer is reported by the traced run. A layer a workload does not
// exercise reports 0; README.md maps each metric to the end-to-end metric
// and workload it should move.
var PerLayer = []Metric{
	{Name: "recommend.observe_calls", Unit: "count", Better: "lower"},
	{Name: "recommend.observe_run_calls", Unit: "count", Better: "lower"},
	{Name: "recommend.observe_run_minutes", Unit: "count", Better: "higher"},
	{Name: "recommend.bulk_minute_frac", Unit: "ratio", Better: "higher"},
	{Name: "recommend.observe_s", Unit: "s", Better: "lower"},
	{Name: "recommend.steady_checks", Unit: "count", Better: "lower"},
	{Name: "recommend.steady_true_frac", Unit: "ratio", Better: "higher"},
	{Name: "recommend.steady_s", Unit: "s", Better: "lower"},
	{Name: "recommend.decide_calls", Unit: "count", Better: "lower"},
	{Name: "recommend.decide_s", Unit: "s", Better: "lower"},
	{Name: "recommend.decide_us_p50", Unit: "us", Better: "lower"},
	{Name: "recommend.decide_us_p99", Unit: "us", Better: "lower"},
	{Name: "recommend.change_frac", Unit: "ratio", Better: "higher"},
	{Name: "obs.events", Unit: "count", Better: "lower"},
	{Name: "obs.ndjson_bytes", Unit: "bytes", Better: "lower"},
	{Name: "obs.emit_s", Unit: "s", Better: "lower"},
	{Name: "fleet.wall_s", Unit: "s", Better: "lower"},
	{Name: "fleet.engine_self_s", Unit: "s", Better: "lower"},
	{Name: "fleet.scalings", Unit: "count", Better: "lower"},
	{Name: "fleet.deferrals", Unit: "count", Better: "lower"},
	{Name: "fleet.arbitration_ticks", Unit: "count", Better: "lower"},
	{Name: "serve.post_handler_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.post_handler_us_p99", Unit: "us", Better: "lower"},
	{Name: "serve.net_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.get_handler_us_p99", Unit: "us", Better: "lower"},
	{Name: "serve.decision_latency_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.decision_latency_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "serve.polls_per_visible", Unit: "ratio", Better: "lower"},
	{Name: "serve.batches_accepted", Unit: "count", Better: "higher"},
	{Name: "serve.rejected_429", Unit: "count", Better: "lower"},
	{Name: "serve.samples_applied", Unit: "count", Better: "higher"},
	{Name: "serve.backlog_batches_max", Unit: "count", Better: "lower"},
	{Name: "serve.close_snapshot_s", Unit: "s", Better: "lower"},
	{Name: "serve.snapshot_mb", Unit: "MB", Better: "lower"},
	{Name: "serve.restore_s", Unit: "s", Better: "lower"},
	{Name: "serve.first_decision_ms", Unit: "ms", Better: "lower"},
	{Name: "post_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "post_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "decision_visible_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "decision_visible_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "max_sustained_samples_per_s", Unit: "1/s", Better: "higher"},
	{Name: "restart_s", Unit: "s", Better: "lower"},
	{Name: "runtime.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.mallocs", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.lateness_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "loadgen.lateness_ms_max", Unit: "ms", Better: "lower"},
	{Name: "bench.latency_samples", Unit: "count", Better: "higher"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.slowdown", Unit: "ratio", Better: "lower"},
}
