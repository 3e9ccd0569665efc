// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (regenerating the artifact end to end and reporting its
// headline metrics), plus micro-benchmarks of the hot paths (PvP-curve
// construction, Algorithm 1 decisions, simulator stepping, forecasting).
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The per-figure benchmarks report custom metrics (slack reductions, cost
// ratios, throughput shares) so the paper-vs-measured comparison is
// visible straight from the bench output; EXPERIMENTS.md records one run.
package caasper_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"caasper"
	"caasper/internal/core"
	"caasper/internal/experiments"
	"caasper/internal/k8s"
)

// ---------------------------------------------------------------------------
// Per-figure/table benchmarks

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.VPASlackReduction*100, "vpa_slack_red_%")
		b.ReportMetric(res.CaaSPERSlackReduction*100, "caasper_slack_red_%")
		b.ReportMetric(res.OpenShiftThroughput*100, "openshift_thrpt_%")
		b.ReportMetric(res.CaaSPERThroughput*100, "caasper_thrpt_%")
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure4(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.TargetCores), "target_cores")
		b.ReportMetric(res.RawSF, "raw_sf")
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ThrottledSlope, "throttled_slope")
		b.ReportMetric(res.HealthySlope, "healthy_slope")
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Figure6()
		b.ReportMetric(res.Factors[len(res.Factors)-1], "sf_at_max_slope")
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure7(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.WalkDownDelta), "walkdown_delta")
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure9Table1(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CostRatio*100, "cost_vs_ctrl_%")
		b.ReportMetric(res.SlackReduction*100, "slack_red_%")
		b.ReportMetric(float64(res.Resizes), "resizes")
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure10Table1(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ReactiveCostRatio*100, "reactive_cost_%")
		b.ReportMetric(res.ProactiveCostRatio*100, "proactive_cost_%")
		b.ReportMetric(res.ReactiveSlackReduction*100, "reactive_slack_red_%")
		b.ReportMetric(res.ProactiveSlackReduction*100, "proactive_slack_red_%")
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure11Table2(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PerfCostRatio*100, "perf_cost_%")
		b.ReportMetric(res.SavingsCostRatio*100, "savings_cost_%")
		b.ReportMetric(res.PerfThroughputRatio*100, "perf_thrpt_%")
		b.ReportMetric(res.SavingsThroughputRatio*100, "savings_thrpt_%")
	}
}

func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure12(1, 60)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Frontier)), "pareto_points")
		b.ReportMetric(res.ProactiveMeanK, "proactive_mean_K")
		b.ReportMetric(res.ReactiveMeanK, "reactive_mean_K")
	}
}

func BenchmarkFigure13(b *testing.B) {
	fig12, err := experiments.Figure12(1, 60)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure13(fig12)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Chosen[0].K-res.Chosen[len(res.Chosen)-1].K, "K_range")
	}
}

func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure14Table3(1, 25)
		if err != nil {
			b.Fatal(err)
		}
		var maxThrottled float64
		for _, row := range res.Rows {
			if row.ThrottledPct > maxThrottled {
				maxThrottled = row.ThrottledPct
			}
		}
		b.ReportMetric(maxThrottled*100, "max_throttled_%")
		b.ReportMetric(float64(len(res.Rows)), "traces")
	}
}

func BenchmarkSimCorrectness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.SimulatorCorrectness(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TTest.P, "ttest_p")
	}
}

func BenchmarkMotivationHorizontal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.MotivationHorizontal()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.HorizontalThroughputGain, "horizontal_gain_x")
		b.ReportMetric(res.VerticalThroughputGain, "vertical_gain_x")
	}
}

// ---------------------------------------------------------------------------
// Ablation benchmarks (design-choice studies from DESIGN.md / paper §8)

func BenchmarkAblationInPlace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationInPlace(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rolling.DB.InterruptedTxns, "rolling_interrupted")
		b.ReportMetric(res.InPlace.DB.InterruptedTxns, "inplace_interrupted")
	}
}

func BenchmarkAblationHorizon(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationHorizon(1, 0)
		if err != nil {
			b.Fatal(err)
		}
		first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
		b.ReportMetric(first.SumInsufficient, "reactive_C")
		b.ReportMetric(last.SumInsufficient, "h120_C")
	}
}

func BenchmarkAblationPrefilter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationPrefilter(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Without.SumSlack, "nofilter_K")
		b.ReportMetric(res.With.SumSlack, "prefilter_K")
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the hot paths

func BenchmarkBuildCurve(b *testing.B) {
	usage := make([]float64, 40)
	for i := range usage {
		usage[i] = float64(i%13) + 0.5
	}
	r := caasper.SKURange{MinCores: 1, MaxCores: 32}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := caasper.BuildCurve(usage, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecide(b *testing.B) {
	cfg := caasper.DefaultConfig(32)
	usage := make([]float64, 40)
	for i := range usage {
		usage[i] = float64(i%13) + 0.5
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := caasper.Decide(cfg, 8, usage); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecideWindow40 measures one steady-state decide cycle in
// fleet-week-mixed's shape: a 40-minute reactive window on a 12-core
// ladder, fed a seeded noisy trace, recommending every 10 observations.
// One op is 10 Observe calls plus one Recommend; warmed up, it allocates
// nothing.
func BenchmarkDecideWindow40(b *testing.B) {
	vals := caasper.Workloads["customer"](7).Values
	rec, err := caasper.NewReactive(caasper.DefaultConfig(12), 40)
	if err != nil {
		b.Fatal(err)
	}
	m, cur := 0, 2
	cycle := func() {
		for end := m + 10; m < end; m++ {
			rec.Observe(m, vals[m%len(vals)])
		}
		cur = rec.Recommend(cur)
	}
	for i := 0; i < 8; i++ { // fill the window and warm the scratch
		cycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

func BenchmarkSimulateWorkday(b *testing.B) {
	tr := caasper.Workloads["workday12h"](1)
	opts := caasper.DefaultSimOptions(6, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := caasper.NewReactive(caasper.DefaultConfig(8), 40)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := caasper.Simulate(tr, rec, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds(), "sim_minutes/s")
}

// BenchmarkSimulateWorkdayEvents measures the same run with a live event
// sink attached, bounding the telemetry layer's enabled-path cost; compare
// against BenchmarkSimulateWorkday for the disabled-path (no-op sink) cost.
func BenchmarkSimulateWorkdayEvents(b *testing.B) {
	tr := caasper.Workloads["workday12h"](1)
	opts := caasper.DefaultSimOptions(6, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := caasper.NewReactive(caasper.DefaultConfig(8), 40)
		if err != nil {
			b.Fatal(err)
		}
		opts.Events = caasper.NewMemorySink()
		if _, err := caasper.Simulate(tr, rec, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSeasonalNaiveForecast(b *testing.B) {
	hist := make([]float64, 2*1440)
	for i := range hist {
		hist[i] = float64(i % 1440)
	}
	f := caasper.NewSeasonalNaive(1440)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Forecast(hist, 60); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHoltWintersForecast(b *testing.B) {
	hist := make([]float64, 6*288)
	for i := range hist {
		hist[i] = 3 + float64(i%288)/100
	}
	f := caasper.NewHoltWinters(0.3, 0.1, 0.2, 288)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Forecast(hist, 60); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunLiveHour(b *testing.B) {
	demand := caasper.NewTrace("bench", caasper.Workloads["workday12h"](1).Interval,
		caasper.Workloads["workday12h"](1).Values[:60])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched, err := caasper.ScheduleForCores("bench-live", caasper.MixedOLTP(),
			caasper.TracePattern(demand), demand.Duration())
		if err != nil {
			b.Fatal(err)
		}
		rec, err := caasper.NewReactive(caasper.DefaultConfig(6), 40)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := caasper.RunLive(sched, rec, caasper.DatabaseA(4, 6)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlibabaTraceSynthesis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := caasper.AlibabaTrace("c_29247", uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecommenderMonthTrace drives the reactive recommender's
// observe/decide loop over a full simulated month (43 200 minutes, one
// decision every 10) with no simulator around it — the recommender-only
// cost of a fleet-month replay. With the ring-buffer window and the
// sort-free decision path this loop is allocation-free at steady state
// (see TestMonthReplaySteadyStateAllocs); allocs/op counts only the
// per-op recommender construction.
func BenchmarkRecommenderMonthTrace(b *testing.B) {
	day := caasper.Workloads["workday12h"](1)
	vals := day.Values
	const monthMinutes = 43200
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := caasper.NewReactive(caasper.DefaultConfig(16), 40)
		if err != nil {
			b.Fatal(err)
		}
		cur := 6
		for m := 0; m < monthMinutes; m++ {
			rec.Observe(m, vals[m%len(vals)])
			if m%10 == 9 {
				cur = rec.Recommend(cur)
			}
		}
	}
	b.ReportMetric(float64(43200*b.N)/b.Elapsed().Seconds(), "obs_minutes/s")
}

// benchFleetSpecs builds an n-tenant fleet over minutes-long demand traces
// (eight workday-derived variants, shared read-only across tenants) plus a
// cluster sized to host one 1-core pod per tenant with scale-up head-room.
// The cluster is built per call: a fleet run binds pods to it.
func benchFleetSpecs(b *testing.B, n, minutes int) ([]caasper.TenantSpec, caasper.FleetOptions) {
	b.Helper()
	const variants = 8
	traces := make([]*caasper.Trace, variants)
	for v := range traces {
		day := caasper.Workloads["workday12h"](uint64(v + 1))
		vals := make([]float64, minutes)
		for i := range vals {
			vals[i] = day.Values[i%len(day.Values)]
		}
		traces[v] = caasper.NewTrace(fmt.Sprintf("wk-%d", v), time.Minute, vals)
	}
	specs := make([]caasper.TenantSpec, n)
	for i := range specs {
		specs[i] = caasper.TenantSpec{
			Name:  fmt.Sprintf("t%04d", i),
			Trace: traces[i%variants],
			NewRecommender: func() (caasper.Recommender, error) {
				return caasper.NewReactive(caasper.DefaultConfig(4), 40)
			},
			Resources:    core.CPURange(1, 1, 4),
			Replicas:     1,
			MemGiBPerPod: 1,
		}
	}
	nodes := make([]*k8s.Node, 32)
	for i := range nodes {
		nodes[i] = k8s.NewNode(fmt.Sprintf("bench-node-%02d", i), 64, 256)
	}
	cluster, err := k8s.NewCluster(nodes...)
	if err != nil {
		b.Fatal(err)
	}
	opts := caasper.DefaultFleetOptions()
	opts.Cluster = cluster
	opts.Minutes = minutes
	return specs, opts
}

// benchFleet runs the shared fleet benchmark body, reporting
// tenant_minutes/s.
func benchFleet(b *testing.B, tenants, minutes int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		specs, opts := benchFleetSpecs(b, tenants, minutes)
		if _, err := caasper.RunFleet(specs, opts); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(tenants*minutes*(i+1))/b.Elapsed().Seconds(), "tenant_minutes/s")
	}
}

// BenchmarkFleetTick measures the fleet controller's steady tick cost at
// 1000 tenants: one op replays a 1-hour horizon (60 000 tenant-minutes),
// exercising catch-up, decide and the sequential arbitration phase. The
// workday traces are noisy (minute-length constant runs), so this bounds
// the tick loop's overhead on its worst-case input rather than showing
// its best case — see BenchmarkFleetMonth100k for that.
func BenchmarkFleetTick(b *testing.B) {
	benchFleet(b, 1000, 60)
}

// BenchmarkFleetWeek1k is a headline scale demonstration: 1000 tenants
// replayed over one full week (10.08 M tenant-minutes per op). heap_sys_MB
// reports the Go heap footprint after the run — with O(window) recommender
// state it stays bounded by the traces and per-tenant fixtures, not the
// replay length.
func BenchmarkFleetWeek1k(b *testing.B) {
	benchFleet(b, 1000, 7*24*60)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.Sys)/(1<<20), "heap_sys_MB")
}

// benchMonthSpecs builds the 100 000-tenant month fleet: 24 shared
// piecewise-constant day-shaped traces (a 9-hour busy plateau over a quiet
// baseline, phase-staggered per variant, two inflections per day) and a
// cluster sized for one pod per tenant with scale-up head-room. The levels
// are chosen so each plateau has a fixed-point limit inside the
// recommender's hold band: tenants resize once per inflection, then sleep
// until the next one — the discrete-event engine's intended regime.
func benchMonthSpecs(b *testing.B, n, minutes int) ([]caasper.TenantSpec, caasper.FleetOptions) {
	b.Helper()
	const variants = 24
	traces := make([]*caasper.Trace, variants)
	for v := range traces {
		low := 0.5 + 0.05*float64(v%8)
		high := 2.2 + 0.06*float64(v%8)
		// Plateau edges land one minute after a decision tick, staggered
		// per variant: a woken tenant then sees nine new-level samples at
		// its first tick instead of one, minimising ticks spent mixed.
		start := (421 + 40*v) % 1440
		vals := make([]float64, minutes)
		for m := range vals {
			mm := m % 1440
			busy := mm-start >= 0 && mm-start < 540 ||
				mm+1440-start < 540 // plateau wraps past midnight
			if busy {
				vals[m] = high
			} else {
				vals[m] = low
			}
		}
		traces[v] = caasper.NewTrace(fmt.Sprintf("month-%02d", v), time.Minute, vals)
	}
	specs := make([]caasper.TenantSpec, n)
	for i := range specs {
		specs[i] = caasper.TenantSpec{
			Name:  fmt.Sprintf("t%05d", i),
			Trace: traces[i%variants],
			NewRecommender: func() (caasper.Recommender, error) {
				// A 20-minute window re-saturates two decision ticks after
				// each inflection, bounding the awake ticks per plateau.
				return caasper.NewReactive(caasper.DefaultConfig(4), 20)
			},
			Resources:    core.CPURange(1, 1, 4),
			Replicas:     1,
			MemGiBPerPod: 1,
		}
	}
	nodes := make([]*k8s.Node, 128)
	for i := range nodes {
		nodes[i] = k8s.NewNode(fmt.Sprintf("bench-node-%03d", i), 4096, 8192)
	}
	cluster, err := k8s.NewCluster(nodes...)
	if err != nil {
		b.Fatal(err)
	}
	opts := caasper.DefaultFleetOptions()
	opts.Cluster = cluster
	opts.Minutes = minutes
	// Daily billing periods keep the per-tenant metering state at 30
	// periods over the month instead of 720.
	opts.BillingPeriod = 24 * time.Hour
	return specs, opts
}

// BenchmarkFleetMonth100k is the discrete-event tick loop's headline:
// 100 000 tenants replayed over a full month (4.32 B tenant-minutes per
// op). A minute-stepped replay would execute every tenant every minute;
// the tick loop wakes each tenant only around its two daily inflections
// and sleeps it through the plateaus, so the month completes in well
// under a minute on one machine.
func BenchmarkFleetMonth100k(b *testing.B) {
	const tenants, minutes = 100_000, 43_200
	for i := 0; i < b.N; i++ {
		specs, opts := benchMonthSpecs(b, tenants, minutes)
		if _, err := caasper.RunFleet(specs, opts); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(tenants)*minutes*float64(i+1)/b.Elapsed().Seconds(), "tenant_minutes/s")
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.Sys)/(1<<20), "heap_sys_MB")
}

// BenchmarkFleetMonth10k is the core-scaling probe: the same month
// workload at a tenth the tenants, small enough to repeat at several
// -cpu values (scripts/bench.sh runs it at -cpu 1,4,8 and keeps each
// GOMAXPROCS variant as its own row). Without an event sink the 128
// bench nodes split the fleet into node-disjoint tenant groups that run
// concurrently, so tenant_minutes/s should track cores until the largest
// group bounds the run (Amdahl's ceiling).
func BenchmarkFleetMonth10k(b *testing.B) {
	const tenants, minutes = 10_000, 43_200
	for i := 0; i < b.N; i++ {
		specs, opts := benchMonthSpecs(b, tenants, minutes)
		if _, err := caasper.RunFleet(specs, opts); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(tenants)*minutes*float64(i+1)/b.Elapsed().Seconds(), "tenant_minutes/s")
	}
}

// benchWeekEventsSpecs builds the contended events fleet: n CPU-only
// tenants on noisy traces (the four paper workload families, tenant i
// from seed i) over the 6-node large cluster, whose nodes hold 60% of the
// summed MaxCores, so arbitration defers every day.
func benchWeekEventsSpecs(b *testing.B, n, minutes int) ([]caasper.TenantSpec, caasper.FleetOptions) {
	b.Helper()
	families := []string{"workday12h", "cyclical3d", "step62h", "customer"}
	specs := make([]caasper.TenantSpec, n)
	sumMax := 0
	for i := range specs {
		base := caasper.Workloads[families[i%len(families)]](uint64(i + 1))
		vals := make([]float64, minutes)
		for m := range vals {
			vals[m] = base.Values[m%len(base.Values)]
		}
		maxc := 8 + 4*(i%3)
		sumMax += maxc
		specs[i] = caasper.TenantSpec{
			Name:  fmt.Sprintf("t%04d", i),
			Trace: caasper.NewTrace(base.Name, time.Minute, vals),
			NewRecommender: func() (caasper.Recommender, error) {
				return caasper.NewReactive(caasper.DefaultConfig(maxc), 40)
			},
			Resources:    core.CPURange(2, 1, maxc),
			Replicas:     1,
			MemGiBPerPod: 1,
		}
	}
	cluster := caasper.LargeCluster()
	for _, node := range cluster.Nodes() {
		node.Allocatable.CPUCores = 0.6 * float64(sumMax) / 6
		node.Allocatable.MemoryGiB = 1e9
	}
	opts := caasper.DefaultFleetOptions()
	opts.Cluster = cluster
	opts.Minutes = minutes
	return specs, opts
}

// BenchmarkFleetWeekEvents replays a contended 6-node, 96-tenant fleet
// with an NDJSON sink over io.Discard, for one day and for one week. The
// placement splits into six node-disjoint groups that run concurrently,
// and the epoch merge rebuilds the one-group stream. The buffered events
// copy their fields into per-buffer arenas, and two buffer sets are
// reused from epoch to epoch, so allocs/op grows with the merge epochs
// (six on the week, one on the day), not with events/op.
func BenchmarkFleetWeekEvents(b *testing.B) {
	const tenants = 96
	for _, h := range []struct {
		name    string
		minutes int
	}{{"day", 24 * 60}, {"week", 7 * 24 * 60}} {
		b.Run(h.name, func(b *testing.B) {
			b.ReportAllocs()
			var events int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				specs, opts := benchWeekEventsSpecs(b, tenants, h.minutes)
				sink := caasper.NewNDJSONSink(io.Discard)
				opts.Events = sink
				b.StartTimer()
				if _, err := caasper.RunFleet(specs, opts); err != nil {
					b.Fatal(err)
				}
				if err := sink.Flush(); err != nil {
					b.Fatal(err)
				}
				events += sink.Count()
			}
			b.ReportMetric(float64(tenants*h.minutes*b.N)/b.Elapsed().Seconds(), "tenant_minutes/s")
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
		})
	}
}

func BenchmarkRandomSearch(b *testing.B) {
	tr := caasper.Workloads["workday12h"](1)
	opts := caasper.DefaultSimOptions(6, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := caasper.RandomSearch(tr, caasper.TuningOptions{
			Samples: 10, Seed: uint64(i + 1), Sim: &opts, SeasonMinutes: 720,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeIngest drives the recommender service's HTTP ingest path
// end to end — NDJSON batch POSTs through the real handler stack into
// the shard queues, decisions firing at the default cadence — and
// reports sustained samples/minute (the serve throughput figure).
func BenchmarkServeIngest(b *testing.B) {
	srv, err := caasper.NewServer(caasper.ServeOptions{Shards: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}

	const tenants = 8
	const batchSamples = 60
	for i := 0; i < tenants; i++ {
		req, _ := http.NewRequest(http.MethodPut,
			fmt.Sprintf("%s/v1/tenants/t%02d", ts.URL, i),
			strings.NewReader(`{"policy":"caasper","max_cores":16,"initial_cores":2}`))
		resp, err := client.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			b.Fatalf("register: %s", resp.Status)
		}
	}
	tr := caasper.Workloads["workday12h"](1)
	var body strings.Builder
	for s := 0; s < batchSamples; s++ {
		fmt.Fprintf(&body, "{\"cpu\":%.4f}\n", tr.At(s))
	}
	batch := body.String()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		url := fmt.Sprintf("%s/v1/tenants/t%02d/samples", ts.URL, i%tenants)
		for {
			resp, err := client.Post(url, "application/x-ndjson", strings.NewReader(batch))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusAccepted {
				break
			}
			if resp.StatusCode != http.StatusTooManyRequests {
				b.Fatalf("post: %s", resp.Status)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*batchSamples/b.Elapsed().Minutes(), "samples/min")
}

// serve10k is a closed recommender service holding 10,000 tenants, each
// warmed mid-window with 35 samples (three decisions logged; every fourth
// tenant also manages RAM and disk), built once for the checkpoint
// benchmarks through the public HTTP surface.
var serve10k = sync.OnceValues(func() (*caasper.Server, error) {
	srv, err := caasper.NewServer(caasper.ServeOptions{})
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	tr := caasper.Workloads["workday12h"](1)
	var body strings.Builder
	for i := 0; i < 10_000; i++ {
		cfg := `{"policy":"caasper","max_cores":16,"initial_cores":2}`
		if i%4 == 3 {
			cfg = `{"policy":"caasper","max_cores":16,"initial_cores":2,"min_ram_gb":2,"max_ram_gb":32,"disk_gb":20}`
		}
		id := fmt.Sprintf("/v1/tenants/t%05d", i)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, id, strings.NewReader(cfg)))
		if rec.Code != http.StatusCreated {
			return nil, fmt.Errorf("register: %d %s", rec.Code, rec.Body)
		}
		body.Reset()
		for s := 0; s < 35; s++ {
			fmt.Fprintf(&body, "{\"cpu\":%.4f,\"ram_gb\":%.2f,\"disk_gb\":%.2f}\n", tr.At((7*i+s)%700), 4+float64(s%9), 12+0.2*float64(s))
		}
		for {
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, id+"/samples", strings.NewReader(body.String())))
			if rec.Code == http.StatusAccepted {
				break
			}
			if rec.Code != http.StatusTooManyRequests {
				return nil, fmt.Errorf("post: %d %s", rec.Code, rec.Body)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Close drains every queued batch; with no snapshot path it writes
	// nothing, and Snapshot still reads the drained tenants.
	return srv, srv.Close()
})

// BenchmarkServeSnapshot10k measures one checkpoint of 10,000 warm
// tenants to a file (encode, write, rename).
func BenchmarkServeSnapshot10k(b *testing.B) {
	srv, err := serve10k()
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "serve.snapshot")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := srv.Snapshot(path); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if fi, err := os.Stat(path); err == nil {
		b.ReportMetric(float64(fi.Size())/(1<<20), "MB")
	}
}

// BenchmarkServeRestore10k measures restoring that checkpoint into a
// fresh server (decode, rebuild every recommender, publish); building
// and closing the server stay outside the timer.
func BenchmarkServeRestore10k(b *testing.B) {
	srv, err := serve10k()
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "serve.snapshot")
	if err := srv.Snapshot(path); err != nil {
		b.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh, err := caasper.NewServer(caasper.ServeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := fresh.Restore(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		fresh.Close()
		b.StartTimer()
	}
}
