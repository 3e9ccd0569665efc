// Package billing implements the resource-based pay-as-you-go model of the
// paper's DBaaS offerings (§3.1, §6.1): users are charged for the *peak*
// limits provisioned within each billing period, rounded up to whole units
// (cores for CPU, GB for RAM and disk), at unit price. The whole-core
// round-up and peak-based metering are the service invariants (R1) that
// shape CaaSPER's integral scaling decisions. Ledger adds the §5 tuning
// metrics K and C to the CPU bill, one definition for sim and fleet.
package billing

import (
	"fmt"
	"math"
	"time"

	"caasper/internal/errs"
	"caasper/internal/stats"
)

// Meter accumulates the bill of one dimension under the pay-as-you-go
// model: per period, the peak recorded limit rounded up to a whole unit.
type Meter struct {
	samplesPerPeriod int
	sampleInPeriod   int
	peakThisPeriod   float64
	billed           float64 // Σ ⌈peak⌉ over the closed periods
}

// NewMeter builds a billing meter. A zero period bills hourly; the sample
// interval must evenly divide the period. Every failure wraps
// errs.ErrInvalidConfig.
func NewMeter(period, sampleInterval time.Duration) (*Meter, error) {
	if period == 0 {
		period = time.Hour
	}
	if period < 0 || sampleInterval <= 0 {
		return nil, fmt.Errorf("billing: non-positive period %v or interval %v: %w", period, sampleInterval, errs.ErrInvalidConfig)
	}
	if period%sampleInterval != 0 {
		return nil, fmt.Errorf("billing: interval %v does not divide period %v: %w", sampleInterval, period, errs.ErrInvalidConfig)
	}
	return &Meter{samplesPerPeriod: int(period / sampleInterval)}, nil
}

// Record registers the provisioned limits (in cores, possibly fractional)
// during one sample interval. Completed periods are closed automatically.
func (m *Meter) Record(limitsCores float64) {
	if limitsCores > m.peakThisPeriod {
		m.peakThisPeriod = limitsCores
	}
	m.sampleInPeriod++
	if m.sampleInPeriod == m.samplesPerPeriod {
		m.closePeriod()
	}
}

// RecordN registers the same provisioned limits for n consecutive sample
// intervals — the bulk form the discrete-event fleet engine uses when the
// limit is provably constant across a span. The resulting meter state is
// identical to n sequential Record calls, but the cost is O(periods
// touched) instead of O(n): the peak comparison happens once per period
// and whole periods at a constant limit close immediately.
func (m *Meter) RecordN(limitsCores float64, n int) {
	for n > 0 {
		if limitsCores > m.peakThisPeriod {
			m.peakThisPeriod = limitsCores
		}
		take := min(m.samplesPerPeriod-m.sampleInPeriod, n)
		m.sampleInPeriod += take
		n -= take
		if m.sampleInPeriod == m.samplesPerPeriod {
			m.closePeriod()
		}
	}
}

func (m *Meter) closePeriod() {
	m.billed += math.Ceil(m.peakThisPeriod)
	m.peakThisPeriod = 0
	m.sampleInPeriod = 0
}

// Flush closes a partially filled period, if any. Call it once at the end
// of a run before reading totals.
func (m *Meter) Flush() {
	if m.sampleInPeriod > 0 {
		m.closePeriod()
	}
}

// BilledCorePeriods returns the bill so far: the per-period peaks of the
// closed periods, each rounded up to a whole unit, summed in period
// order.
func (m *Meter) BilledCorePeriods() float64 { return m.billed }

// Ledger is the CPU account of one replay, started as Ledger{Meter: *m}:
// K (Slack, Σ max(0, limit − demand)), C (Short, Σ max(0, demand −
// limit)), the throttled samples and the Meter's bill. The simulator adds
// a minute at a time, the fleet a constant-demand run at a time.
type Ledger struct {
	Slack, Short float64
	Throttled    int
	Meter
}

// Add accounts one sample at the given limit and demand and returns
// demand − limit, the shortfall when positive. It inlines.
func (l *Ledger) Add(limit, demand float64) (short float64) {
	if slack := limit - demand; slack > 0 {
		l.Slack += slack
	}
	if short = demand - limit; short > 0 {
		l.Short += short
		l.Throttled++
	}
	l.Record(limit)
	return short
}

// AddRun accounts n consecutive samples at the same limit and demand, as
// n calls of Add would, bit for bit. Repeated float64 addition has no
// closed form across powers of two, but within one binade each step adds
// the same rounded increment, so stats.AddN jumps a binade at a time and
// returns the very sum the n additions would.
func (l *Ledger) AddRun(limit, demand float64, n int) (short float64) {
	if n == 1 {
		return l.Add(limit, demand)
	}
	if slack := limit - demand; slack > 0 {
		l.Slack = stats.AddN(l.Slack, slack, n)
	}
	if short = demand - limit; short > 0 {
		l.Short = stats.AddN(l.Short, short, n)
		l.Throttled += n
	}
	l.RecordN(limit, n)
	return short
}

// Close flushes the meter and returns the totals: slack, shortfall,
// throttled samples and the bill.
func (l *Ledger) Close() (slack, short float64, throttled int, billed float64) {
	l.Flush()
	return l.Slack, l.Short, l.Throttled, l.BilledCorePeriods()
}

// Rates prices each scalable dimension per billing period: one core, one
// GB of RAM and one GB of disk held for one period. RAM and disk follow
// the CaaS pattern of cheaper secondary dimensions (Zerops bills RAM at a
// fraction of a core and disk at a fraction of RAM).
type Rates struct {
	CPUCorePeriod, RAMGBPeriod, DiskGBPeriod float64
}

// DefaultRates returns the reference price vector the simulator weighs a
// vector run's bills with: CPU at unit price, RAM at a quarter of a core
// per GB, disk at a fiftieth.
func DefaultRates() Rates {
	return Rates{CPUCorePeriod: 1, RAMGBPeriod: 0.25, DiskGBPeriod: 0.02}
}
