package bench

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The machines this benchmark runs on share their cores, caches and memory
// with other tenants of the host, and their speed drifts by tens of
// percent over minutes (README.md, "Noise"). A run therefore times three
// fixed kernels between its units of work and reports its end-to-end
// timings scaled to the kernels' reference times: a run on a machine
// slowed by 20% reports what it would have measured at the reference
// speed. Each kernel slows with a different shared resource — a dependent
// multiply-add chain with the core a busy hyperthread sibling competes
// for, a random walk over 32 MB with the memory system, a sort of 40k keys
// with branches and the caches. Their geometric mean followed every
// workload more closely than any one kernel did, and the workloads slowed
// by about its 1.5th power (workloadSensitivity). The kernels work in
// memory mapped outside the Go heap, so they move neither heap_peak_mb nor
// the garbage collector's pacing, and they run between units, never beside
// them.
const (
	chainSteps = 1 << 21
	walkWords  = 1 << 22 // 32 MB of uint64
	walkSteps  = 1 << 19
	sortKeys   = 40_000
)

// kernelRefSeconds are the kernels' times at the reference speed (chain,
// walk, sort), about their medians on the 2-vCPU Xeon VM of README.md's
// numbers. They only set the scale; comparisons of two commits do not
// depend on them.
var kernelRefSeconds = [3]float64{0.0035, 0.0085, 0.0042}

// workloadSensitivity is how steeply the workloads' times follow the
// kernels': regressing log time on log kernel slowdown over 80 runs gave
// slopes of 1.55 to 1.73 (r = 0.99) for the fleets and serve-restart, and
// 1.24 for serve-ingest's throughput. A likely reason: the workloads keep
// both vCPUs busy (fleet workers, the collector, the load generator) while
// each kernel runs on one.
const workloadSensitivity = 1.5

// calibrator times the kernels whenever a workload finishes a unit of
// work.
type calibrator struct {
	mem   []byte
	walk  []uint64
	keys  []uint64
	times [3][]float64
	sink  uint64
}

func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, (walkWords+sortKeys)*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("bench: calibration buffer: %w", err)
	}
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), walkWords+sortKeys)
	for i := range words {
		words[i] = uint64(i) // fault every page in before the first timing
	}
	return &calibrator{mem: mem, walk: words[:walkWords], keys: words[walkWords:]}, nil
}

// sample times one pass of each kernel. It first collects garbage, so the
// kernels do not share the machine with the collector still marking what
// the last unit of work left behind; the serve workloads also wait for
// their shard workers to apply every accepted batch before calling it.
func (c *calibrator) sample() {
	runtime.GC()
	for k, kernel := range [3]func(){c.chain, c.walkMemory, c.sortKeys} {
		t0 := time.Now()
		kernel()
		c.times[k] = append(c.times[k], time.Since(t0).Seconds())
	}
}

func (c *calibrator) chain() {
	x := c.sink | 1
	for i := 0; i < chainSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	c.sink = x
}

func (c *calibrator) walkMemory() {
	idx := uint64(1)
	for i := 0; i < walkSteps; i++ {
		idx = idx*2862933555777941757 + 3037000493
		c.walk[idx&(walkWords-1)] += idx
	}
}

func (c *calibrator) sortKeys() {
	x := uint64(11)
	for i := range c.keys {
		x = x*6364136223846793005 + 1442695040888963407
		c.keys[i] = x >> 11
	}
	slices.Sort(c.keys)
}

// slowdown is how much slower than at the reference speed the run's
// workload ran: the geometric mean, over the kernels, of the median time
// over the reference time, raised to workloadSensitivity.
func (c *calibrator) slowdown() float64 {
	if len(c.times[0]) == 0 {
		c.sample()
	}
	logSum := 0.0
	for k, ts := range c.times {
		logSum += math.Log(median(ts) / kernelRefSeconds[k])
	}
	return math.Exp(workloadSensitivity * logSum / float64(len(c.times)))
}

// String gives each kernel's median time, for the run's log.
func (c *calibrator) String() string {
	return fmt.Sprintf("chain %.2fms, walk %.2fms, sort %.2fms over %d samples",
		median(c.times[0])*1e3, median(c.times[1])*1e3, median(c.times[2])*1e3, len(c.times[0]))
}

func (c *calibrator) close() error { return syscall.Munmap(c.mem) }
