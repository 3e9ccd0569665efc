package core

import (
	"fmt"
	"strconv"
	"strings"

	"caasper/internal/errs"
)

// Resources is an allocation (or demand) vector over every dimension the
// autoscaler can manage. CPU is the paper's original dimension; RAM, disk
// and replica count follow the Zerops production scaling surface
// (min/max per dimension, containers for stateless tiers). A dimension
// with value 0 is "unset" and policies skip it: a CPU-only configuration
// is the vector whose other dimensions are 0.
type Resources struct {
	CPUCores int // cores per pod
	RAMGB    int // resident memory per pod, GB
	DiskGB   int // persistent volume per pod, GB (grow-only)
	Replicas int // pods in the set (horizontal overflow, stateless only)
}

// IsZero reports whether no dimension is set.
func (r Resources) IsZero() bool { return r == Resources{} }

// String renders the set dimensions as "cpu=4 ram=8 disk=20 replicas=2".
func (r Resources) String() string {
	var b strings.Builder
	dim := func(name string, v int) {
		if v == 0 {
			return
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(name)
		b.WriteByte('=')
		b.WriteString(strconv.Itoa(v))
	}
	dim("cpu", r.CPUCores)
	dim("ram", r.RAMGB)
	dim("disk", r.DiskGB)
	dim("replicas", r.Replicas)
	if b.Len() == 0 {
		return "none"
	}
	return b.String()
}

// Limits bounds each dimension of a Resources vector. A dimension whose
// Max is 0 is unmanaged: Clamp leaves it alone and the multi-resource
// paths never scale it.
type Limits struct {
	Min Resources
	Max Resources
}

// Managed reports whether the named vector dimension has a ceiling.
func (l Limits) managedCPU() bool  { return l.Max.CPUCores > 0 }
func (l Limits) managedRAM() bool  { return l.Max.RAMGB > 0 }
func (l Limits) managedDisk() bool { return l.Max.DiskGB > 0 }

// Multi reports whether any non-CPU dimension is managed — the switch
// that gives a tenant its RAM, disk and replica state and traces.
func (l Limits) Multi() bool {
	return l.Max.RAMGB > 0 || l.Max.DiskGB > 0 || l.Max.Replicas > 0
}

// Clamp limits each managed dimension of r to [Min, Max]. Unmanaged
// dimensions (Max 0) pass through so CPU-only callers see identity.
func (l Limits) Clamp(r Resources) Resources {
	if l.managedCPU() {
		r.CPUCores = clampDim(r.CPUCores, l.Min.CPUCores, l.Max.CPUCores)
	}
	if l.managedRAM() {
		r.RAMGB = clampDim(r.RAMGB, l.Min.RAMGB, l.Max.RAMGB)
	}
	if l.managedDisk() {
		r.DiskGB = clampDim(r.DiskGB, l.Min.DiskGB, l.Max.DiskGB)
	}
	if l.Max.Replicas > 0 {
		r.Replicas = clampDim(r.Replicas, l.Min.Replicas, l.Max.Replicas)
	}
	return r
}

func clampDim(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if hi > 0 && v > hi {
		return hi
	}
	return v
}

// ResourceRange is the shared "initial + bounds" spelling used by every
// options struct (SimOptions, HarnessOptions, fleet TenantSpec, serve
// tenant config).
type ResourceRange struct {
	Initial Resources
	Limits
}

// CPURange returns the CPU-only range: the initial allocation and the
// [min, max] core clamps, every other dimension unmanaged.
func CPURange(initial, min, max int) ResourceRange {
	return ResourceRange{
		Initial: Resources{CPUCores: initial},
		Limits:  Limits{Min: Resources{CPUCores: min}, Max: Resources{CPUCores: max}},
	}
}

// OrCPU returns rr, taking the CPU entries of def when rr sets none: an
// explicit cpu= clause of a -resources spec wins over the CLI's
// -initial/-min/-max flags, which build def.
func (rr ResourceRange) OrCPU(def ResourceRange) ResourceRange {
	if rr.Initial.CPUCores == 0 && rr.Min.CPUCores == 0 && rr.Max.CPUCores == 0 {
		rr.Initial.CPUCores = def.Initial.CPUCores
		rr.Min.CPUCores = def.Min.CPUCores
		rr.Max.CPUCores = def.Max.CPUCores
	}
	return rr
}

// WithDefaults fills the entries a caller may leave unset: a zero Initial
// entry of a managed dimension defaults to that dimension's Min, and
// managed RAM and replica counts get a floor of 1. A managed disk with no
// Min starts at its Max (volumes only grow).
func (rr ResourceRange) WithDefaults() ResourceRange {
	if rr.Initial.CPUCores == 0 {
		rr.Initial.CPUCores = rr.Min.CPUCores
	}
	if rr.Max.RAMGB > 0 {
		if rr.Min.RAMGB < 1 {
			rr.Min.RAMGB = 1
		}
		if rr.Initial.RAMGB == 0 {
			rr.Initial.RAMGB = rr.Min.RAMGB
		}
	}
	if rr.Max.DiskGB > 0 && rr.Initial.DiskGB == 0 {
		if rr.Min.DiskGB > 0 {
			rr.Initial.DiskGB = rr.Min.DiskGB
		} else {
			rr.Initial.DiskGB = rr.Max.DiskGB
		}
	}
	if rr.Max.Replicas > 0 {
		if rr.Min.Replicas < 1 {
			rr.Min.Replicas = 1
		}
		if rr.Initial.Replicas == 0 {
			rr.Initial.Replicas = rr.Min.Replicas
		}
	}
	return rr
}

// Validate checks the managed dimensions for internal consistency.
func (rr ResourceRange) Validate() error {
	type dim struct {
		name              string
		initial, min, max int
	}
	dims := []dim{
		{"cpu", rr.Initial.CPUCores, rr.Min.CPUCores, rr.Max.CPUCores},
		{"ram", rr.Initial.RAMGB, rr.Min.RAMGB, rr.Max.RAMGB},
		{"disk", rr.Initial.DiskGB, rr.Min.DiskGB, rr.Max.DiskGB},
		{"replicas", rr.Initial.Replicas, rr.Min.Replicas, rr.Max.Replicas},
	}
	for _, d := range dims {
		if d.max == 0 && d.min == 0 && d.initial == 0 {
			continue // unmanaged dimension
		}
		if d.min < 0 || d.max < 0 || d.initial < 0 {
			return fmt.Errorf("%w: resource range %s has a negative bound", errs.ErrInvalidConfig, d.name)
		}
		if d.max > 0 && d.min > d.max {
			return fmt.Errorf("%w: resource range %s min %d exceeds max %d", errs.ErrInvalidConfig, d.name, d.min, d.max)
		}
		if d.initial > 0 && d.initial < d.min {
			return fmt.Errorf("%w: resource range %s initial %d below min %d", errs.ErrInvalidConfig, d.name, d.initial, d.min)
		}
		if d.initial > 0 && d.max > 0 && d.initial > d.max {
			return fmt.Errorf("%w: resource range %s initial %d above max %d", errs.ErrInvalidConfig, d.name, d.initial, d.max)
		}
	}
	return nil
}

// ParseResourceSpec parses the CLI -resources grammar: comma-separated
// dimension clauses, each "dim=lo-hi" or "dim=n" (fixed), dimensions
// cpu, ram, disk, replicas. Initial allocation defaults to the low
// bound. Example: "ram=4-16,disk=20-100,replicas=1-4".
func ParseResourceSpec(s string) (ResourceRange, error) {
	var rr ResourceRange
	s = strings.TrimSpace(s)
	if s == "" {
		return rr, fmt.Errorf("%w: empty -resources spec", errs.ErrInvalidConfig)
	}
	seen := map[string]bool{}
	for _, clause := range strings.Split(s, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, rng, ok := strings.Cut(clause, "=")
		if !ok {
			return rr, fmt.Errorf("%w: resource clause %q is not dim=lo-hi", errs.ErrInvalidConfig, clause)
		}
		name = strings.TrimSpace(name)
		if seen[name] {
			return rr, fmt.Errorf("%w: duplicate resource dimension %q", errs.ErrInvalidConfig, name)
		}
		seen[name] = true
		loStr, hiStr, ranged := strings.Cut(strings.TrimSpace(rng), "-")
		lo, err := strconv.Atoi(strings.TrimSpace(loStr))
		if err != nil || lo < 1 {
			return rr, fmt.Errorf("%w: resource clause %q needs a positive low bound", errs.ErrInvalidConfig, clause)
		}
		hi := lo
		if ranged {
			hi, err = strconv.Atoi(strings.TrimSpace(hiStr))
			if err != nil || hi < lo {
				return rr, fmt.Errorf("%w: resource clause %q high bound must be ≥ low", errs.ErrInvalidConfig, clause)
			}
		}
		switch name {
		case "cpu":
			rr.Initial.CPUCores, rr.Min.CPUCores, rr.Max.CPUCores = lo, lo, hi
		case "ram":
			rr.Initial.RAMGB, rr.Min.RAMGB, rr.Max.RAMGB = lo, lo, hi
		case "disk":
			rr.Initial.DiskGB, rr.Min.DiskGB, rr.Max.DiskGB = lo, lo, hi
		case "replicas":
			rr.Initial.Replicas, rr.Min.Replicas, rr.Max.Replicas = lo, lo, hi
		default:
			return rr, fmt.Errorf("%w: unknown resource dimension %q (cpu, ram, disk, replicas)", errs.ErrInvalidConfig, name)
		}
	}
	if len(seen) == 0 {
		return rr, fmt.Errorf("%w: -resources spec %q has no dimension clause", errs.ErrInvalidConfig, s)
	}
	return rr, nil
}
