package core

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"caasper/internal/errs"
)

func TestLimitsClampManagedAndUnmanaged(t *testing.T) {
	l := Limits{Min: Resources{CPUCores: 2, RAMGB: 4}, Max: Resources{CPUCores: 8, RAMGB: 16}}
	got := l.Clamp(Resources{CPUCores: 12, RAMGB: 1, DiskGB: 999, Replicas: 7})
	want := Resources{CPUCores: 8, RAMGB: 4, DiskGB: 999, Replicas: 7}
	if got != want {
		t.Fatalf("Clamp = %+v, want %+v", got, want)
	}
	// A fully-unmanaged Limits is the identity — the CPU-only contract.
	var id Limits
	in := Resources{CPUCores: 5, RAMGB: 3}
	if out := id.Clamp(in); out != in {
		t.Fatalf("zero Limits.Clamp = %+v, want identity %+v", out, in)
	}
}

func TestLimitsMulti(t *testing.T) {
	if (Limits{Max: Resources{CPUCores: 8}}).Multi() {
		t.Fatal("CPU-only limits must not report Multi")
	}
	for _, l := range []Limits{
		{Max: Resources{RAMGB: 16}},
		{Max: Resources{DiskGB: 100}},
		{Max: Resources{Replicas: 4}},
	} {
		if !l.Multi() {
			t.Fatalf("limits %+v should report Multi", l)
		}
	}
}

func TestWithDefaults(t *testing.T) {
	rr := ResourceRange{Limits: Limits{Min: Resources{CPUCores: 2}, Max: Resources{CPUCores: 4, RAMGB: 16}}}
	got := rr.WithDefaults()
	if got.Initial.CPUCores != 2 {
		t.Fatalf("zero initial cores should default to Min: %+v", got)
	}
	if got.Min.RAMGB != 1 || got.Initial.RAMGB != 1 {
		t.Fatalf("managed RAM should default min/initial to 1: %+v", got)
	}
	// Set entries pass through; unmanaged dimensions stay unset.
	rr.Initial.CPUCores = 3
	got = rr.WithDefaults()
	if got.Initial.CPUCores != 3 || got.Max.CPUCores != 4 || got.Max.DiskGB != 0 || got.Initial.Replicas != 0 {
		t.Fatalf("set entries must pass through: %+v", got)
	}
}

func TestOrCPU(t *testing.T) {
	def := CPURange(6, 2, 16)
	ram, err := ParseResourceSpec("ram=4-16")
	if err != nil {
		t.Fatal(err)
	}
	if got := ram.OrCPU(def); got.Initial.CPUCores != 6 || got.Min.CPUCores != 2 || got.Max.CPUCores != 16 || got.Max.RAMGB != 16 {
		t.Fatalf("a spec without cpu= takes the default CPU bounds: %+v", got)
	}
	both, err := ParseResourceSpec("cpu=1-4,ram=4-16")
	if err != nil {
		t.Fatal(err)
	}
	if got := both.OrCPU(def); got != both {
		t.Fatalf("a cpu= entry must win over the defaults: %+v", got)
	}
}

func TestResourceRangeValidate(t *testing.T) {
	ok := ResourceRange{
		Initial: Resources{CPUCores: 2, RAMGB: 4},
		Limits:  Limits{Min: Resources{CPUCores: 1, RAMGB: 4}, Max: Resources{CPUCores: 8, RAMGB: 16}},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid range rejected: %v", err)
	}
	bad := []ResourceRange{
		{Limits: Limits{Min: Resources{RAMGB: 20}, Max: Resources{RAMGB: 16}}},
		{Initial: Resources{DiskGB: 200}, Limits: Limits{Max: Resources{DiskGB: 100}}},
		{Initial: Resources{CPUCores: 1}, Limits: Limits{Min: Resources{CPUCores: 2}, Max: Resources{CPUCores: 4}}},
	}
	for i, rr := range bad {
		if err := rr.Validate(); !errors.Is(err, errs.ErrInvalidConfig) {
			t.Fatalf("case %d: want ErrInvalidConfig, got %v", i, err)
		}
	}
}

func TestParseResourceSpec(t *testing.T) {
	rr, err := ParseResourceSpec("ram=4-16,disk=20-100,replicas=1-4")
	if err != nil {
		t.Fatal(err)
	}
	if rr.Min.RAMGB != 4 || rr.Max.RAMGB != 16 || rr.Initial.RAMGB != 4 {
		t.Fatalf("ram range wrong: %+v", rr)
	}
	if rr.Max.DiskGB != 100 || rr.Initial.DiskGB != 20 {
		t.Fatalf("disk range wrong: %+v", rr)
	}
	if rr.Min.Replicas != 1 || rr.Max.Replicas != 4 {
		t.Fatalf("replicas range wrong: %+v", rr)
	}
	if rr.Max.CPUCores != 0 {
		t.Fatalf("cpu must stay unmanaged: %+v", rr)
	}
	// Fixed-value clause.
	rr, err = ParseResourceSpec("disk=50")
	if err != nil {
		t.Fatal(err)
	}
	if rr.Min.DiskGB != 50 || rr.Max.DiskGB != 50 {
		t.Fatalf("fixed disk wrong: %+v", rr)
	}
	for _, s := range []string{"", "ram", "ram=0-4", "ram=8-4", "gpu=1-2", "ram=1-2,ram=2-4"} {
		if _, err := ParseResourceSpec(s); !errors.Is(err, errs.ErrInvalidConfig) {
			t.Fatalf("spec %q: want ErrInvalidConfig, got %v", s, err)
		}
	}
}

func TestDecisionCarriesVector(t *testing.T) {
	r, err := New(DefaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	usage := make([]float64, 60)
	for i := range usage {
		usage[i] = 3.9 // hot against 4 cores → scale-up
	}
	d, err := r.Decide(4, usage)
	if err != nil {
		t.Fatal(err)
	}
	if d.Current.CPUCores != 4 || d.Target.CPUCores <= 4 || d.Delta != d.Target.CPUCores-d.Current.CPUCores {
		t.Fatalf("CPU decision not carried by the vector: %+v", d)
	}
	if d.Current.RAMGB != 0 || d.Target.DiskGB != 0 {
		t.Fatalf("non-CPU dimensions must stay zero from Algorithm 1: %+v", d)
	}
}

// TestDecisionBackfillV1 pins the pre-vector snapshot shim: a decision
// carrying only "CurrentCores"/"TargetCores" gets its vectors from them,
// and a decision that has vectors keeps them.
func TestDecisionBackfillV1(t *testing.T) {
	raw := []byte(`{"CurrentCores":4,"TargetCores":6,"Delta":2,"Branch":"scale-up"}`)
	var d Decision
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	if err := d.BackfillV1(raw); err != nil {
		t.Fatal(err)
	}
	want := Decision{Current: Resources{CPUCores: 4}, Target: Resources{CPUCores: 6}, Delta: 2, Branch: BranchScaleUp}
	if d != want {
		t.Fatalf("v1 decision backfilled to %+v, want %+v", d, want)
	}
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "CurrentCores") || strings.Contains(string(b), "TargetCores") {
		t.Fatalf("encoding writes a legacy key: %s", b)
	}
	// The vectors win when present, whatever the legacy keys say.
	if err := d.BackfillV1([]byte(`{"CurrentCores":9,"TargetCores":9}`)); err != nil || d != want {
		t.Fatalf("legacy keys overrode the vectors: %+v, %v", d, err)
	}
}
