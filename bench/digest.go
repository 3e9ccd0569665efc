package bench

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"

	"caasper"
)

// digester feeds fixed-width values into a hash: integers as 8 bytes,
// floats by their IEEE-754 bits (so -0, NaN payloads and the last ulp all
// count), strings length-prefixed.
type digester struct {
	h   hash.Hash
	buf [8]byte
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) i(v int64) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

func (d *digester) f(v float64) { d.i(int64(math.Float64bits(v))) }

func (d *digester) s(v string) {
	d.i(int64(len(v)))
	d.h.Write([]byte(v))
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func (d *digester) tenant(t *caasper.FleetTenantResult) {
	d.s(t.Name)
	d.s(t.Recommender)
	d.i(int64(t.InitialCores))
	d.i(int64(t.FinalCores))
	d.f(t.SumSlack)
	d.f(t.SumInsufficient)
	d.i(int64(t.NumScalings))
	d.i(int64(t.ThrottledMinutes))
	d.i(int64(t.Deferrals))
	d.i(int64(t.ResizesAborted))
	d.f(t.BilledCorePeriods)
	fc := t.FaultCounts
	for _, v := range []int64{fc.RestartFails, fc.RestartStucks, fc.MetricsGaps, fc.PressureWindows, fc.MemPressureWindows} {
		d.i(v)
	}
	d.i(int64(t.FinalRAMGB))
	d.i(int64(t.FinalDiskGB))
	d.i(int64(t.FinalReplicas))
	d.f(t.RAMShortGBMin)
	d.i(int64(t.OOMMinutes))
	d.i(int64(t.DiskFullMinutes))
	d.f(t.BilledRAMGBPeriods)
	d.f(t.BilledDiskGBPeriods)
}

// fleetDigest hashes every field of a FleetResult, per-tenant rows in
// order.
func fleetDigest(r *caasper.FleetResult) string {
	d := newDigester()
	d.i(int64(r.Minutes))
	d.i(int64(len(r.Tenants)))
	for k := range r.Tenants {
		d.tenant(&r.Tenants[k])
	}
	d.f(r.TotalSlack)
	d.f(r.TotalInsufficient)
	d.f(r.TotalCost)
	d.i(int64(r.TotalScalings))
	d.i(int64(r.TotalDeferrals))
	d.i(int64(r.TotalAborted))
	d.i(int64(r.ArbitrationTicks))
	d.i(r.PressureWindows)
	d.i(int64(r.TotalOOMMinutes))
	d.f(r.TotalRAMShortGBMin)
	d.f(r.TotalRAMCost)
	d.f(r.TotalDiskCost)
	return d.sum()
}

// tenantDigest hashes one tenant row.
func tenantDigest(t *caasper.FleetTenantResult) string {
	d := newDigester()
	d.tenant(t)
	return d.sum()
}

// goldenJSON holds the committed digests of the fleet workloads for
// seeds 1 and 2, keyed "<workload>/<sizes>/seed=<n>/<what>". Regenerate
// with `go test -run TestGoldenDigests -update` after an intentional
// behaviour change.
//
//go:embed testdata/digests.json
var goldenJSON []byte

// GoldenSeeds are the seeds whose fleet digests are committed.
var GoldenSeeds = []uint64{1, 2}

func goldenKey(workload, sizes string, seed uint64, what string) string {
	return fmt.Sprintf("%s/%s/seed=%d/%s", workload, sizes, seed, what)
}

func loadGolden() (map[string]string, error) {
	g := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("bench: golden digests: %w", err)
	}
	return g, nil
}
