package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"caasper/internal/core"
)

// v1Decisions matches a CPU-only decision's vectors, to rewrite them into
// the pre-vector keys a v1 checkpoint carries.
var v1Decisions = regexp.MustCompile(`"Current":\{"CPUCores":(\d+),"RAMGB":0,"DiskGB":0,"Replicas":0\},"Target":\{"CPUCores":(\d+),"RAMGB":0,"DiskGB":0,"Replicas":0\}`)

// v2Checkpoint returns testdata/v2.snapshot, a checkpoint the v2 server
// wrote (see v2FixtureTenants).
func v2Checkpoint(t testing.TB) string {
	t.Helper()
	raw, err := os.ReadFile("testdata/v2.snapshot")
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// v1Checkpoint rewrites the first n ≤ 3 CPU-only tenants of
// testdata/v2.snapshot into the v1 format: version 1 in the header and
// every decision's allocation under its pre-vector keys.
func v1Checkpoint(t testing.TB, n int) string {
	t.Helper()
	lines := strings.SplitAfter(v2Checkpoint(t), "\n")
	v1 := fmt.Sprintf(`{"format":"caasper-serve","version":1,"tenants":%d}`+"\n", n)
	for _, line := range lines[1:] {
		if n > 0 && !strings.Contains(line, `"ram_gb"`) {
			v1 += line
			n--
		}
	}
	if n > 0 || !v1Decisions.MatchString(v1) {
		t.Fatalf("no CPU-only decision vectors to rewrite: %s", v1)
	}
	return v1Decisions.ReplaceAllString(v1, `"CurrentCores":$1,"TargetCores":$2`)
}

// nonCanonical rewrites one checkpoint line into JSON Snapshot never
// writes but json.Unmarshal reads the same: keys sorted, a space after
// every colon, and the ID's first letter escaped.
func nonCanonical(t testing.TB, line string) string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	out := strings.ReplaceAll(string(b), `":`, `": `)
	return strings.Replace(out, `"id": "t`, `"id": "\u0074`, 1) + "\n"
}

// FuzzRestore feeds Restore arbitrary checkpoint streams. Restore must
// never panic; a failed restore must leave the server without a tenant;
// a successful one must re-encode to a checkpoint that restores and
// re-encodes to the same bytes (a decision log trimmed to the server's
// size on the first restore is not trimmed again).
func FuzzRestore(f *testing.F) {
	v3 := string(snapshotBytes(f, mixedServer(f, len(mixedTenantConfigs))))
	lines := strings.SplitAfter(v3, "\n")
	v1 := v1Checkpoint(f, 1)
	var multi string
	for _, line := range lines {
		if strings.Contains(line, `"replicas"`) {
			multi = lines[0][:strings.Index(lines[0], `"tenants"`)] + `"tenants":1}` + "\n" + line
		}
	}
	// mixed restores lines 1 and 4 through json.Unmarshal and the rest
	// through the canonical-line decoder, to the same tenants as v3.
	mixed := lines[0] + nonCanonical(f, lines[1]) + lines[2] + lines[3] + nonCanonical(f, lines[4]) + strings.Join(lines[5:], "")
	for _, seed := range []struct{ data, err, reencodes string }{
		{v1, "", ""},
		{v2Checkpoint(f), "", ""},
		{v3, "", v3},
		{multi, "", multi},
		{mixed, "", v3},
		{v3[:len(v3)/2], "tenant line", ""}, // truncated mid-line
		{lines[0] + "{\"id\":\x00garbage\n", "tenant line 1", ""}, // garbage
		{strings.Replace(v3, `"tenants":5`, `"tenants":6`, 1) + lines[1], "duplicate tenant", ""},
		{strings.Replace(v3, `{"seq":2,`, `{"seq":1,`, 1), "tenant line 1: decision log seq 1 after 1", ""}, // forked cursor stream
	} {
		s, err := New(Options{})
		if err != nil {
			f.Fatal(err)
		}
		err = s.Restore(strings.NewReader(seed.data))
		if (err == nil) != (seed.err == "") || err != nil && !strings.Contains(err.Error(), seed.err) {
			f.Fatalf("seed restores with error %v, want %q:\n%s", err, seed.err, seed.data)
		}
		if got := snapshotBytes(f, s); seed.reencodes != "" && string(got) != seed.reencodes {
			f.Fatalf("seed re-encodes to\n%s\nwant\n%s", got, seed.reencodes)
		}
		s.Close()
		f.Add([]byte(seed.data))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := New(Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Restore(bytes.NewReader(data)); err != nil {
			if ids := s.tenantIDs(); len(ids) != 0 {
				t.Fatalf("failed restore (%v) left %d tenants", err, len(ids))
			}
			return
		}
		first := snapshotBytes(t, s)
		s2, err := New(Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if err := s2.Restore(bytes.NewReader(first)); err != nil {
			t.Fatalf("re-encoded checkpoint does not restore: %v\n%s", err, first)
		}
		if second := snapshotBytes(t, s2); !bytes.Equal(first, second) {
			t.Fatalf("snapshot → restore → snapshot changed the bytes:\n%s\nvs\n%s", first, second)
		}
	})
}

// FuzzSnapshotLine is the differential test of the canonical-line
// decoder: whatever line decodeTenantLine accepts, json.Unmarshal must
// decode to the same snapshotTenant, floats bit for bit. Every line of a
// mixedServer checkpoint is a seed and must take the fast path; a line
// of testdata/v2.snapshot is one too, which must not.
func FuzzSnapshotLine(f *testing.F) {
	v3 := strings.TrimSuffix(string(snapshotBytes(f, mixedServer(f, len(mixedTenantConfigs)))), "\n")
	for _, line := range strings.Split(v3, "\n")[1:] {
		var st snapshotTenant
		if !decodeTenantLine([]byte(line), &st) {
			f.Fatalf("a line Snapshot wrote takes the fallback: %s", line)
		}
		f.Add([]byte(line))
	}
	for _, seed := range []string{
		`{}`,
		`{"id":"a","cores":-0,"seq":999999999999999999}`,
		`{"seq":9223372036854775807}`,
		`{"id":"ü","state":{"window":[],"total":1,"exp_kind":255},"log":[]}`,
		`{"state":{"exp_kind":-0}}`,
		`{"state":{"window":null,"exp_peak":1e400}}`,
		`{"state":{"exp_peak":-0,"now":-9223372036854775808}}`,
		`{"ram_peak":12345678901234567890123,"cpu_peak":-0}`,
		`{"id":"a\u0062"}`,
		`{"cores":1.0}`,
	} {
		f.Add([]byte(seed))
	}
	v2 := strings.SplitAfter(v2Checkpoint(f), "\n")[1]
	if decodeTenantLine([]byte(strings.TrimSuffix(v2, "\n")), new(snapshotTenant)) {
		f.Fatalf("a v2 line takes the v3 decoder: %s", v2)
	}
	f.Add([]byte(v2))
	f.Fuzz(func(t *testing.T, line []byte) {
		var fast snapshotTenant
		if !decodeTenantLine(line, &fast) {
			return
		}
		var ref snapshotTenant
		if err := json.Unmarshal(line, &ref); err != nil {
			t.Fatalf("fast decoder accepts a line json.Unmarshal rejects (%v): %s", err, line)
		}
		if !sameBits(reflect.ValueOf(fast), reflect.ValueOf(ref)) {
			t.Fatalf("decoders disagree on %s:\nfast %+v\njson %+v", line, fast, ref)
		}
	})
}

// sameBits reports whether a and b are deeply equal, with floats compared
// bit for bit (0 and -0 differ) and nil and empty slices told apart.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

// FuzzSnapshotEncode is the differential test of the checkpoint-line
// encoder. A line json.Unmarshal decodes into a snapshotTenant gets a
// float and a string injected into its ID, decision fields, window,
// explanation template and log; appendTenantLine must then write
// json.Encoder's bytes, or fail where json.Encoder fails, on a NaN or
// ±Inf. A line with no escaped string must also take decodeTenantLine's
// fast path back to the tenant it was encoded from, floats bit for bit.
// Every mixedServer line is a seed, and so is a line of
// testdata/v2.snapshot, whose memo json.Unmarshal ignores; the escapes,
// float edges and nil-versus-empty slices are seeds in
// testdata/fuzz/FuzzSnapshotEncode.
func FuzzSnapshotEncode(f *testing.F) {
	v3 := strings.TrimSuffix(string(snapshotBytes(f, mixedServer(f, len(mixedTenantConfigs)))), "\n")
	for _, line := range strings.Split(v3, "\n")[1:] {
		f.Add([]byte(line), math.Float64bits(2.5), "")
	}
	f.Add([]byte(strings.SplitAfter(v2Checkpoint(f), "\n")[1]), math.Float64bits(0.5), "")
	f.Fuzz(func(t *testing.T, line []byte, bits uint64, s string) {
		var st snapshotTenant
		if json.Unmarshal(line, &st) != nil {
			return
		}
		v := math.Float64frombits(bits)
		st.ID += s
		st.State.LastDecision.Branch = core.Branch(s)
		st.State.LastDecision.Slope = v
		st.State.LastDecision.Explanation = s
		st.State.ExpPeak = v
		st.CPUPeak = v
		if n := len(st.State.Window); n > 0 {
			st.State.Window[n-1] = v
		}
		if n := len(st.Log); n > 0 {
			st.Log[n-1].Explanation = s
			st.Log[n-1].Quantile = v
		}

		got, err := appendTenantLine(nil, &st)
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(false)
		wantErr := enc.Encode(st)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("appendTenantLine error %v, json.Encoder error %v, float %v", err, wantErr, v)
		}
		if err != nil {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				t.Fatalf("a finite line fails: %v", err)
			}
			return
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("encoders disagree:\nhand %s\njson %s", got, want.Bytes())
		}
		if bytes.IndexByte(got, '\\') >= 0 {
			return // an escaped string: Restore reads the line via json.Unmarshal
		}
		var back snapshotTenant
		if !decodeTenantLine(got[:len(got)-1], &back) {
			t.Fatalf("an unescaped line takes the fallback: %s", got)
		}
		// What omitempty drops comes back as the zero value.
		if len(st.State.Window) == 0 {
			st.State.Window = nil
		}
		if len(st.Log) == 0 {
			st.Log = nil
		}
		for _, p := range []*float64{&st.RAMPeak, &st.DiskHigh, &st.CPUPeak, &st.State.ExpPeak} {
			if *p == 0 {
				*p = 0 // -0 is omitted too
			}
		}
		for i := range st.Log {
			for _, p := range []*float64{&st.Log[i].Slope, &st.Log[i].Skew, &st.Log[i].RawSF, &st.Log[i].Quantile} {
				if *p == 0 {
					*p = 0
				}
			}
		}
		if !sameBits(reflect.ValueOf(back), reflect.ValueOf(st)) {
			t.Fatalf("round trip through %s:\ngot  %+v\nwant %+v", got, back, st)
		}
	})
}

// TestAppendNumberFastMatchesStrconv sweeps appendNumberFast over short
// decimals and random bits: whatever the fast path writes is strconv's
// shortest 'f' form, and every decimal with at most six fraction digits
// in [1e-6, 2³²) takes it. (Below 2³², v·10⁶ lands within 0.49 of m, so
// the rounding finds m; above, it may miss by one and fall back.)
func TestAppendNumberFastMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(v float64, wantFast bool) {
		got, ok := appendNumberFast([]byte("x"), v)
		if ok != wantFast && wantFast {
			t.Fatalf("%v (bits %#x) misses the fast path", v, math.Float64bits(v))
		}
		if want := strconv.AppendFloat([]byte("x"), v, 'f', -1, 64); ok && !bytes.Equal(got, want) {
			t.Fatalf("%v: fast path writes %s, strconv %s", v, got, want)
		}
	}
	for _, m := range []uint64{1, 9, 10, 999999, 1000000, 1000001, 1<<52 - 1} {
		check(float64(m)/1e6, true)
		check(-float64(m)/1e6, true)
	}
	check(float64(1<<52)/1e6, false)
	for i := 0; i < 200000; i++ {
		frac := rng.Intn(7)
		m := uint64(rng.Int63n(int64(1) << (1 + rng.Intn(52))))
		txt := strconv.FormatUint(m, 10)
		if frac > 0 {
			txt = fmt.Sprintf("%0*s", frac+1, txt)
			txt = txt[:len(txt)-frac] + "." + txt[len(txt)-frac:]
		}
		v, err := strconv.ParseFloat(txt, 64)
		if err != nil {
			t.Fatal(err)
		}
		check(v, v >= 1e-6 && v < 1<<32)
		check(math.Float64frombits(rng.Uint64()), false)
	}
}
