package serve

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// v1Decisions matches a CPU-only decision's vectors, to rewrite them into
// the pre-vector keys a v1 checkpoint carries.
var v1Decisions = regexp.MustCompile(`"Current":\{"CPUCores":(\d+),"RAMGB":0,"DiskGB":0,"Replicas":0\},"Target":\{"CPUCores":(\d+),"RAMGB":0,"DiskGB":0,"Replicas":0\}`)

// FuzzRestore feeds Restore arbitrary checkpoint streams. Restore must
// never panic; a failed restore must leave the server without a tenant;
// a successful one must re-encode to a checkpoint that restores and
// re-encodes to the same bytes (a decision log trimmed to the server's
// size on the first restore is not trimmed again).
func FuzzRestore(f *testing.F) {
	v2 := string(snapshotBytes(f, mixedServer(f, len(mixedTenantConfigs))))
	lines := strings.SplitAfter(v2, "\n")
	v1 := strings.Replace(string(snapshotBytes(f, mixedServer(f, 1))), `"version":2`, `"version":1`, 1)
	if !v1Decisions.MatchString(v1) {
		f.Fatalf("no decision vectors to rewrite: %s", v1)
	}
	v1 = v1Decisions.ReplaceAllString(v1, `"CurrentCores":$1,"TargetCores":$2`)
	var multi string
	for _, line := range lines {
		if strings.Contains(line, `"replicas"`) {
			multi = `{"format":"caasper-serve","version":2,"tenants":1}` + "\n" + line
		}
	}
	for _, seed := range []struct{ data, err string }{
		{v1, ""},
		{v2, ""},
		{multi, ""},
		{v2[:len(v2)/2], "tenant line"}, // truncated mid-line
		{lines[0] + "{\"id\":\x00garbage\n", "tenant line 1"}, // garbage
		{strings.Replace(v2, `"tenants":5`, `"tenants":6`, 1) + lines[1], "duplicate tenant"},
		{strings.Replace(v2, `{"seq":2,`, `{"seq":1,`, 1), "tenant line 1: decision log seq 1 after 1"}, // forked cursor stream
	} {
		s, err := New(Options{})
		if err != nil {
			f.Fatal(err)
		}
		err = s.Restore(strings.NewReader(seed.data))
		s.Close()
		if (err == nil) != (seed.err == "") || err != nil && !strings.Contains(err.Error(), seed.err) {
			f.Fatalf("seed restores with error %v, want %q:\n%s", err, seed.err, seed.data)
		}
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
