package bench

import (
	"reflect"
	"sort"
	"testing"

	"caasper"
)

// stateSnapshotter's methods are the only ones the wrapper may lack (see
// wrap.go): their State type is outside the public API.
var unmirrored = map[string]bool{"SnapshotState": true, "RestoreState": true}

func methodNames(v any) []string {
	t := reflect.TypeOf(v)
	var names []string
	for i := 0; i < t.NumMethod(); i++ {
		if n := t.Method(i).Name; !unmirrored[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// TestWrapperMirrorsCapabilities checks, for every named policy, that
// the timing wrapper has exactly the optional interfaces — indeed exactly
// the methods — of the recommender it wraps, and decides identically.
func TestWrapperMirrorsCapabilities(t *testing.T) {
	for _, name := range caasper.RecommenderNames() {
		build := func() caasper.Recommender {
			rec, err := caasper.NewRecommenderByName(name, caasper.RecommenderSettings{MaxCores: 8})
			if err != nil {
				t.Fatal(err)
			}
			return rec
		}
		inner, plain := build(), build()
		w, err := wrapRecommender(inner, newRecSpans(NewTracer()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, c := range []struct {
			iface string
			has   func(any) bool
		}{
			{"RunObserver", func(v any) bool { _, ok := v.(runObserver); return ok }},
			{"SteadyObserver", func(v any) bool { _, ok := v.(steadyObserver); return ok }},
			{"Explainer", func(v any) bool { _, ok := v.(explainer); return ok }},
			{"Instrumentable", func(v any) bool { _, ok := v.(instrumentable); return ok }},
			{"DecisionReporter", func(v any) bool { _, ok := v.(decisionReporter); return ok }},
		} {
			if c.has(inner) != c.has(w) {
				t.Errorf("%s: inner %s=%v, wrapped %v", name, c.iface, c.has(inner), c.has(w))
			}
		}
		if got, want := methodNames(w), methodNames(inner); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: wrapper methods %v, inner %v", name, got, want)
		}
		cores := 2
		for m := 0; m < 600; m++ {
			u := 1 + float64(m%90)/30
			w.Observe(m, u)
			plain.Observe(m, u)
			if m%10 == 9 {
				a, b := w.Recommend(cores), plain.Recommend(cores)
				if a != b {
					t.Fatalf("%s minute %d: wrapped recommends %d, plain %d", name, m, a, b)
				}
				cores = a
			}
		}
	}
}
