package recommend

import (
	"errors"
	"math"
	"testing"

	"caasper/internal/errs"
)

// byNameFuzzNames are the names FuzzNewByName picks from: every policy
// and the reactive policy's alias.
var byNameFuzzNames = append(Names(), "caasper-reactive")

// fuzzUsage maps one byte to a usage sample: mostly a level from 0 to
// 1.5·maxCores, so streams run both under and over the ladder, and now
// and then a sample line 2 drops (NaN, +Inf, negative).
func fuzzUsage(b byte, maxCores int) float64 {
	switch b % 16 {
	case 13:
		return -1
	case 14:
		return math.Inf(1)
	case 15:
		return math.NaN()
	}
	return float64(b) / 255 * 1.5 * float64(maxCores)
}

// FuzzNewByName holds the one constructor behind every surface to its
// contract over name × Settings × a short usage stream. Construction
// either fails with ErrInvalidConfig and a nil Recommender, or the
// recommender, fed the stream and asked for a target every 10 samples
// and at its end, starting from an allocation on the ladder and fed back
// its own targets, always recommends within [1, MaxCores]. The seeds
// under testdata/fuzz/FuzzNewByName cover every policy at MaxCores 1, 2,
// 8 and CoresLimit ± 1, windows, horizons and seasons at −1, 0 and
// SamplesLimit ± 1, the control allocation at −1, 0, MaxCores and
// MaxCores + 1, and streams holding dropped samples.
func FuzzNewByName(f *testing.F) {
	f.Fuzz(func(t *testing.T, name uint8, maxCores int16, window, horizon, season int32, control int16, cur uint8, usage []byte) {
		s := Settings{
			MaxCores:     int(maxCores),
			Window:       int(window),
			Horizon:      int(horizon),
			Season:       int(season),
			ControlCores: int(control),
		}
		n := byNameFuzzNames[int(name)%len(byNameFuzzNames)]
		rec, err := NewByName(n, s)
		if err != nil {
			if !errors.Is(err, errs.ErrInvalidConfig) || rec != nil {
				t.Fatalf("NewByName(%q, %+v) = (%v, %v), want (nil, ErrInvalidConfig)", n, s, rec, err)
			}
			return
		}
		if rec == nil {
			t.Fatalf("NewByName(%q, %+v): no error and no recommender", n, s)
		}
		cores := 1 + int(cur)%s.MaxCores
		recommend := func(at int) {
			got := rec.Recommend(cores)
			if got < 1 || got > s.MaxCores {
				t.Fatalf("NewByName(%q, %+v) after %d samples at %d cores: recommends %d, outside [1, %d]",
					n, s, at, cores, got, s.MaxCores)
			}
			cores = got
		}
		for i, b := range usage {
			rec.Observe(i, fuzzUsage(b, s.MaxCores))
			if (i+1)%10 == 0 {
				recommend(i + 1)
			}
		}
		recommend(len(usage))
	})
}
