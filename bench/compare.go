package bench

import "math"

// Verdicts of Compare.
const (
	VerdictOK         = "ok"
	VerdictRegressed  = "regressed"
	VerdictUnresolved = "unresolved"
	VerdictImproved   = "improved"
)

// Comparison is one (workload, metric) judgement between a parent's runs
// and a change's runs.
type Comparison struct {
	Old, New [3]float64 // first quartile, median, third quartile
	Wins     int        // pairs the change won (ties count for neither)
	Pairs    int
	Verdict  string
}

// Compare judges a metric from the parent's runs (old) and the change's
// (new), paired by index:
//
//   - improved: the change wins at least 9 of every 10 pairs and the
//     medians differ by more than the parent's interquartile range;
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - unresolved: either side's interquartile range, as a share of its
//     median, is wider than the bound — unless every run of the change
//     beats every run of the parent;
//   - ok otherwise.
func Compare(m Metric, old, new []float64) Comparison {
	var c Comparison
	c.Old[0], c.Old[1], c.Old[2] = Quartiles(old)
	c.New[0], c.New[1], c.New[2] = Quartiles(new)
	better := func(a, b float64) bool {
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	c.Pairs = min(len(old), len(new))
	for i := 0; i < c.Pairs; i++ {
		if better(new[i], old[i]) {
			c.Wins++
		}
	}
	oldMed, newMed := c.Old[1], c.New[1]
	switch {
	case c.Pairs > 0 && 10*c.Wins >= 9*c.Pairs && better(newMed, oldMed) &&
		math.Abs(newMed-oldMed) > c.Old[2]-c.Old[0]:
		c.Verdict = VerdictImproved
	case worseBy(m, oldMed, newMed) > m.Bound:
		c.Verdict = VerdictRegressed
	case (spread(c.Old) > m.Bound || spread(c.New) > m.Bound) && !allBetter(better, old, new):
		c.Verdict = VerdictUnresolved
	default:
		c.Verdict = VerdictOK
	}
	return c
}

// worseBy is how much worse new is than old, as a share of old.
func worseBy(m Metric, old, new float64) float64 {
	if old == 0 {
		return 0
	}
	d := (new - old) / math.Abs(old)
	if m.Better == "higher" {
		d = -d
	}
	return d
}

// spread is a side's interquartile range as a share of its median.
func spread(q [3]float64) float64 {
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

func allBetter(better func(a, b float64) bool, old, new []float64) bool {
	if len(old) == 0 || len(new) == 0 {
		return false
	}
	for _, n := range new {
		for _, o := range old {
			if !better(n, o) {
				return false
			}
		}
	}
	return true
}

// FailureVerdict rejects a change whose share of failed operations is
// higher than the parent's.
func FailureVerdict(oldFailed, oldAttempted, newFailed, newAttempted int64) string {
	if ratio(float64(newFailed), float64(newAttempted)) > ratio(float64(oldFailed), float64(oldAttempted)) {
		return VerdictRegressed
	}
	return VerdictOK
}
