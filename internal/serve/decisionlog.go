package serve

import (
	"fmt"
	"slices"
	"sort"
)

// decisionLog is a tenant's bounded decision history: the newest records
// up to the server's DecisionLogSize, kept as a fixed-capacity ring. The
// log grows by doubling until it holds size records, never past it; from
// then on each add overwrites the oldest record in place. Record Seq
// values strictly increase from the oldest record to the newest, which
// makes a since= cursor a binary search.
//
// In logical order (oldest first) record i sits at recs[(head+i)%len].
// head stays 0 until the ring is full. The caller holds the tenant lock.
type decisionLog struct {
	recs []DecisionRecord
	head int
}

// at returns the i-th record in logical order.
func (l *decisionLog) at(i int) *DecisionRecord {
	i += l.head
	if i >= len(l.recs) {
		i -= len(l.recs)
	}
	return &l.recs[i]
}

// add appends r, overwriting the oldest record once the log holds size.
func (l *decisionLog) add(r DecisionRecord, size int) {
	n := len(l.recs)
	if n == size {
		l.recs[l.head] = r
		l.head++
		if l.head == n {
			l.head = 0
		}
		return
	}
	if n == cap(l.recs) {
		grown := make([]DecisionRecord, n, min(max(2*n, 1), size))
		copy(grown, l.recs)
		l.recs = grown
	}
	l.recs = append(l.recs, r)
}

// since returns a copy of the records with Seq > seq, oldest first.
func (l *decisionLog) since(seq int64) []DecisionRecord {
	n := len(l.recs)
	lo := sort.Search(n, func(i int) bool { return l.at(i).Seq > seq })
	if lo == n {
		return nil
	}
	out := make([]DecisionRecord, 0, n-lo)
	p := l.head + lo
	if p >= n {
		return append(out, l.recs[p-n:l.head]...)
	}
	out = append(out, l.recs[p:]...)
	return append(out, l.recs[:l.head]...)
}

// oldestFirst rotates the ring in place so that the oldest record comes
// first and returns the records in that order. It allocates nothing; the
// returned slice aliases the log until the next add.
func (l *decisionLog) oldestFirst() []DecisionRecord {
	if l.head != 0 {
		slices.Reverse(l.recs[:l.head])
		slices.Reverse(l.recs[l.head:])
		slices.Reverse(l.recs)
		l.head = 0
	}
	return l.recs
}

// restore replaces the log with recs (oldest first), keeping the newest
// size of them. A log longer than size, or one decoded with spare
// capacity beyond it, is copied into an exact-size backing array.
func (l *decisionLog) restore(recs []DecisionRecord, size int) {
	if cap(recs) > size {
		keep := recs[max(len(recs)-size, 0):]
		recs = make([]DecisionRecord, len(keep))
		copy(recs, keep)
	}
	l.recs, l.head = recs, 0
}

// checkDecisionLog validates a checkpointed log against the tenant's
// decision counter: Seq values start at 1 or later, strictly increase,
// and the newest is no later than seq. A log that breaks any of these
// would fork the cursor stream a since= client resumes from.
func checkDecisionLog(recs []DecisionRecord, seq int64) error {
	prev := int64(0)
	for i := range recs {
		if recs[i].Seq <= prev {
			if i == 0 {
				return fmt.Errorf("decision log seq %d < 1", recs[i].Seq)
			}
			return fmt.Errorf("decision log seq %d after %d does not increase", recs[i].Seq, prev)
		}
		prev = recs[i].Seq
	}
	if prev > seq {
		return fmt.Errorf("decision log ends at seq %d past the tenant's seq %d", prev, seq)
	}
	return nil
}
