package ledger

// MaxTailK bounds the tail flight recorder: the records live in one
// fixed allocation made at construction, never grown, so a runaway K
// cannot turn the recorder into a memory sink.
const MaxTailK = 64

// TailRecord is one of the K slowest translations a cell observed: where
// the request landed, how deep the walk went, how many oracle retries it
// ate, its total cycles, and the merged per-level charge trail.
type TailRecord struct {
	Access
	Cycles   uint64
	Seq      uint64 // access index within the measurement interval
	trail    [MaxTrail]Step
	trailLen int
}

// Trail returns the record's charge trail.
func (r *TailRecord) Trail() []Step { return r.trail[:r.trailLen] }

// Tail is a bounded top-K recorder of the slowest translations. Insertion
// is deterministic: a new access displaces the current minimum only when
// strictly slower, so ties keep the earliest access, independent of K's
// relation to the stream length.
type Tail struct {
	k       int
	n       int
	minIdx  int
	records [MaxTailK]TailRecord
}

func newTail(k int) *Tail {
	if k > MaxTailK {
		k = MaxTailK
	}
	return &Tail{k: k}
}

// K returns the recorder's capacity.
func (t *Tail) K() int { return t.k }

func (t *Tail) reset() {
	t.n = 0
	t.minIdx = 0
}

// refreshMin rescans for the slot holding the smallest cycle count,
// preferring the earliest sequence number on ties so displacement order
// is a pure function of the access stream.
func (t *Tail) refreshMin() {
	m := 0
	for i := 1; i < t.n; i++ {
		if t.records[i].Cycles < t.records[m].Cycles ||
			(t.records[i].Cycles == t.records[m].Cycles && t.records[i].Seq > t.records[m].Seq) {
			m = i
		}
	}
	t.minIdx = m
}

// offer records the just-ended access if it ranks among the K slowest.
func (t *Tail) offer(l *Ledger, a Access, seq uint64) {
	var slot int
	switch {
	case t.n < t.k:
		slot = t.n
		t.n++
	case l.cycles > t.records[t.minIdx].Cycles:
		slot = t.minIdx
	default:
		return
	}
	r := &t.records[slot]
	r.Access = a
	r.Cycles = l.cycles
	r.Seq = seq
	r.trail = l.trail
	r.trailLen = l.trailLen
	t.refreshMin()
}

// Top returns the recorded tail sorted slowest-first (ties by earliest
// access), as a fresh slice safe to retain. Nil-safe on an unarmed
// ledger.
func (l *Ledger) Top() []TailRecord {
	if l == nil || l.tail == nil || l.tail.n == 0 {
		return nil
	}
	t := l.tail
	out := make([]TailRecord, t.n)
	copy(out, t.records[:t.n])
	// Insertion sort: n <= MaxTailK and the data is nearly unordered
	// anyway; no need for sort.Slice's closure allocation.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := &out[j-1], &out[j]
			if a.Cycles > b.Cycles || (a.Cycles == b.Cycles && a.Seq < b.Seq) {
				break
			}
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}
