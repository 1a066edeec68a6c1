package ledger

import (
	"testing"

	"mixtlb/internal/simrand"
)

// BenchmarkTailOffer times one translation through an armed ledger:
// Begin, a probe, a walk of four merged PTE charges and End, which offers
// the access to the tail recorder (K = 8). Walk cycles are drawn up front
// from a fixed seed; once the recorder is full most offers lose to its
// minimum, as in a long cell.
func BenchmarkTailOffer(b *testing.B) {
	l := New(8)
	rng := simrand.New(1)
	walks := make([]uint64, 4096)
	for i := range walks {
		walks[i] = rng.Uint64n(400)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := walks[i%len(walks)]
		l.Begin()
		l.Step(L1Probe, 0, 1)
		for r := 0; r < 4; r++ {
			l.Step(WalkFull, -1, w)
		}
		l.End(Access{VA: uint64(i) << 12, HitLevel: -1, WalkRefs: 4})
	}
}
