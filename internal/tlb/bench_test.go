package tlb

import (
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/pagetable"
	"mixtlb/internal/simrand"
)

// Micro-benchmarks of every non-MIX TLB kind's probe and fill, over the
// digest test's page universe. Run with:
//
//	go test -run '^$' -bench . -benchmem ./internal/tlb

var (
	sinkResult Result
	sinkCost   Cost
)

// benchWalks draws n seeded walks over streamUniverse at generation 0.
func benchWalks(n int) []pagetable.WalkResult {
	rng := simrand.New(13)
	zero := func(addr.PageSize, uint64) uint64 { return 0 }
	walks := make([]pagetable.WalkResult, n)
	for i := range walks {
		walks[i] = streamWalk(pickStreamOp(rng), zero, true)
	}
	return walks
}

// benchFill feeds one walk to tl the way the MMU does: a demoter absorbs
// the translation, every other kind fills it.
func benchFill(tl TLB, walk *pagetable.WalkResult) {
	if dm, ok := tl.(Demoter); ok {
		dm.Demote(walk.Translation)
		return
	}
	sinkCost = tl.Fill(Request{VA: walk.Translation.VA}, *walk)
}

// BenchmarkLookup measures one probe of a warm TLB over a seeded stream
// of VAs drawn from the same pages that warmed it (hits and misses).
func BenchmarkLookup(b *testing.B) {
	pt := streamPageTable(b)
	walks := benchWalks(1 << 12)
	rng := simrand.New(17)
	reqs := make([]Request, 1<<12)
	for i := range reqs {
		op := pickStreamOp(rng)
		reqs[i] = Request{VA: op.va, PC: uint64(op.size) << 12}
	}
	for _, k := range streamKinds {
		b.Run(k.name, func(b *testing.B) {
			tl, err := k.build(pt)
			if err != nil {
				b.Fatal(err)
			}
			for i := range walks {
				benchFill(tl, &walks[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkResult = tl.Lookup(reqs[i&(len(reqs)-1)])
			}
		})
	}
}

// BenchmarkFill measures one fill of a warm TLB (for the victim level,
// one demotion), every set full so each fill replaces or merges.
func BenchmarkFill(b *testing.B) {
	pt := streamPageTable(b)
	walks := benchWalks(1 << 12)
	for _, k := range streamKinds {
		b.Run(k.name, func(b *testing.B) {
			tl, err := k.build(pt)
			if err != nil {
				b.Fatal(err)
			}
			for i := range walks {
				benchFill(tl, &walks[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchFill(tl, &walks[i&(len(walks)-1)])
			}
		})
	}
}
