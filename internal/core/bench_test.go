package core

import (
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/pagetable"
	"mixtlb/internal/simrand"
	"mixtlb/internal/tlb"
)

// Micro-benchmarks of the MIX TLB's hot paths. Run with:
//
//	go test -run '^$' -bench Mix -benchmem ./internal/core

// benchLine is one PTE cache line of eight contiguous 2MB pages.
func benchLine() []pagetable.Translation {
	trs := make([]pagetable.Translation, 8)
	for i := range trs {
		trs[i] = tr(uint64(16+i), uint64(100+i), addr.Page2M)
	}
	return trs
}

// BenchmarkMixLookupHit measures the simulator's raw lookup cost on a
// resident superpage bundle.
func BenchmarkMixLookupHit(b *testing.B) {
	m := mustNew(L1Config())
	trs := benchLine()
	fill(m, walkOf(trs...))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := trs[i%8].VA + addr.V((i*addr.Size4K)&(addr.Size2M-1))
		if r := look(m, va); !r.Hit {
			b.Fatal("unexpected miss")
		}
	}
}

// BenchmarkMixFill measures the cost of a coalescing mirrored fill that
// merges into the resident copy of its bundle in every set.
func BenchmarkMixFill(b *testing.B) {
	m := mustNew(L1Config())
	walk := walkOf(benchLine()...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill(m, walk)
	}
}

// warmFillWalks draws n seeded 2MB walks over windows distinct windows of
// cfg's coalescing capacity. Each walk demands one page and carries its
// aligned 8-page PTE line with a random accessed bit per neighbour, so
// bundles have holes and grow by merging, as in a THS workload.
func warmFillWalks(cfg Config, windows, n int, rng *simrand.Source) []pagetable.WalkResult {
	k := uint64(cfg.Coalesce)
	walks := make([]pagetable.WalkResult, n)
	for i := range walks {
		svn := (1+rng.Uint64n(uint64(windows)))*k + rng.Uint64n(k)
		line := []pagetable.Translation{tr(svn, svn+1<<20, addr.Page2M)}
		for s := svn &^ 7; s < svn&^7+8; s++ {
			if s != svn {
				nb := tr(s, s+1<<20, addr.Page2M)
				nb.Accessed = rng.Bool(0.8)
				nb.Dirty = rng.Bool(0.5)
				line = append(line, nb)
			}
		}
		walks[i] = walkOf(line...)
	}
	return walks
}

// BenchmarkMixFillWarmL2 measures mirrored 2MB fills into a full L2 MIX
// TLB: every way is valid, and the fills spread over more windows than a
// set has ways, so in most sets the mirror write either merges into a
// resident copy or is skipped for want of a free way — the steady state
// of a superpage-heavy workload.
func BenchmarkMixFillWarmL2(b *testing.B) {
	for _, cfg := range []Config{L2Config(), L2RangeConfig()} {
		b.Run(cfg.Name, func(b *testing.B) {
			m := mustNew(cfg)
			walks := warmFillWalks(cfg, 4*cfg.Ways, 4096, simrand.New(7))
			probe := func(i int) tlb.Request {
				w := walks[i%len(walks)]
				return tlb.Request{VA: w.Translation.VA + addr.V(uint64(i)*addr.Size4K%addr.Size2M)}
			}
			for i := range walks {
				m.Fill(probe(i), walks[i])
			}
			for si, n := range m.OccupancyBySet() {
				if n != cfg.Ways {
					b.Fatalf("set %d holds %d valid ways after warm-up, want %d", si, n, cfg.Ways)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Fill(probe(i), walks[i%len(walks)])
			}
		})
	}
}
