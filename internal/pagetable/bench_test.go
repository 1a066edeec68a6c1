package pagetable

import (
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/isa"
	"mixtlb/internal/physmem"
	"mixtlb/internal/simrand"
)

// BenchmarkWalkInto times one walk at a random mapped VA, per ISA
// descriptor, over a table holding 64 MiB of physically contiguous 4KB
// pages (whole contiguity blocks on descriptors that encode them) and
// 64 MiB of 2MB pages.
func BenchmarkWalkInto(b *testing.B) {
	const (
		region = 64 << 20
		base4K = addr.V(1 << 30)
		base2M = base4K + region
		paBase = addr.P(1 << 32)
		nVAs   = 4096
	)
	for _, name := range isa.Names() {
		b.Run(name, func(b *testing.B) {
			d, err := isa.Lookup(name)
			if err != nil {
				b.Fatal(err)
			}
			pt, err := NewISA(physmem.NewBuddy(64<<20), d)
			if err != nil {
				b.Fatal(err)
			}
			for off := uint64(0); off < region; off += addr.Size4K {
				if err := pt.Map(base4K+addr.V(off), paBase+addr.P(off), addr.Page4K, addr.PermRW); err != nil {
					b.Fatal(err)
				}
			}
			for off := uint64(0); off < region; off += addr.Size2M {
				if err := pt.Map(base2M+addr.V(off), paBase+region+addr.P(off), addr.Page2M, addr.PermRW); err != nil {
					b.Fatal(err)
				}
			}
			rng := simrand.New(1)
			vas := make([]addr.V, nVAs)
			for i := range vas {
				vas[i] = base4K + addr.V(rng.Uint64n(2*region))
			}
			var res WalkResult
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pt.WalkInto(vas[i%nVAs], &res)
				if !res.Found {
					b.Fatalf("walk of mapped %v missed", vas[i%nVAs])
				}
			}
		})
	}
}
