package pagetable

import (
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/isa"
	"mixtlb/internal/physmem"
	"mixtlb/internal/simrand"
)

// BenchmarkWalkInto times one walk at a random mapped VA. Each ISA
// descriptor's sub-benchmark walks a table holding 64 MiB of physically
// contiguous 4KB pages (whole contiguity blocks on descriptors that
// encode them) and 64 MiB of 2MB pages at 4096 VAs; those PTE lines fit
// in a host L2. x86-64-2GiB walks 2 GiB of 4KB pages (1024 leaf tables,
// the mixbench walk-storm footprint) at 256 Ki VAs, so the lines it
// reads spread over every leaf table and spill out of the host's caches.
func BenchmarkWalkInto(b *testing.B) {
	for _, name := range isa.Names() {
		b.Run(name, func(b *testing.B) { benchWalkInto(b, name, 64<<20, 64<<20, 4096) })
	}
	b.Run(isa.DefaultName+"-2GiB", func(b *testing.B) { benchWalkInto(b, isa.DefaultName, 2<<30, 0, 1<<18) })
}

// benchWalkInto maps region4K bytes of 4KB pages and, above them,
// region2M bytes of 2MB pages, then times walks at nVAs seeded VAs.
func benchWalkInto(b *testing.B, name string, region4K, region2M uint64, nVAs int) {
	const (
		base4K = addr.V(1 << 30)
		paBase = addr.P(1 << 32)
	)
	d, err := isa.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	pt, err := NewISA(physmem.NewBuddy(64<<20), d)
	if err != nil {
		b.Fatal(err)
	}
	for off := uint64(0); off < region4K; off += addr.Size4K {
		if err := pt.Map(base4K+addr.V(off), paBase+addr.P(off), addr.Page4K, addr.PermRW); err != nil {
			b.Fatal(err)
		}
	}
	for off := uint64(0); off < region2M; off += addr.Size2M {
		if err := pt.Map(base4K+addr.V(region4K+off), paBase+addr.P(region4K+off), addr.Page2M, addr.PermRW); err != nil {
			b.Fatal(err)
		}
	}
	rng := simrand.New(1)
	vas := make([]addr.V, nVAs)
	for i := range vas {
		vas[i] = base4K + addr.V(rng.Uint64n(region4K+region2M))
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
}
