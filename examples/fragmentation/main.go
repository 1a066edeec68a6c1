// Fragmentation study: reproduce the paper's central characterization at
// example scale — as background load fragments physical memory, the OS
// page-size distribution moves through three regimes (superpages dominate,
// mixed, mostly small pages), superpage contiguity degrades, and the MIX
// TLB's advantage over split TLBs shifts but persists.
package main

import (
	"fmt"
	"log"

	"mixtlb/internal/addr"
	"mixtlb/internal/cachesim"
	"mixtlb/internal/mmu"
	"mixtlb/internal/osmm"
	"mixtlb/internal/physmem"
	"mixtlb/internal/simrand"
	"mixtlb/internal/tlb"
	"mixtlb/internal/workload"
)

func main() {
	fmt.Println("memhog%  superpage%  contig2MB  split cyc/acc  mix cyc/acc")
	for _, hogPct := range []int{0, 20, 40, 60, 80} {
		phys := physmem.NewBuddy(1 << 30)
		hog := physmem.NewMemhog(phys, simrand.New(uint64(7+hogPct)))
		if hogPct >= 50 { // heavy load pollutes movable pageblocks
			hog.UnmovableFrac = 0.25 + (float64(hogPct)/100-0.4)*1.75
			hog.UnmovableScatterFrac = 1
		}
		hog.Run(float64(hogPct) / 100)

		as, err := osmm.New(phys, osmm.Config{Policy: osmm.THS, Compactor: hog})
		if err != nil {
			log.Fatal(err)
		}
		// Take whatever memory the hog left.
		fp := addr.AlignedDown(phys.FreeFrames()*addr.Size4K*9/10, addr.Size2M)
		base, err := as.Mmap(fp)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := as.Populate(base, fp); err != nil {
			log.Fatal(err)
		}
		rep := osmm.ScanContiguity(as.PageTable())

		measure := func(d string) float64 {
			m, err := mmu.DefaultRegistry().Build(d, as.PageTable(), as.PageTable(),
				cachesim.DefaultHierarchy(), as.HandleFault)
			if err != nil {
				log.Fatal(err)
			}
			stream := workload.NewZipf(base, fp, simrand.New(3), 0.9, 0.1, 0xfeed)
			for i := 0; i < 100_000; i++ {
				ref := stream.Next()
				m.Translate(tlb.Request{VA: ref.VA, Write: ref.Write, PC: ref.PC})
			}
			m.ResetStats()
			for i := 0; i < 200_000; i++ {
				ref := stream.Next()
				m.Translate(tlb.Request{VA: ref.VA, Write: ref.Write, PC: ref.PC})
			}
			return m.Stats().CyclesPerAccess()
		}

		fmt.Printf("%6d   %9.0f%%  %9.1f  %13.2f  %11.2f\n",
			hogPct, 100*rep.SuperpageFraction(), rep.AverageContiguity(addr.Page2M),
			measure(mmu.DesignSplit), measure(mmu.DesignMix))
	}
}
