// Quickstart: build a simulated machine, let the OS demand-page a workload
// with transparent hugepages, and compare a commercial split-TLB MMU with
// a MIX TLB MMU on the same reference stream.
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
	// A machine with 2GB of physical memory.
	phys := physmem.NewBuddy(2 << 30)

	// An OS address space with transparent hugepage support: faults get
	// 2MB pages while defragmented memory lasts.
	as, err := osmm.New(phys, osmm.Config{Policy: osmm.THS})
	if err != nil {
		log.Fatal(err)
	}
	const footprint = 1 << 30
	base, err := as.Mmap(footprint)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := as.Populate(base, footprint); err != nil {
		log.Fatal(err)
	}
	rep := osmm.ScanContiguity(as.PageTable())
	fmt.Printf("OS mapped %.0f%% of the footprint with superpages; average 2MB contiguity %.1f\n\n",
		100*rep.SuperpageFraction(), rep.AverageContiguity(addr.Page2M))

	// The same pointer-chasing workload drives both designs.
	run := func(design string) mmu.Stats {
		m, err := mmu.DefaultRegistry().Build(design, as.PageTable(), as.PageTable(),
			cachesim.DefaultHierarchy(), as.HandleFault)
		if err != nil {
			log.Fatal(err)
		}
		stream := workload.NewPointerChase(base, footprint, simrand.New(1), 0xc0de)
		for i := 0; i < 200_000; i++ {
			ref := stream.Next()
			if r := m.Translate(tlb.Request{VA: ref.VA, PC: ref.PC}); r.Faulted {
				log.Fatalf("unexpected fault at %v", ref.VA)
			}
		}
		m.ResetStats()
		for i := 0; i < 400_000; i++ {
			ref := stream.Next()
			m.Translate(tlb.Request{VA: ref.VA, PC: ref.PC})
		}
		return m.Stats()
	}

	for _, d := range []string{mmu.DesignSplit, mmu.DesignMix} {
		st := run(d)
		fmt.Printf("%-6s  %s\n", d, st.String())
	}
	fmt.Println("\nMIX uses every TLB entry for whatever page sizes the OS produced,")
	fmt.Println("while split TLBs strand capacity in per-size arrays.")
}
