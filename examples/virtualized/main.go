// Virtualized translation: demonstrate two-dimensional page walks, page
// splintering under host pressure, and why MIX TLBs help most where TLB
// misses are most expensive (24 memory references per nested walk).
package main

import (
	"fmt"
	"log"

	"mixtlb/internal/addr"
	"mixtlb/internal/cachesim"
	"mixtlb/internal/mmu"
	"mixtlb/internal/osmm"
	"mixtlb/internal/simrand"
	"mixtlb/internal/tlb"
	"mixtlb/internal/virt"
	"mixtlb/internal/workload"
)

func main() {
	// A 4GB host consolidating two 1.5GB guests, each running THS.
	host := virt.NewMachine(4<<30, simrand.New(1))
	var vms []*virt.VM
	var bases []addr.V
	const guestFP = 768 << 20
	for i := 0; i < 2; i++ {
		vm, err := host.AddVM(3<<29, osmm.Config{Policy: osmm.THS}, simrand.New(uint64(2+i)))
		if err != nil {
			log.Fatal(err)
		}
		base, err := vm.GuestAS().Mmap(guestFP)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := vm.Populate(base, guestFP); err != nil {
			log.Fatal(err)
		}
		vms = append(vms, vm)
		bases = append(bases, base)
	}

	// Anatomy of one nested walk.
	res := vms[0].Walker().Walk(bases[0])
	fmt.Printf("nested walk of %v: %d memory references, effective page size %v\n",
		bases[0], len(res.Accesses), res.Translation.Size)
	two, four := vms[0].BackingCounts()
	fmt.Printf("host backings for VM 0: %d x 2MB, %d x 4KB (splintered)\n\n", two, four)

	// Run a graph workload inside VM 0 under both TLB designs.
	for _, d := range []string{mmu.DesignSplit, mmu.DesignMix} {
		m, err := mmu.DefaultRegistry().Build(d, vms[0].Walker(), nil, cachesim.DefaultHierarchy(), vms[0].HandleFault)
		if err != nil {
			log.Fatal(err)
		}
		spec, err := workload.ByName("graph500")
		if err != nil {
			log.Fatal(err)
		}
		stream := spec.Build(bases[0], guestFP, simrand.New(7))
		for i := 0; i < 150_000; i++ {
			ref := stream.Next()
			m.Translate(tlb.Request{VA: ref.VA, Write: ref.Write, PC: ref.PC})
		}
		m.ResetStats()
		for i := 0; i < 300_000; i++ {
			ref := stream.Next()
			m.Translate(tlb.Request{VA: ref.VA, Write: ref.Write, PC: ref.PC})
		}
		st := m.Stats()
		fmt.Printf("%-6s  %s  walk-cycles=%d\n", d, st.String(), st.WalkCycles)
	}
	fmt.Println("\nEvery avoided miss saves a two-dimensional walk, so coalesced")
	fmt.Println("superpage reach pays off far more than it does natively.")
}
