// GPU shared virtual memory: a CPU process's address space is used
// directly by GPU shader cores ("a pointer is a pointer everywhere");
// per-core TLBs service many concurrent threads. Compare TLB designs on
// an irregular graph kernel.
package main

import (
	"context"
	"fmt"
	"log"

	"mixtlb/internal/cachesim"
	"mixtlb/internal/gpu"
	"mixtlb/internal/mmu"
	"mixtlb/internal/osmm"
	"mixtlb/internal/physmem"
)

func main() {
	phys := physmem.NewBuddy(2 << 30)
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

	kernel, err := gpu.KernelByName("bfs")
	if err != nil {
		log.Fatal(err)
	}
	const cores = 8
	for _, d := range []string{mmu.DesignSplit, mmu.DesignMix, mmu.DesignRehash, mmu.DesignSkew} {
		sys, err := gpu.New(cores, d, as, cachesim.DefaultHierarchy())
		if err != nil {
			log.Fatal(err)
		}
		streams := kernel.Streams(cores, base, footprint, 0)
		if err := sys.Run(context.Background(), streams, 200_000); err != nil {
			log.Fatal(err)
		}
		sys.ResetStats()
		if err := sys.Run(context.Background(), streams, 400_000); err != nil {
			log.Fatal(err)
		}
		st := sys.Aggregate()
		fmt.Printf("%-12s %s\n", d, st.String())
	}
	fmt.Println("\nGPU TLBs absorb hundreds of threads' traffic; designs that use")
	fmt.Println("all their entries for the OS's actual page-size mix miss least.")
}
