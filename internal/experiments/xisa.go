package experiments

import (
	"context"

	"mixtlb/internal/mmu"
	"mixtlb/internal/osmm"
	"mixtlb/internal/stats"
)

// xisaISAs is the descriptor sweep of the cross-ISA study: the x86-64
// baseline, its 5-level LA57 extension, RISC-V Sv48 with the SVNAPOT
// 16-page range encoding, and an ARM64-style contiguous-hint descriptor.
// All four share the 4KB/2MB/1GB ladder, so differences isolate radix
// depth (walk length) and hardware contiguity encodings (coalescing
// feed), not page-size geometry.
var xisaISAs = []string{"x86-64", "x86-64-la57", "sv48-napot", "arm64-contig"}

// xisaDesigns are the headline designs the sweep compares: the split
// baseline with and without paging-structure caches, MIX with and without
// small-page COLT coalescing, the drop-in MIX-as-L2 upgrade, and the
// cache-backed victim hierarchy.
var xisaDesigns = []string{
	mmu.DesignSplit,
	mmu.DesignSplitPWC,
	mmu.DesignMix,
	mmu.DesignMixColt,
	mmu.DesignMixAsL2,
	mmu.DesignVictima,
}

// CrossISAStudy runs the headline designs across translation
// architectures: for each (ISA, workload) cell, the OS environment is
// rebuilt on a page table implementing that descriptor (deeper radixes
// walk more levels; NAPOT/contiguous-hint leaves extend the walker's
// line to the whole 16-page block) and every design measures the same
// reference stream. Reported per row: L1 hit rate, walk frequency,
// per-walk PTE references (where LA57's fifth level and the PWC's skips
// show up), the fraction of walks served from a contiguity-encoded leaf,
// and cycles per access. One cell per (ISA, workload).
func CrossISAStudy(ctx context.Context, s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title: "Cross-ISA study: headline designs over descriptor radix depth and contiguity encodings",
		Columns: []string{"isa", "design", "workload", "l1-hit%",
			"walks-per-1k", "refs-per-walk", "contig-walk%", "cyc/acc"},
	}
	specs, err := s.specs(xisaDesigns...)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	for _, isaName := range xisaISAs {
		for _, spec := range s.workloads() {
			cells = append(cells, Cell{
				Name: isaName + "/" + spec.Name,
				Run: func(ctx context.Context, cs Scale) ([]Row, error) {
					cs.ISA = isaName // the whole cell lives on this descriptor
					env, err := newNative(cs, osmm.THS, hierarchyMemhogFrac)
					if err != nil {
						return nil, err
					}
					built := env.stream(cs, spec)
					var rows []Row
					for _, ds := range specs {
						st, _, _, err := env.measure(ctx, cs, spec, built, ds, "isa", isaName)
						if err != nil {
							return nil, err
						}
						rows = append(rows, Row{isaName, ds.Name, spec.Name,
							per(100, st.L1Hits, st.Accesses),
							per(1000, st.Walks, st.Accesses),
							per(1, st.WalkRefs, st.Walks),
							per(100, st.ContigWalks, st.Walks),
							st.CyclesPerAccess()})
					}
					return rows, nil
				},
			})
		}
	}
	results, err := RunGrid(ctx, s, "xisa", cells)
	AppendRows(t, results)
	return t, err
}
