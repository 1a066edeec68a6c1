package experiments

import (
	"context"

	"mixtlb/internal/mmu"
	"mixtlb/internal/osmm"
	"mixtlb/internal/stats"
)

// defaultHierarchyDesigns is the design set HierarchyStudy compares when
// Scale.Designs is empty: the commercial baseline, the same baseline with
// paging-structure caches on the walker, full MIX, and the drop-in
// MIX-as-L2 upgrade. Together they separate "better TLB" gains from
// "cheaper walk" gains.
var defaultHierarchyDesigns = []string{
	mmu.DesignSplit,
	mmu.DesignSplitPWC,
	mmu.DesignMix,
	mmu.DesignMixAsL2,
}

// hierarchyMemhogFrac is the background fragmentation the study runs
// under. A pristine THS environment maps the whole footprint with 2MB
// pages that fit in every L2, so no design ever walks and the walk/PWC
// columns degenerate to zero; heavy memhog load forces the mixed
// 2MB/4KB regime (Fig 9's middle band) where both TLB reach and walk
// cost are live.
const hierarchyMemhogFrac = 0.7

// HierarchyStudy compares translation-hierarchy designs drawn from the
// registry — including designs loaded from a -design-file — on the
// scale's workloads. Every design of a cell runs over the same fragmented
// environment and the same reference stream, so rows differ only by
// design. Reported per (design, workload): per-level hit rates, walk
// traffic (frequency and per-walk PTE references after any
// paging-structure-cache skips), the fraction of walk references the PWC
// removed, and translation cycles per access. One cell per workload.
func HierarchyStudy(ctx context.Context, s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title: "Translation hierarchy comparison: registry designs, per-level hits and walk traffic",
		Columns: []string{"design", "workload", "l1-hit%", "l2-hit%",
			"walks-per-1k", "refs-per-walk", "pwc-skip%", "cyc/acc"},
	}
	designs := s.Designs
	if len(designs) == 0 {
		designs = defaultHierarchyDesigns
	}
	specs, err := s.specs(designs...)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	for _, spec := range s.workloads() {
		cells = append(cells, Cell{
			Name: spec.Name,
			Run: func(ctx context.Context, cs Scale) ([]Row, error) {
				env, err := newNative(cs, osmm.THS, hierarchyMemhogFrac)
				if err != nil {
					return nil, err
				}
				built := env.stream(cs, spec)
				var rows []Row
				for _, ds := range specs {
					st, _, _, err := env.measure(ctx, cs, spec, built, ds)
					if err != nil {
						return nil, err
					}
					rows = append(rows, Row{ds.Name, spec.Name,
						per(100, st.L1Hits, st.Accesses),
						per(100, st.L2Hits, st.Accesses),
						per(1000, st.Walks, st.Accesses),
						per(1, st.WalkRefs, st.Walks),
						per(100, st.PWCSkippedRefs, st.WalkRefs+st.PWCSkippedRefs),
						st.CyclesPerAccess()})
				}
				return rows, nil
			},
		})
	}
	results, err := RunGrid(ctx, s, "hierarchy", cells)
	AppendRows(t, results)
	return t, err
}
