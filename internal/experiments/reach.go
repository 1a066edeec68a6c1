package experiments

import (
	"context"
	"fmt"

	"mixtlb/internal/mmu"
	"mixtlb/internal/osmm"
	"mixtlb/internal/perfmodel"
	"mixtlb/internal/stats"
	"mixtlb/internal/tlb"
)

// defaultReachDesigns pits the two ways of buying translation reach
// against each other on fragmented environments: MIX coalesces many
// small pages into each SRAM entry, while the Victima-style designs
// spill evicted entries into cache-resident victim bundles. The split
// baseline anchors both; victima-lite shows capacity sensitivity.
var defaultReachDesigns = []string{
	mmu.DesignSplit,
	mmu.DesignMix,
	mmu.DesignVictima,
	mmu.DesignVictimaLite,
	mmu.DesignMixVictima,
}

// reachMemhogFracs are the fragmentation points of the study. 0.55 is
// the mixed 2MB/4KB regime where coalescing still finds contiguity;
// 0.85 is the mostly-4KB regime where SRAM reach collapses and only
// sheer capacity (victim bundles) keeps walks off the critical path.
var reachMemhogFracs = []float64{0.55, 0.85}

// ReachStudy compares SRAM reach (coalescing, MIX) against spilled
// reach (cache-backed victim levels, after Victima) under memhog
// fragmentation. Per (design, workload, memhog) it reports per-level
// hit rates including deep (victim) hits, walk frequency, the reach
// actually resident at each depth when the stream ends, demotion
// traffic, and the average cost of a deep hit next to the average cost
// of the walk it replaced — the victim level only pays off while
// deep-cyc stays below walk-cyc. One cell per (workload, memhog) pair.
func ReachStudy(ctx context.Context, s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title: "Reach study: coalesced SRAM reach (MIX) vs spilled cache reach (Victima)",
		Columns: []string{"design", "workload", "memhog", "l1-hit%", "l2-hit%",
			"deep-hit%", "walks-per-1k", "sram-reach-kb", "deep-reach-kb",
			"demote-per-1k", "deep-cyc", "walk-cyc", "cyc/acc"},
	}
	designs := s.Designs
	if len(designs) == 0 {
		designs = defaultReachDesigns
	}
	specs, err := s.specs(designs...)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	for _, spec := range s.workloads() {
		for _, frac := range reachMemhogFracs {
			cells = append(cells, Cell{
				Name: fmt.Sprintf("%s/hog%02.0f", spec.Name, 100*frac),
				Run: func(ctx context.Context, cs Scale) ([]Row, error) {
					env, err := newNative(cs, osmm.THS, frac)
					if err != nil {
						return nil, err
					}
					built := env.stream(cs, spec)
					var rows []Row
					for _, ds := range specs {
						m, _, err := env.build(ds)
						if err != nil {
							return nil, err
						}
						st, err := env.run(ctx, cs, m, spec.Name, built)
						if err != nil {
							return nil, err
						}
						sramKB, deepKB := reachSnapshot(m)
						rows = append(rows, Row{ds.Name, spec.Name, frac,
							per(100, st.L1Hits, st.Accesses),
							per(100, st.L2Hits, st.Accesses),
							per(100, st.DeepHits, st.Accesses),
							per(1000, st.Walks, st.Accesses),
							sramKB,
							deepKB,
							per(1000, st.Demotions, st.Accesses),
							perfmodel.AvgVictimProbeCycles(st),
							perfmodel.AvgWalkCycles(st),
							st.CyclesPerAccess()})
					}
					return rows, nil
				},
			})
		}
	}
	results, err := RunGrid(ctx, s, "reach", cells)
	AppendRows(t, results)
	return t, err
}

// reachSnapshot sums the end-of-stream resident reach (in KB) of the
// hierarchy's SRAM levels and of its cache-backed victim level, for
// levels that can report it. Levels are classified structurally: a
// level that absorbs demotions is the spilled one.
func reachSnapshot(m *mmu.MMU) (sramKB, deepKB float64) {
	for _, lv := range m.LevelTLBs() {
		rr, ok := lv.(tlb.ReachReporter)
		if !ok {
			continue
		}
		kb := float64(rr.ReachBytes()) / 1024
		if _, deep := lv.(tlb.Demoter); deep {
			deepKB += kb
		} else {
			sramKB += kb
		}
	}
	return sramKB, deepKB
}
