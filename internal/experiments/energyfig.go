package experiments

import (
	"context"
	"fmt"

	"mixtlb/internal/energy"
	"mixtlb/internal/gpu"
	"mixtlb/internal/mmu"
	"mixtlb/internal/osmm"
	"mixtlb/internal/perfmodel"
	"mixtlb/internal/stats"
	"mixtlb/internal/workload"
)

// designEnergyConfig maps a design to its energy-model description.
func designEnergyConfig(d string) energy.Config {
	switch d {
	case mmu.DesignSkew:
		return energy.Config{L1Entries: 96, L2Entries: 384, Timestamps: true}
	case mmu.DesignMix, mmu.DesignMixColt:
		return energy.Config{L1Entries: 96, L2Entries: 512}
	case mmu.DesignRehash:
		return energy.Config{L1Entries: 96, L2Entries: 512}
	default: // split, colt variants
		return energy.Config{L1Entries: 100, L2Entries: 544}
	}
}

// figure16Designs are the multi-indexing competitors MIX is compared to.
var figure16Designs = []string{mmu.DesignSkew, mmu.DesignRehash, mmu.DesignMix}

// Figure16 regenerates the performance-energy scatter (Fig 16): for each
// workload and multi-indexing design (skew-associative + predictor,
// hash-rehash + predictor) and for MIX, the % performance improvement and
// % address-translation energy saved, both relative to split TLBs. One
// cell per (system, workload); the split baseline and the three designs
// run inside the cell so every point shares one environment.
func Figure16(ctx context.Context, s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Figure 16: performance vs energy, relative to split",
		Columns: []string{"design", "system", "workload", "perf-improvement-%", "energy-savings-%"},
	}
	specs, err := s.specs(append([]string{mmu.DesignSplit}, figure16Designs...)...)
	if err != nil {
		return nil, err
	}
	// compare measures the split baseline and then every design in the
	// environment. Native runs charge energy to their cache hierarchy;
	// virtualized runs leave caches out of the energy model.
	compare := func(ctx context.Context, cs Scale, env *runEnv, spec workload.Spec, system string, withCaches bool) ([]Row, error) {
		model := energy.Default()
		built := env.stream(cs, spec)
		energyOf := func(ds mmu.DesignSpec) (perfmodel.Estimate, float64, error) {
			st, est, caches, err := env.measure(ctx, cs, spec, built, ds)
			if err != nil {
				return est, 0, err
			}
			if !withCaches {
				caches = nil
			}
			return est, model.TotalWithRuntime(st, caches, designEnergyConfig(ds.Name), est.TotalCycles), nil
		}
		baseEst, baseE, err := energyOf(specs[0])
		if err != nil {
			return nil, err
		}
		var rows []Row
		for _, ds := range specs[1:] {
			est, e, err := energyOf(ds)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Row{ds.Name, system, spec.Name,
				perfmodel.ImprovementPercent(baseEst, est), energy.SavingsPercent(baseE, e)})
		}
		return rows, nil
	}
	var cells []Cell
	for _, spec := range s.workloads() {
		cells = append(cells, Cell{
			Name: "native/" + spec.Name,
			Run: func(ctx context.Context, cs Scale) ([]Row, error) {
				env, err := newNative(cs, osmm.THS, 0.2)
				if err != nil {
					return nil, err
				}
				return compare(ctx, cs, &env.runEnv, spec, "native", true)
			},
		})
	}
	// Virtualized points.
	for _, spec := range s.workloads() {
		cells = append(cells, Cell{
			Name: "virt/" + spec.Name,
			Run: func(ctx context.Context, cs Scale) ([]Row, error) {
				env, err := newVirt(cs, 2, 0.2)
				if err != nil {
					return nil, err
				}
				return compare(ctx, cs, &env.runEnv, spec, "virtual", false)
			},
		})
	}
	results, err := RunGrid(ctx, s, "fig16", cells)
	AppendRows(t, results)
	return t, err
}

// Figure17 regenerates the dynamic-energy breakdown (Fig 17): the share
// of address-translation dynamic energy spent on lookups, page-table
// walks, fills, and other operations, for GPU TLB designs, normalized to
// the split design's total. One cell per kernel — normalization needs the
// split total, so a kernel's four design runs stay together.
func Figure17(ctx context.Context, s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Figure 17: dynamic energy breakdown (GPU), normalized to split total",
		Columns: []string{"design", "kernel", "lookup", "walk", "fill", "other", "total"},
	}
	kernels := gpu.Kernels()
	if len(kernels) > 3 {
		kernels = kernels[:3]
	}
	var cells []Cell
	for _, k := range kernels {
		cells = append(cells, Cell{
			Name: k.Name,
			Run: func(ctx context.Context, cs Scale) ([]Row, error) {
				model := energy.Default()
				sub := cs
				sub.FootprintBytes = cs.FootprintBytes * 3 / 10
				env, err := newNative(sub, osmm.THS, 0.2)
				if err != nil {
					return nil, err
				}
				built := k.Streams(cs.GPUCores, env.base, env.fp, cs.Seed)
				run := func(d string) (energy.Breakdown, error) {
					st, caches, err := runGPU(ctx, cs, env, built, d)
					if err != nil {
						return energy.Breakdown{}, fmt.Errorf("fig17 %s %s: %w", k.Name, d, err)
					}
					cfg := designEnergyConfig(d)
					cfg.L1Entries *= cs.GPUCores // per-core L1s all burn energy
					return model.Dynamic(st, caches, cfg), nil
				}
				baseB, err := run(mmu.DesignSplit)
				if err != nil {
					return nil, err
				}
				norm := baseB.Total()
				if norm == 0 {
					norm = 1
				}
				var rows []Row
				for _, d := range []string{mmu.DesignSplit, mmu.DesignRehash, mmu.DesignSkew, mmu.DesignMix} {
					b, err := run(d)
					if err != nil {
						return nil, err
					}
					rows = append(rows, Row{d, k.Name, b.Lookup / norm, b.Walk / norm, b.Fill / norm, b.Other / norm, b.Total() / norm})
				}
				return rows, nil
			},
		})
	}
	results, err := RunGrid(ctx, s, "fig17", cells)
	AppendRows(t, results)
	return t, err
}

// figure18Designs are the coalescing variants compared against split.
var figure18Designs = []string{mmu.DesignColt, mmu.DesignColtPP, mmu.DesignMix, mmu.DesignMixColt}

// Figure18 regenerates the COLT comparison (Fig 18): average improvement
// over split for COLT (coalescing 4KB pages only), COLT++ (all split
// components coalescing), MIX, and MIX+COLT, for native and virtualized
// systems under two fragmentation levels. Cells run per
// (system, memhog, workload), each returning the four designs'
// improvements; the cross-workload average is post-processing.
func Figure18(ctx context.Context, s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Figure 18: COLT variants and MIX vs split (average improvement %)",
		Columns: []string{"system", "memhog%", "colt", "colt++", "mix", "mix+colt"},
	}
	// groups collects the cell index range to average into one table row.
	type group struct {
		system     string
		hogPct     int
		start, end int
	}
	var (
		cells  []Cell
		groups []group
	)
	specs, err := s.specs(append([]string{mmu.DesignSplit}, figure18Designs...)...)
	if err != nil {
		return nil, err
	}
	// row measures every design against the split baseline and appends
	// the improvements to head.
	row := func(ctx context.Context, cs Scale, env *runEnv, spec workload.Spec, head ...any) ([]Row, error) {
		imps, err := env.improvements(ctx, cs, spec, specs[0], specs[1:]...)
		if err != nil {
			return nil, err
		}
		for _, imp := range imps {
			head = append(head, imp)
		}
		return []Row{head}, nil
	}
	for _, hogPct := range []int{20, 60} {
		g := group{system: "native", hogPct: hogPct, start: len(cells)}
		for _, spec := range s.workloads() {
			cells = append(cells, Cell{
				Name: fmt.Sprintf("native/hog%d/%s", hogPct, spec.Name),
				Run: func(ctx context.Context, cs Scale) ([]Row, error) {
					env, err := newNative(cs, osmm.THS, float64(hogPct)/100)
					if err != nil {
						return nil, fmt.Errorf("fig18 memhog=%d%%: %w", hogPct, err)
					}
					return row(ctx, cs, &env.runEnv, spec, "native", hogPct)
				},
			})
		}
		g.end = len(cells)
		groups = append(groups, g)
	}
	// Virtualized: one consolidation point.
	{
		g := group{system: "virtual-2vm", hogPct: 20, start: len(cells)}
		for _, spec := range s.workloads() {
			cells = append(cells, Cell{
				Name: "virt-2vm/" + spec.Name,
				Run: func(ctx context.Context, cs Scale) ([]Row, error) {
					env, err := newVirt(cs, 2, 0.2)
					if err != nil {
						return nil, err
					}
					return row(ctx, cs, &env.runEnv, spec, "virtual-2vm", 20)
				},
			})
		}
		g.end = len(cells)
		groups = append(groups, g)
	}
	results, err := RunGrid(ctx, s, "fig18", cells)
	if err != nil {
		AppendRows(t, results)
		return t, err
	}
	for _, g := range groups {
		avgs := make([]float64, len(figure18Designs))
		n := 0
		for _, cell := range results[g.start:g.end] {
			if cell == nil { // filtered out by -cell
				continue
			}
			for i := range figure18Designs {
				avgs[i] += cell[0][2+i].(float64)
			}
			n++
		}
		if n == 0 {
			continue
		}
		row := Row{g.system, g.hogPct}
		for _, a := range avgs {
			row = append(row, a/float64(n))
		}
		t.AddRow(row...)
	}
	return t, nil
}
