package experiments

import (
	"context"
	"fmt"
	"sort"

	"mixtlb/internal/cachesim"
	"mixtlb/internal/gpu"
	"mixtlb/internal/mmu"
	"mixtlb/internal/osmm"
	"mixtlb/internal/perfmodel"
	"mixtlb/internal/stats"
	"mixtlb/internal/workload"
)

// figure1Workloads are the three applications of the paper's motivation
// figure.
var figure1Workloads = []string{"mcf", "graph500", "memcached"}

// figure1Policies are the fixed-page-size and mixed allocations compared.
var figure1Policies = []osmm.Policy{osmm.BasePages, osmm.Hugetlbfs2M, osmm.Hugetlbfs1G, osmm.THS}

// Figure1 regenerates the motivation figure: the percentage of runtime
// devoted to address translation on a commercial split-TLB hierarchy
// versus a hypothetical ideal TLB, across page-size policies (Fig 1).
// One grid cell per workload x policy; the paired split/ideal runs stay
// inside one cell so both measure the same environment.
func Figure1(ctx context.Context, s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Figure 1: % runtime in address translation, split vs ideal",
		Columns: []string{"workload", "policy", "split-%runtime", "ideal-%runtime"},
	}
	specs, err := s.specs(mmu.DesignSplit, mmu.DesignIdeal)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	for _, name := range figure1Workloads {
		for _, policy := range figure1Policies {
			cells = append(cells, Cell{
				Name: fmt.Sprintf("%s/%s", name, policy),
				Run: func(ctx context.Context, cs Scale) ([]Row, error) {
					spec, err := workload.ByName(name)
					if err != nil {
						return nil, err
					}
					env, err := newNative(cs, policy, 0)
					if err != nil {
						return nil, fmt.Errorf("fig1 %s/%v: %w", name, policy, err)
					}
					built := env.stream(cs, spec)
					_, splitEst, _, err := env.measure(ctx, cs, spec, built, specs[0])
					if err != nil {
						return nil, err
					}
					_, idealEst, _, err := env.measure(ctx, cs, spec, built, specs[1])
					if err != nil {
						return nil, err
					}
					return []Row{{name, policy.String(), splitEst.PctTranslation(), idealEst.PctTranslation()}}, nil
				},
			})
		}
	}
	results, err := RunGrid(ctx, s, "fig1", cells)
	AppendRows(t, results)
	return t, err
}

// runGPU runs a kernel on a fresh GPU of the given design over the
// cleaned environment, each core on a cursor over its stream in built:
// warmup, reset, measure. A cell builds the kernel's streams once
// (KernelSpec.Streams at the scale's core count) and never drives them.
// It returns the measured stats and the cache hierarchy they charged.
func runGPU(ctx context.Context, cs Scale, env *nativeEnv, built []workload.Stream, d string) (mmu.Stats, *cachesim.Hierarchy, error) {
	env.clean()
	caches := cachesim.DefaultHierarchy()
	sys, err := gpu.New(cs.GPUCores, d, env.as, caches)
	if err != nil {
		return mmu.Stats{}, nil, err
	}
	streams := make([]workload.Stream, len(built))
	for i, s := range built {
		streams[i] = workload.Fork(s)
	}
	if err := sys.Run(ctx, streams, cs.WarmupRefs); err != nil {
		return mmu.Stats{}, nil, err
	}
	sys.ResetStats()
	if err := sys.Run(ctx, streams, cs.MeasureRefs); err != nil {
		return mmu.Stats{}, nil, err
	}
	return sys.Aggregate(), caches, nil
}

// gpuImprovement measures MIX's improvement over split for one kernel.
func gpuImprovement(ctx context.Context, s Scale, hogFrac float64, k gpu.KernelSpec) (float64, error) {
	env, err := newNative(s, osmm.THS, hogFrac)
	if err != nil {
		return 0, err
	}
	// GPU throughput parameters: abundant memory parallelism hides some
	// latency; a fixed parameterization suffices for relative comparisons.
	model := perfmodel.Default(1.0, 0.5)
	built := k.Streams(s.GPUCores, env.base, env.fp, s.Seed)
	split, _, err := runGPU(ctx, s, env, built, mmu.DesignSplit)
	if err != nil {
		return 0, fmt.Errorf("gpu %s split: %w", k.Name, err)
	}
	mix, _, err := runGPU(ctx, s, env, built, mmu.DesignMix)
	if err != nil {
		return 0, fmt.Errorf("gpu %s mix: %w", k.Name, err)
	}
	return perfmodel.ImprovementPercent(model.Runtime(split), model.Runtime(mix)), nil
}

// improvements measures one workload in the environment on a baseline
// design and then on each design, returning each design's runtime
// improvement over the baseline.
func (e *runEnv) improvements(ctx context.Context, cs Scale, spec workload.Spec, base mmu.DesignSpec, designs ...mmu.DesignSpec) ([]float64, error) {
	built := e.stream(cs, spec)
	_, baseEst, _, err := e.measure(ctx, cs, spec, built, base)
	if err != nil {
		return nil, err
	}
	imps := make([]float64, len(designs))
	for i, ds := range designs {
		_, est, _, err := e.measure(ctx, cs, spec, built, ds)
		if err != nil {
			return nil, err
		}
		imps[i] = perfmodel.ImprovementPercent(baseEst, est)
	}
	return imps, nil
}

// Figure14 regenerates the headline comparison: % performance improvement
// of area-equivalent MIX TLBs over Haswell-style split TLBs across native
// page-size policies, virtualized systems, and GPUs (Fig 14). One cell
// per (config, workload) pair and per GPU kernel.
func Figure14(ctx context.Context, s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Figure 14: % performance improvement, MIX vs split",
		Columns: []string{"system", "config", "workload", "improvement-%"},
	}
	nativeConfigs := []struct {
		label  string
		policy osmm.Policy
	}{
		{"4KB", osmm.BasePages},
		{"2MB", osmm.Hugetlbfs2M},
		{"1GB", osmm.Hugetlbfs1G},
		{"THS", osmm.THS},
	}
	pair, err := s.specs(mmu.DesignSplit, mmu.DesignMix)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	for _, cfg := range nativeConfigs {
		for _, spec := range s.workloads() {
			cells = append(cells, Cell{
				Name: fmt.Sprintf("native/%s/%s", cfg.label, spec.Name),
				Run: func(ctx context.Context, cs Scale) ([]Row, error) {
					env, err := newNative(cs, cfg.policy, 0)
					if err != nil {
						return nil, fmt.Errorf("fig14 %s: %w", cfg.label, err)
					}
					imp, err := env.improvements(ctx, cs, spec, pair[0], pair[1])
					if err != nil {
						return nil, fmt.Errorf("fig14 %s: %w", cfg.label, err)
					}
					return []Row{{"native", cfg.label, spec.Name, imp[0]}}, nil
				},
			})
		}
	}
	// Virtualized configs: 1 VM and a consolidated 4-VM host.
	for _, vms := range []int{1, 4} {
		for _, spec := range s.workloads() {
			cells = append(cells, Cell{
				Name: fmt.Sprintf("virt/%dVM/%s", vms, spec.Name),
				Run: func(ctx context.Context, cs Scale) ([]Row, error) {
					env, err := newVirt(cs, vms, 0.2)
					if err != nil {
						return nil, fmt.Errorf("fig14 virt %dVM: %w", vms, err)
					}
					imp, err := env.improvements(ctx, cs, spec, pair[0], pair[1])
					if err != nil {
						return nil, err
					}
					return []Row{{"virtual", fmt.Sprintf("%dVM", vms), spec.Name, imp[0]}}, nil
				},
			})
		}
	}
	// GPU kernels.
	for _, k := range gpu.Kernels() {
		cells = append(cells, Cell{
			Name: "gpu/" + k.Name,
			Run: func(ctx context.Context, cs Scale) ([]Row, error) {
				imp, err := gpuImprovement(ctx, cs, 0, k)
				if err != nil {
					return nil, err
				}
				return []Row{{"gpu", "THS", k.Name, imp}}, nil
			},
		})
	}
	results, err := RunGrid(ctx, s, "fig14", cells)
	AppendRows(t, results)
	return t, err
}

// sortRowsByImprovement orders rows ascending by the float in column c,
// tie-broken by the workload name so the order never depends on
// scheduling. Used for the paper's sorted Fig 15 curves.
func sortRowsByImprovement(rows []Row, c int, nameCol int) {
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i][c].(float64), rows[j][c].(float64)
		if a != b {
			return a < b
		}
		return fmt.Sprint(rows[i][nameCol]) < fmt.Sprint(rows[j][nameCol])
	})
}

// Figure15Left regenerates the fragmentation sensitivity study: MIX's
// improvement over split as memhog fragments 20% and 80% of CPU memory
// (20% and 60% for GPUs), workloads sorted ascending as in the paper.
// Cells run per (system, memhog, workload); the sort is post-processing
// over the completed grid, so partial-progress tables are unsorted but
// the final table is canonical.
func Figure15Left(ctx context.Context, s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Figure 15 (left): MIX improvement vs split under fragmentation",
		Columns: []string{"system", "memhog%", "workload", "improvement-%"},
	}
	// groups records [start, end) cell ranges that sort independently.
	type group struct{ start, end int }
	var (
		cells  []Cell
		groups []group
	)
	pair, err := s.specs(mmu.DesignSplit, mmu.DesignMix)
	if err != nil {
		return nil, err
	}
	for _, hogPct := range []int{20, 80} {
		g := group{start: len(cells)}
		for _, spec := range s.workloads() {
			cells = append(cells, Cell{
				Name: fmt.Sprintf("cpu/hog%d/%s", hogPct, spec.Name),
				Run: func(ctx context.Context, cs Scale) ([]Row, error) {
					env, err := newNative(cs, osmm.THS, float64(hogPct)/100)
					if err != nil {
						return nil, fmt.Errorf("fig15l memhog=%d%%: %w", hogPct, err)
					}
					imp, err := env.improvements(ctx, cs, spec, pair[0], pair[1])
					if err != nil {
						return nil, fmt.Errorf("fig15l memhog=%d%%: %w", hogPct, err)
					}
					return []Row{{"cpu", hogPct, spec.Name, imp[0]}}, nil
				},
			})
		}
		g.end = len(cells)
		groups = append(groups, g)
	}
	for _, hogPct := range []int{20, 60} {
		g := group{start: len(cells)}
		for _, k := range gpu.Kernels() {
			cells = append(cells, Cell{
				Name: fmt.Sprintf("gpu/hog%d/%s", hogPct, k.Name),
				Run: func(ctx context.Context, cs Scale) ([]Row, error) {
					imp, err := gpuImprovement(ctx, cs, float64(hogPct)/100, k)
					if err != nil {
						return nil, err
					}
					return []Row{{"gpu", hogPct, k.Name, imp}}, nil
				},
			})
		}
		g.end = len(cells)
		groups = append(groups, g)
	}
	results, err := RunGrid(ctx, s, "fig15l", cells)
	if err != nil {
		AppendRows(t, results)
		return t, err
	}
	for _, g := range groups {
		rows := Flatten(results[g.start:g.end])
		sortRowsByImprovement(rows, 3, 2)
		for _, r := range rows {
			t.AddRow(r...)
		}
	}
	return t, nil
}

// Figure15Right regenerates the ideal-TLB comparison: the runtime
// overhead each design pays relative to a TLB that never misses, for
// split and MIX, sorted ascending (the paper's curves; Fig 15 right).
// One cell per (design, workload); sorting within each design group is
// post-processing.
func Figure15Right(ctx context.Context, s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Figure 15 (right): % overhead vs ideal TLB",
		Columns: []string{"design", "workload", "overhead-%"},
	}
	type group struct{ start, end int }
	var (
		cells  []Cell
		groups []group
	)
	designs, err := s.specs(mmu.DesignSplit, mmu.DesignMix)
	if err != nil {
		return nil, err
	}
	for _, ds := range designs {
		g := group{start: len(cells)}
		for _, spec := range s.workloads() {
			cells = append(cells, Cell{
				Name: fmt.Sprintf("%s/%s", ds.Name, spec.Name),
				Run: func(ctx context.Context, cs Scale) ([]Row, error) {
					env, err := newNative(cs, osmm.THS, 0.2)
					if err != nil {
						return nil, err
					}
					_, est, _, err := env.measure(ctx, cs, spec, env.stream(cs, spec), ds)
					if err != nil {
						return nil, err
					}
					return []Row{{ds.Name, spec.Name, est.OverheadVsIdealPercent()}}, nil
				},
			})
		}
		g.end = len(cells)
		groups = append(groups, g)
	}
	results, err := RunGrid(ctx, s, "fig15r", cells)
	if err != nil {
		AppendRows(t, results)
		return t, err
	}
	for _, g := range groups {
		rows := Flatten(results[g.start:g.end])
		sortRowsByImprovement(rows, 2, 1)
		for _, r := range rows {
			t.AddRow(r...)
		}
	}
	return t, nil
}
