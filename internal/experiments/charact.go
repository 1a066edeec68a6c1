package experiments

import (
	"context"
	"errors"
	"fmt"

	"mixtlb/internal/addr"
	"mixtlb/internal/osmm"
	"mixtlb/internal/simrand"
	"mixtlb/internal/stats"
	"mixtlb/internal/virt"
)

// Figure9 regenerates the superpage-frequency characterization: the
// fraction of the memory footprint backed by superpages as memhog
// fragments an increasing share of physical memory, for native CPU
// (Spec/PARSEC-sized and big-memory-sized footprints) and GPU-sized
// footprints, all under THS (Sec 7.1, Fig 9). Cells run per
// (memhog, footprint class); each table row reassembles one memhog
// level's three classes.
func Figure9(ctx context.Context, s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Figure 9: fraction of footprint backed by superpages vs memhog",
		Columns: []string{"memhog%", "cpu-spec+parsec", "cpu-big-memory", "gpu"},
	}
	// The paper's footprints are scaled to the machine's memory (80GB on
	// 80GB, 24GB for GPU studies), so the demand pressure that produces
	// the three regimes comes from memory size, not the perf-run
	// footprint parameter.
	classes := []struct {
		name string
		fp   uint64
	}{
		{"cpu-spec", s.MemoryBytes / 2},
		{"cpu-bigmem", s.MemoryBytes},
		{"gpu", s.MemoryBytes * 3 / 10},
	}
	hogs := []int{0, 20, 40, 60, 80}
	var cells []Cell
	for _, hogPct := range hogs {
		for _, cl := range classes {
			cells = append(cells, Cell{
				Name: fmt.Sprintf("hog%d/%s", hogPct, cl.name),
				Run: func(ctx context.Context, cs Scale) ([]Row, error) {
					sub := cs
					sub.FootprintBytes = cl.fp
					env, err := newNative(sub, osmm.THS, float64(hogPct)/100)
					if err != nil {
						return nil, fmt.Errorf("fig9 memhog=%d%%: %w", hogPct, err)
					}
					rep := osmm.ScanContiguity(env.as.PageTable())
					// Partial-progress rows carry the cell identity; the final
					// assembly below reads the fraction back out of column 2.
					return []Row{{hogPct, cl.name, rep.SuperpageFraction()}}, nil
				},
			})
		}
	}
	results, err := RunGrid(ctx, s, "fig9", cells)
	if err != nil {
		AppendRows(t, results)
		return t, err
	}
	for hi, hogPct := range hogs {
		row := Row{hogPct}
		complete := true
		for ci := range classes {
			cell := results[hi*len(classes)+ci]
			if cell == nil { // filtered out by -cell
				complete = false
				break
			}
			row = append(row, cell[0][2])
		}
		if complete {
			t.AddRow(row...)
		}
	}
	return t, nil
}

// Figure10 regenerates the virtualized superpage-frequency study: the
// fraction of guest footprints backed by *effective* (guest and host
// agreeing) superpages under VM consolidation and in-VM memhog (Fig 10).
//
// Unlike the performance environments (newVirt, which sizes guests so
// simulations never exhaust the host), this characterization reproduces
// the paper's loaded-host setup: consolidated guests whose combined
// demand approaches host memory, with in-VM memhog under the same
// pressure model as the native runs — so splintering and guest fallbacks
// emerge at high consolidation x fragmentation.
func Figure10(ctx context.Context, s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Figure 10: effective superpage fraction vs VM consolidation x memhog",
		Columns: []string{"vms", "memhog%", "superpage-fraction"},
	}
	var cells []Cell
	for _, vms := range []int{1, 2, 4, 8} {
		for _, hogPct := range []int{0, 20, 40, 60} {
			cells = append(cells, Cell{
				Name: fmt.Sprintf("%dvm/hog%d", vms, hogPct),
				Run: func(ctx context.Context, cs Scale) ([]Row, error) {
					frac, err := figure10Point(cs, vms, float64(hogPct)/100)
					if err != nil {
						return nil, fmt.Errorf("fig10 vms=%d memhog=%d%%: %w", vms, hogPct, err)
					}
					return []Row{{vms, hogPct, frac}}, nil
				},
			})
		}
	}
	results, err := RunGrid(ctx, s, "fig10", cells)
	AppendRows(t, results)
	return t, err
}

// figure10Point builds one consolidated-host configuration and returns
// the average effective superpage fraction across its VMs. As in the
// paper's setup (8 x 10GB guests on an 80GB host), the per-guest size is
// fixed at one eighth of host memory, so total demand scales with the VM
// count; the host proactively splinters backings under memory pressure
// (the page-sharing behaviour the paper cites); and in-VM memhog memory
// is host-backed, because the guest's hog really touches it.
func figure10Point(s Scale, vms int, hogFrac float64) (float64, error) {
	m := virt.NewMachine(s.MemoryBytes, simrand.New(s.Seed^0x77))
	m.SplinterThreshold = 0.25
	guestBytes := s.MemoryBytes / 8
	fp := guestBytes * 3 / 4
	var total float64
	for i := 0; i < vms; i++ {
		vm, err := m.AddVM(guestBytes, osmm.Config{Policy: osmm.THS}, simrand.New(s.Seed+uint64(i)))
		if err != nil {
			return 0, err
		}
		hog := vm.GuestHog()
		pollute(hog, hogFrac) // in-VM load pollutes like native load does
		if hogFrac > 0 {
			hog.Run(hogFrac)
			// The guest's memhog touches its memory: the host must back it.
			hog.HeldFrames(func(f uint64) bool {
				return vm.EnsureBacked(addr.P(f<<addr.Shift4K)) == nil
			})
		}
		base, err := vm.GuestAS().Mmap(fp)
		if err != nil {
			return 0, err
		}
		// Guests take what fits: host exhaustion mid-populate is the
		// consolidation pressure this figure is about.
		if _, err := vm.Populate(base, fp); err != nil && !errors.Is(err, osmm.ErrOutOfMemory) {
			return 0, err
		}
		total += vm.EffectiveContiguity().SuperpageFraction()
	}
	return total / float64(vms), nil
}

// Figure11 regenerates the contiguity characterization: the paper's
// average-contiguity metric for 2MB pages (THS) and 1GB pages
// (libhugetlbfs pools) as memhog varies. Several instances stand in for
// the per-workload instances on the paper's x-axis (Fig 11); each
// (instance, memhog) pair is one cell, with its seed — and therefore its
// allocation pattern — derived from the cell identity.
func Figure11(ctx context.Context, s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Figure 11: average superpage contiguity vs memhog",
		Columns: []string{"instance", "memhog%", "avg-contig-2MB", "avg-contig-1GB"},
	}
	const instances = 4
	var cells []Cell
	for inst := 0; inst < instances; inst++ {
		for _, hogPct := range []int{20, 40, 60} {
			cells = append(cells, Cell{
				Name: fmt.Sprintf("inst%d/hog%d", inst, hogPct),
				Run: func(ctx context.Context, cs Scale) ([]Row, error) {
					frac := float64(hogPct) / 100
					sub := cs
					sub.FootprintBytes = cs.MemoryBytes
					env2, err := newNative(sub, osmm.THS, frac)
					if err != nil {
						return nil, fmt.Errorf("fig11 inst=%d: %w", inst, err)
					}
					c2 := osmm.ScanContiguity(env2.as.PageTable()).AverageContiguity(addr.Page2M)
					env1, err := newNative(sub, osmm.Hugetlbfs1G, frac)
					if err != nil {
						return nil, fmt.Errorf("fig11 1GB inst=%d: %w", inst, err)
					}
					c1 := osmm.ScanContiguity(env1.as.PageTable()).AverageContiguity(addr.Page1G)
					return []Row{{inst, hogPct, c2, c1}}, nil
				},
			})
		}
	}
	results, err := RunGrid(ctx, s, "fig11", cells)
	AppendRows(t, results)
	return t, err
}

// Figure12 regenerates the native-CPU contiguity CDFs: the fraction of
// 2MB translations residing in runs of length <= x, as memhog varies
// (Fig 12). One cell per memhog level; a cell emits its whole CDF.
func Figure12(ctx context.Context, s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Figure 12: 2MB contiguity CDF, native CPU",
		Columns: []string{"memhog%", "run-length", "cum-fraction"},
	}
	var cells []Cell
	for _, hogPct := range []int{20, 40, 60} {
		cells = append(cells, Cell{
			Name: fmt.Sprintf("hog%d", hogPct),
			Run: func(ctx context.Context, cs Scale) ([]Row, error) {
				sub := cs
				sub.FootprintBytes = cs.MemoryBytes
				env, err := newNative(sub, osmm.THS, float64(hogPct)/100)
				if err != nil {
					return nil, fmt.Errorf("fig12 memhog=%d%%: %w", hogPct, err)
				}
				rep := osmm.ScanContiguity(env.as.PageTable())
				var rows []Row
				for _, p := range rep.CDF(addr.Page2M) {
					rows = append(rows, Row{hogPct, p.Value, p.Frac})
				}
				return rows, nil
			},
		})
	}
	results, err := RunGrid(ctx, s, "fig12", cells)
	AppendRows(t, results)
	return t, err
}

// Figure13 regenerates the virtualized and GPU contiguity CDFs (Fig 13):
// effective-translation contiguity inside a consolidated VM, and native
// contiguity at GPU footprints. One cell per (system, memhog) curve.
func Figure13(ctx context.Context, s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Figure 13: 2MB contiguity CDF, virtualized CPU and GPU",
		Columns: []string{"system", "memhog%", "run-length", "cum-fraction"},
	}
	var cells []Cell
	for _, hogPct := range []int{20, 40} {
		cells = append(cells, Cell{
			Name: fmt.Sprintf("virt-2vm/hog%d", hogPct),
			Run: func(ctx context.Context, cs Scale) ([]Row, error) {
				env, err := newVirt(cs, 2, float64(hogPct)/100)
				if err != nil {
					return nil, fmt.Errorf("fig13 virt: %w", err)
				}
				rep := env.vms[0].EffectiveContiguity()
				var rows []Row
				for _, p := range rep.CDF(addr.Page2M) {
					rows = append(rows, Row{"virt-2vm", hogPct, p.Value, p.Frac})
				}
				return rows, nil
			},
		})
	}
	for _, hogPct := range []int{20, 40} {
		cells = append(cells, Cell{
			Name: fmt.Sprintf("gpu/hog%d", hogPct),
			Run: func(ctx context.Context, cs Scale) ([]Row, error) {
				sub := cs
				sub.FootprintBytes = cs.FootprintBytes * 3 / 10
				env, err := newNative(sub, osmm.THS, float64(hogPct)/100)
				if err != nil {
					return nil, fmt.Errorf("fig13 gpu: %w", err)
				}
				rep := osmm.ScanContiguity(env.as.PageTable())
				var rows []Row
				for _, p := range rep.CDF(addr.Page2M) {
					rows = append(rows, Row{"gpu", hogPct, p.Value, p.Frac})
				}
				return rows, nil
			},
		})
	}
	results, err := RunGrid(ctx, s, "fig13", cells)
	AppendRows(t, results)
	return t, err
}
