package experiments

import (
	"context"
	"fmt"

	"mixtlb/internal/addr"
	"mixtlb/internal/cachesim"
	"mixtlb/internal/mmu"
	"mixtlb/internal/osmm"
	"mixtlb/internal/physmem"
	"mixtlb/internal/simrand"
	"mixtlb/internal/smp"
	"mixtlb/internal/stats"
	"mixtlb/internal/workload"
)

// InvalidationStudy quantifies the Sec 4.4 invalidation trade-off at
// system level: a multi-core machine runs superpage traffic while the OS
// periodically unmaps-and-remaps regions (TLB shootdowns to every core).
// Bitmap-encoded bundles lose only the invalidated member; range-encoded
// bundles drop the whole coalesced entry; split TLBs lose a single entry.
// Reported: walks per shootdown (post-invalidation refill traffic).
// One cell per design point.
//
// The design points resolve through the registry (split, mix, mix-range)
// instead of hand-built TLB pairs; the cell names predate the registry
// and are pinned — they seed each cell's random streams.
func InvalidationStudy(ctx context.Context, s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Sec 4.4 invalidations: post-shootdown refill traffic by design",
		Columns: []string{"design", "walks-per-1k-refs", "shootdowns", "invalidations"},
	}
	points := []struct {
		name   string // pinned cell name (feeds the seed split)
		design string // registry design the cell builds
	}{
		{"split", mmu.DesignSplit},
		{"mix-bitmap", mmu.DesignMix},
		{"mix-range", mmu.DesignMixRange},
	}
	const cores = 2
	var cells []Cell
	for _, p := range points {
		specs, err := s.specs(p.design)
		if err != nil {
			return nil, err
		}
		spec := specs[0]
		cells = append(cells, Cell{
			Name: p.name,
			Run: func(ctx context.Context, cs Scale) ([]Row, error) {
				phys := physmem.NewBuddy(cs.MemoryBytes)
				as, err := osmm.New(phys, osmm.Config{Policy: osmm.THS})
				if err != nil {
					return nil, err
				}
				fp := cs.FootprintBytes / 2
				base, err := as.Mmap(fp)
				if err != nil {
					return nil, err
				}
				if _, err := as.Populate(base, fp); err != nil {
					return nil, fmt.Errorf("invalidation study populate: %w", err)
				}
				sys, err := smp.New(cores, as, cachesim.DefaultHierarchy(), spec)
				if err != nil {
					return nil, err
				}
				if cs.Telemetry != nil {
					sys.AttachTelemetry(cs.Telemetry)
				}
				streams := make([]workload.Stream, cores)
				for i := range streams {
					streams[i] = workload.NewZipf(base, fp, simrand.New(cs.Seed+uint64(i)), 0.9, 0.1, uint64(p.name[0]))
				}
				if err := sys.Run(ctx, streams, cs.WarmupRefs); err != nil {
					return nil, err
				}
				sys.ResetStats()
				rng := simrand.New(cs.Seed ^ 0xdead)
				var total uint64
				chunk := cs.MeasureRefs / 10
				for round := 0; round < 10; round++ {
					if err := sys.Run(ctx, streams, chunk); err != nil {
						return nil, err
					}
					total += chunk
					// Unmap and immediately fault back a random 4MB region,
					// modeling mapping churn (e.g. an allocator's MADV_FREE).
					off := addr.AlignedDown(rng.Uint64n(fp-(4<<20)), addr.Size2M)
					sys.Munmap(base+addr.V(off), 4<<20)
				}
				if cs.Telemetry != nil {
					sys.FlushTelemetry()
				}
				agg := sys.Aggregate()
				return []Row{{p.name, 1000 * float64(agg.Walks) / float64(total),
					sys.Stats().Shootdowns, agg.Invalidations}}, nil
			},
		})
	}
	results, err := RunGrid(ctx, s, "invalidation", cells)
	AppendRows(t, results)
	return t, err
}
