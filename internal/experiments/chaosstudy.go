package experiments

import (
	"context"
	"fmt"

	"mixtlb/internal/addr"
	"mixtlb/internal/cachesim"
	"mixtlb/internal/chaos"
	"mixtlb/internal/mmu"
	"mixtlb/internal/osmm"
	"mixtlb/internal/simrand"
	"mixtlb/internal/smp"
	"mixtlb/internal/stats"
	"mixtlb/internal/workload"
)

// ChaosStudy sweeps every TLB design under fault injection: TLB-entry
// bit flips (detectable and silent), PTE-fetch corruption, lost/delayed
// shootdown IPIs, and transient allocator OOM — all driven from one seed
// so any failure replays exactly. Each design runs a two-core system with
// Zipf traffic and munmap churn; the translation oracle cross-checks every
// result, so the headline column is "unrecovered": silent wrong
// translations that reached the workload. A healthy stack reports zero.
// Rates come from Scale.Chaos verbatim; all-zero rates run the same sweep
// fault-free, where every fault column must read zero. One cell per
// design; a cell's fault schedule derives from its split seed, so a
// failure line's -cell and base seed replay that design's faults exactly.
func ChaosStudy(ctx context.Context, s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title: fmt.Sprintf("Chaos: fault injection and recovery by design (seed %d)", s.Seed),
		Columns: []string{"design", "tlb-corrupt", "parity-detected", "silent",
			"pte-corrupt", "oracle-catches", "recovered", "unrecovered",
			"ipi-lost", "ipi-forced", "alloc-fails"},
	}
	const cores = 2
	var names []string
	for _, d := range mmu.AllDesigns() {
		if d != mmu.DesignIdeal { // ideal has no TLB array to corrupt
			names = append(names, d)
		}
	}
	specs, err := s.specs(names...)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	for _, spec := range specs {
		d := spec.Name
		cells = append(cells, Cell{
			Name: d,
			Run: func(ctx context.Context, cs Scale) ([]Row, error) {
				rates := cs.Chaos
				env, err := newNative(cs, osmm.THS, 0.2)
				if err != nil {
					return nil, err
				}
				in := chaos.NewInjector(cs.Seed, rates)
				or := chaos.NewOracle(env.as.PageTable())
				sys, err := smp.New(cores, env.as, cachesim.DefaultHierarchy(), spec)
				if err != nil {
					return nil, err
				}
				sys.SetChaos(in)
				for _, c := range sys.Cores() {
					c.InjectFaults(in)
					c.AttachOracle(or)
				}
				env.phys.SetFaultHook(in.FailAlloc)
				if cs.Telemetry != nil {
					sys.AttachTelemetry(cs.Telemetry)
					in.AttachTelemetry(cs.Telemetry)
				}
				streams := make([]workload.Stream, cores)
				for i := range streams {
					streams[i] = workload.NewZipf(env.base, env.fp, simrand.New(cs.Seed+uint64(i)), 0.9, 0.1, uint64(i))
				}
				if err := sys.Run(ctx, streams, cs.WarmupRefs); err != nil {
					return nil, fmt.Errorf("chaos %s warmup (seed %d): %w", d, cs.Seed, err)
				}
				sys.ResetStats()
				warm := in.Stats() // injector keeps running through warmup; report deltas
				rng := simrand.New(cs.Seed ^ 0xc4a05)
				chunk := cs.MeasureRefs / 10
				for round := 0; round < 10; round++ {
					if err := sys.Run(ctx, streams, chunk); err != nil {
						return nil, fmt.Errorf("chaos %s round %d (seed %d): %w", d, round, cs.Seed, err)
					}
					// Mapping churn: unmap a random 4MB region (shootdown storm
					// under IPI loss) and let demand faults remap it — under the
					// alloc-fail hook, sometimes splintered to 4KB pages.
					if env.fp > 8<<20 {
						off := addr.AlignedDown(rng.Uint64n(env.fp-(4<<20)), addr.Size2M)
						sys.Munmap(env.base+addr.V(off), 4<<20)
					}
				}
				env.phys.SetFaultHook(nil)
				if cs.Telemetry != nil {
					sys.FlushTelemetry()
					in.FlushTelemetry()
					env.flushTelemetry()
				}
				agg := sys.Aggregate()
				is := in.Stats()
				ss := sys.Stats()
				return []Row{{d, is.TLBCorruptions - warm.TLBCorruptions,
					agg.ECC.ParityDetected, agg.ECC.SilentCorruptions, agg.PTECorruptions,
					agg.OracleMismatches, agg.OracleRecoveries, agg.OracleUnrecovered,
					ss.IPIsLost, ss.ForcedDeliveries, is.AllocFailures - warm.AllocFailures}}, nil
			},
		})
	}
	results, err := RunGrid(ctx, s, "chaos", cells)
	AppendRows(t, results)
	return t, err
}
