package experiments

import (
	"context"

	"mixtlb/internal/chaos"
	"mixtlb/internal/ledger"
	"mixtlb/internal/mmu"
	"mixtlb/internal/osmm"
	"mixtlb/internal/perfmodel"
	"mixtlb/internal/stats"
	"mixtlb/internal/workload"
)

// defaultBreakdownDesigns spans the cost structures the attribution can
// distinguish: the split baseline (pure SRAM probes + full walks), the
// same walks shortened by paging-structure caches, MIX (coalesced
// reach trades walk cycles for probe cycles), and the victim-level
// designs whose deep hits spend data-cache time instead of walk time.
var defaultBreakdownDesigns = []string{
	mmu.DesignSplit,
	mmu.DesignSplitPWC,
	mmu.DesignMix,
	mmu.DesignVictima,
	mmu.DesignMixVictima,
}

// breakdownMemhogFrac matches the hierarchy study's fragmentation point:
// the mixed 2MB/4KB regime where every cost category is live at once.
const breakdownMemhogFrac = hierarchyMemhogFrac

// Breakdown is the attribution experiment: per (design, workload) it
// reports cycles/access next to the percentage of attributed cycles each
// ledger category received — a stacked cost table that says *where* a
// design's cycles go, not just how many. A final per-workload row runs
// MIX under the scale's chaos rates with the oracle attached, so the
// chaos-retry column shows the re-translation tax injected faults add.
// The shares come from the MMU's cycle book, which sums to Stats.Cycles
// by construction; every row also carries an attached ledger whose closed
// translations runStream audits against Stats.Cycles, failing the cell on
// any leak. One cell per workload.
func Breakdown(ctx context.Context, s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title: "Cycle breakdown: exact attribution of translation cycles by category (audited)",
		Columns: []string{"design", "workload", "cyc/acc", "l1%", "l2%", "deep%",
			"extra%", "victim%", "walk-full%", "walk-pwc%", "dirty%", "memo%", "retry%"},
	}
	designs := s.Designs
	if len(designs) == 0 {
		designs = defaultBreakdownDesigns
	}
	specs, err := s.specs(designs...)
	if err != nil {
		return nil, err
	}
	// The chaos row reuses MIX when the registry has it (custom -designs
	// lists still get their plain rows either way).
	chaosSpec, haveChaosRow := s.registry().Lookup(mmu.DesignMix)
	var cells []Cell
	for _, spec := range s.workloads() {
		cells = append(cells, Cell{
			Name: spec.Name,
			Run: func(ctx context.Context, cs Scale) ([]Row, error) {
				env, err := newNative(cs, osmm.THS, breakdownMemhogFrac)
				if err != nil {
					return nil, err
				}
				built := env.stream(cs, spec)
				var rows []Row
				for _, ds := range specs {
					row, err := breakdownRow(ctx, cs, env, spec.Name, built, ds, ds.Name, nil, nil)
					if err != nil {
						return nil, err
					}
					rows = append(rows, row)
				}
				if haveChaosRow && cs.Chaos != (chaos.Rates{}) {
					in := chaos.NewInjector(cs.Seed, cs.Chaos)
					or := chaos.NewOracle(env.as.PageTable())
					row, err := breakdownRow(ctx, cs, env, spec.Name, built, chaosSpec,
						chaosSpec.Name+"+chaos", in, or)
					if err != nil {
						return nil, err
					}
					rows = append(rows, row)
				}
				return rows, nil
			},
		})
	}
	results, err := RunGrid(ctx, s, "breakdown", cells)
	AppendRows(t, results)
	return t, err
}

// breakdownRow measures one design over the environment with a ledger
// attached, on a cursor over built (the cell's stream of the named
// workload), and renders its cycle book's shares.
func breakdownRow(ctx context.Context, cs Scale, env *nativeEnv, name string, built workload.Stream,
	ds mmu.DesignSpec, label string, in *chaos.Injector, or *chaos.Oracle) (Row, error) {
	m, _, err := env.build(ds)
	if err != nil {
		return nil, err
	}
	if in != nil {
		m.InjectFaults(in)
	}
	if or != nil {
		m.AttachOracle(or)
	}
	// Attach explicitly rather than via Scale.LedgerAudit: the breakdown
	// is the attribution readout, so runStream's audit and tail flush run
	// regardless of the scale's observer knobs.
	m.AttachLedger(ledger.New(cs.TailK))
	st, err := env.run(ctx, cs, m, name, built)
	if err != nil {
		return nil, err
	}
	sh := perfmodel.AttributionShares(m.Attribution())
	return Row{label, name, st.CyclesPerAccess(),
		sh[ledger.L1Probe], sh[ledger.L2Probe], sh[ledger.DeepProbe],
		sh[ledger.ExtraProbe], sh[ledger.VictimProbe], sh[ledger.WalkFull],
		sh[ledger.WalkPWC], sh[ledger.DirtyAssist], sh[ledger.MemoReplay],
		sh[ledger.ChaosRetry]}, nil
}
