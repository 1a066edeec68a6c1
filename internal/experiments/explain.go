package experiments

import (
	"fmt"
	"io"

	"mixtlb/internal/addr"
	"mixtlb/internal/ledger"
	"mixtlb/internal/osmm"
	"mixtlb/internal/tlb"
)

// Explain replays a single translation under one design and narrates its
// cost, cycle by cycle, from the attribution ledger's charge trail. It
// rebuilds the breakdown experiment's environment (same fragmentation
// point, same seed), warms the hierarchy with the first selected
// workload's reference stream, then translates the requested address
// once and prints each charge in probe order with the per-level TLB it
// hit. The narration closes with a conservation line: the trail must sum
// exactly to the translation's simulated cycles.
//
// A va below the environment's mapping base is treated as an offset into
// the mapped footprint, so `vaddr=0x0` explains the footprint's first
// page without the caller knowing where the OS placed it.
func Explain(w io.Writer, s Scale, design string, va uint64) error {
	specs, err := s.specs(design)
	if err != nil {
		return err
	}
	wls := s.workloads()
	if len(wls) == 0 {
		return fmt.Errorf("explain: no workloads selected")
	}
	wl := wls[0]
	env, err := newNative(s, osmm.THS, breakdownMemhogFrac)
	if err != nil {
		return err
	}
	m, _, err := env.build(specs[0])
	if err != nil {
		return err
	}
	led := ledger.New(0)
	m.AttachLedger(led)

	// Warm exactly as the experiments do, so the replayed translation
	// sees a realistically populated hierarchy, not cold structures.
	stream := env.stream(s, wl) // the one run, so no cursor is needed
	for i := uint64(0); i < s.WarmupRefs; i++ {
		r := stream.Next()
		m.Translate(tlb.Request{VA: r.VA, Write: r.Write, PC: r.PC})
	}

	target := addr.V(va)
	if va < uint64(env.base) {
		target = env.base + addr.V(va)
		fmt.Fprintf(w, "note: 0x%x is below the mapping base; explaining offset 0x%x into the footprint\n", va, va)
	}

	desc := env.as.PageTable().Descriptor()
	contig := "no hardware contiguity encoding"
	if desc.ContigPages > 1 {
		contig = fmt.Sprintf("%s encoding over %d-page blocks", desc.Contig, desc.ContigPages)
	}
	fmt.Fprintf(w, "design    %s\n", m.Name())
	fmt.Fprintf(w, "va        %v\n", target)
	fmt.Fprintf(w, "isa       %s: %d-level radix, %d-bit VAs, %s\n",
		desc.Name, desc.Depth(), desc.VABits, contig)
	fmt.Fprintf(w, "env       %s warmup over [%v, +%d MiB), memhog %.2f, seed %d\n",
		wl.Name, env.base, env.fp>>20, breakdownMemhogFrac, s.Seed)

	m.ResetStats()
	res := m.Translate(tlb.Request{VA: target})
	trail := led.Trail()
	tlbs := m.LevelTLBs()

	fmt.Fprintln(w, "charges:")
	var attributed uint64
	for i, st := range trail {
		attributed += st.Cycles
		where := ""
		if st.Level >= 0 && int(st.Level) < len(tlbs) {
			where = " in " + tlbs[st.Level].Name()
		}
		events := ""
		if st.Events > 1 {
			events = fmt.Sprintf(" over %d events", st.Events)
		}
		fmt.Fprintf(w, "  %2d. %-12s %6d cycles%s%s\n", i+1, st.Cat, st.Cycles, events, where)
	}
	if len(trail) == 0 {
		fmt.Fprintln(w, "  (none: the translation cost zero cycles)")
	}

	served := "page walk"
	for _, st := range trail {
		if st.Cat == ledger.WalkContig {
			served = fmt.Sprintf("page walk whose leaf carried the %s %s encoding (one PTE names a %d-page block)",
				desc.Name, desc.Contig, desc.ContigPages)
		}
	}
	switch {
	case res.Faulted:
		served = "fault (address not mapped; the handler refused)"
	case res.HitLevel >= 0:
		served = fmt.Sprintf("L%d hit", res.HitLevel+1)
		if int(res.HitLevel) < len(tlbs) {
			served += " in " + tlbs[res.HitLevel].Name()
		}
	}
	fmt.Fprintf(w, "result:   PA %v, %s page, served by %s, %d cycles\n",
		res.PA, res.Size, served, res.Cycles)
	if err := m.AuditLedger(); err != nil {
		return fmt.Errorf("explain: conservation audit failed: %w", err)
	}
	fmt.Fprintf(w, "audit:    %d/%d cycles attributed, books balance\n", attributed, res.Cycles)
	return nil
}
