package smp

import (
	"context"
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/chaos"
	"mixtlb/internal/ledger"
	"mixtlb/internal/mmu"
	"mixtlb/internal/simrand"
	"mixtlb/internal/workload"
)

// TestLedgerConservationUnderShootdowns audits attribution on a
// multi-core system whose cores take shootdown IPIs — including lost
// IPIs that the retry protocol re-delivers — between translation rounds.
// Each core carries its own ledger: conservation must hold per core, the
// core's cycle book must sum to its Stats.Cycles, and the shared
// aggregate must sum the cores.
func TestLedgerConservationUnderShootdowns(t *testing.T) {
	const cores = 3
	sys, _, base, fp := newSMP(t, mmu.DesignMix, cores)
	sys.SetChaos(chaos.NewInjector(5, chaos.Rates{IPILoss: 0.3, IPIDelay: 0.2}))
	ledgers := make([]*ledger.Ledger, cores)
	for i, c := range sys.Cores() {
		ledgers[i] = ledger.New(4)
		c.AttachLedger(ledgers[i])
	}
	streams := make([]workload.Stream, cores)
	for i := range streams {
		streams[i] = workload.NewZipf(base, fp, simrand.New(uint64(i)+9), 0.9, 0.2, uint64(i))
	}
	rng := simrand.New(0x5d0)
	for round := 0; round < 12; round++ {
		if err := sys.Run(context.Background(), streams, 6000); err != nil {
			t.Fatal(err)
		}
		off := addr.AlignedDown(rng.Uint64n(fp-(2<<20)), addr.Size2M)
		sys.Munmap(base+addr.V(off), 2<<20)
	}
	if sys.Stats().IPIsLost == 0 {
		t.Fatal("IPI loss never exercised; lost-IPI path untested")
	}
	var cycles, invalidations uint64
	for i, c := range sys.Cores() {
		if err := c.AuditLedger(); err != nil {
			t.Errorf("core %d: %v", i, err)
		}
		st := c.Stats()
		var booked uint64
		for _, e := range c.Attribution() {
			booked += e.Cycles
		}
		if booked != st.Cycles {
			t.Errorf("core %d: book holds %d cycles, Stats.Cycles %d", i, booked, st.Cycles)
		}
		if ledgers[i].Accesses() != st.Accesses {
			t.Errorf("core %d: ledger closed %d accesses, Stats saw %d", i, ledgers[i].Accesses(), st.Accesses)
		}
		if st.Invalidations == 0 {
			t.Errorf("core %d: munmap storm delivered no invalidations", i)
		}
		cycles += st.Cycles
		invalidations += st.Invalidations
	}
	if agg := sys.Aggregate(); agg.Cycles != cycles || agg.Invalidations != invalidations {
		t.Errorf("aggregate cycles/invalidations %d/%d, cores sum to %d/%d",
			agg.Cycles, agg.Invalidations, cycles, invalidations)
	}
}
