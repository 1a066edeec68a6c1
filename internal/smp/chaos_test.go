package smp

import (
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/chaos"
	"mixtlb/internal/mmu"
	"mixtlb/internal/tlb"
)

// TestZeroRateChaosKeepsAccounting attaches a zero-rate injector and
// checks the shootdown protocol is byte-for-byte the no-chaos one: no
// retries, no forced deliveries, IPIs == shootdowns x cores.
func TestZeroRateChaosKeepsAccounting(t *testing.T) {
	s, _, base, _ := newSMP(t, mmu.DesignMix, 3)
	s.SetChaos(chaos.NewInjector(1, chaos.Rates{}))
	for c := 0; c < 3; c++ {
		for off := uint64(0); off < 8<<20; off += addr.Size4K {
			s.Translate(c, tlb.Request{VA: base + addr.V(off)})
		}
	}
	s.Munmap(base, 4<<20)
	st := s.Stats()
	if st.Shootdowns != 2 || st.IPIs != 6 {
		t.Errorf("shootdowns=%d IPIs=%d, want 2 and 6", st.Shootdowns, st.IPIs)
	}
	if st.IPIsLost != 0 || st.IPIRetries != 0 || st.IPIsDelayed != 0 || st.ForcedDeliveries != 0 {
		t.Errorf("zero-rate chaos recorded faults: %+v", st)
	}
}

// TestLostIPIsForcedThrough drops every IPI: after maxIPIRetries the
// delivery is forced, so every invalidation still lands and no core ever
// serves a stale translation for the unmapped range.
func TestLostIPIsForcedThrough(t *testing.T) {
	const cores = 3
	s, as, base, _ := newSMP(t, mmu.DesignMix, cores)
	s.SetChaos(chaos.NewInjector(2, chaos.Rates{IPILoss: 1}))
	for c := 0; c < cores; c++ {
		for off := uint64(0); off < 8<<20; off += addr.Size4K {
			s.Translate(c, tlb.Request{VA: base + addr.V(off)})
		}
	}
	s.ResetStats()
	s.Munmap(base, 4<<20)
	st := s.Stats()
	if st.Shootdowns != 2 {
		t.Fatalf("shootdowns = %d", st.Shootdowns)
	}
	wantDeliveries := st.Shootdowns * cores
	if st.ForcedDeliveries != wantDeliveries {
		t.Errorf("forced deliveries = %d, want %d", st.ForcedDeliveries, wantDeliveries)
	}
	// Each delivery burns 1 + maxIPIRetries attempts before the force.
	if want := wantDeliveries * (1 + maxIPIRetries); st.IPIs != want {
		t.Errorf("IPIs = %d, want %d", st.IPIs, want)
	}
	if st.IPIRetries != wantDeliveries*maxIPIRetries {
		t.Errorf("retries = %d", st.IPIRetries)
	}
	// Correctness despite the storm: the page table has no mapping, and
	// no core's TLB hits on the shot-down range.
	if _, ok := as.PageTable().Lookup(base); ok {
		t.Fatal("range still mapped")
	}
	agg := s.Aggregate()
	if want := wantDeliveries; agg.Invalidations != want {
		t.Errorf("invalidations = %d, want %d (every IPI must land)", agg.Invalidations, want)
	}
	for c := 0; c < cores; c++ {
		r := s.Translate(c, tlb.Request{VA: base})
		if r.HitLevel == 0 || r.HitLevel == 1 {
			t.Errorf("core %d served a stale translation after forced shootdown", c)
		}
	}
}

// TestDelayedIPIsStillDeliver delays (but never drops) every IPI: the
// accounting notes the delays and the invalidations all complete with no
// retries.
func TestDelayedIPIsStillDeliver(t *testing.T) {
	s, _, base, _ := newSMP(t, mmu.DesignMix, 2)
	s.SetChaos(chaos.NewInjector(3, chaos.Rates{IPIDelay: 1}))
	for c := 0; c < 2; c++ {
		for off := uint64(0); off < 4<<20; off += addr.Size4K {
			s.Translate(c, tlb.Request{VA: base + addr.V(off)})
		}
	}
	s.Munmap(base, 2<<20)
	st := s.Stats()
	if st.IPIsDelayed != st.IPIs {
		t.Errorf("delayed = %d of %d IPIs, want all", st.IPIsDelayed, st.IPIs)
	}
	if st.IPIsLost != 0 || st.ForcedDeliveries != 0 {
		t.Errorf("delay-only chaos dropped IPIs: %+v", st)
	}
}

// TestChaoticShootdownsUnderOracle runs sustained traffic with lossy IPIs,
// TLB corruption, and the oracle attached on every core: no mismatch may
// go unrecovered.
func TestChaoticShootdownsUnderOracle(t *testing.T) {
	const cores = 2
	s, as, base, fp := newSMP(t, mmu.DesignMix, cores)
	in := chaos.NewInjector(4, chaos.Rates{TLBCorrupt: 0.01, SilentFrac: 0.5, IPILoss: 0.3})
	s.SetChaos(in)
	or := chaos.NewOracle(as.PageTable())
	for _, c := range s.Cores() {
		c.InjectFaults(in)
		c.AttachOracle(or)
	}
	for round := 0; round < 20; round++ {
		for c := 0; c < cores; c++ {
			for i := 0; i < 500; i++ {
				va := base + addr.V((uint64(round*7919+i*4096))%(fp-addr.Size4K))
				if r := s.Translate(c, tlb.Request{VA: va}); r.Faulted {
					t.Fatalf("core %d faulted at %v", c, va)
				}
			}
		}
		off := addr.AlignedDown(uint64(round)*(2<<20)%(fp-(2<<20)), addr.Size2M)
		s.Munmap(base+addr.V(off), 2<<20)
	}
	agg := s.Aggregate()
	if agg.ECC.SilentCorruptions == 0 && agg.ECC.ParityDetected == 0 {
		t.Error("corruption never injected")
	}
	if agg.OracleUnrecovered != 0 {
		t.Errorf("%d accesses stayed wrong under chaos", agg.OracleUnrecovered)
	}
}
