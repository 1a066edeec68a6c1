package mmu

import (
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/cachesim"
	"mixtlb/internal/ledger"
	"mixtlb/internal/osmm"
	"mixtlb/internal/simrand"
	"mixtlb/internal/tlb"
	"mixtlb/internal/virt"
)

// nestedWalkHeavy builds a VM whose guest uses 4KB pages on 4KB host
// backings (every walk is the full 24-reference 2D walk), populates a
// footprint far beyond TLB reach, and returns a random-page stream over
// it: nearly every access walks, and 30% are stores.
func nestedWalkHeavy(t *testing.T, seed uint64, n int) (*virt.VM, []tlb.Request) {
	t.Helper()
	host := virt.NewMachine(1<<30, simrand.New(seed))
	host.Host2MBBacking = false
	vm, err := host.AddVM(256<<20, osmm.Config{Policy: osmm.BasePages}, simrand.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	const fp = 64 << 20
	base, err := vm.GuestAS().Mmap(fp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Populate(base, fp); err != nil {
		t.Fatal(err)
	}
	rng := simrand.New(seed + 2)
	reqs := make([]tlb.Request, n)
	for i := range reqs {
		reqs[i] = tlb.Request{
			VA:    base + addr.V(rng.Uint64n(fp)&^7),
			Write: rng.Bool(0.3),
			PC:    0x400000 + 64*rng.Uint64n(8),
		}
	}
	return vm, reqs
}

// TestTranslateZeroAllocNested pins the nested (2D) walk path at zero
// steady-state allocations: split and MIX MMUs over a VM's nested walker
// on a walk-heavy stream, with the ledger detached and attached.
func TestTranslateZeroAllocNested(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	for _, d := range []string{DesignSplit, DesignMix} {
		t.Run(d, func(t *testing.T) {
			vm, reqs := nestedWalkHeavy(t, 0x2d, 4096)
			for _, attach := range []bool{false, true} {
				m, err := DefaultRegistry().Build(d, vm.Walker(), nil, cachesim.DefaultHierarchy(), vm.HandleFault)
				if err != nil {
					t.Fatal(err)
				}
				if attach {
					m.AttachLedger(ledger.New(ledger.MaxTailK))
				}
				for _, r := range reqs {
					m.Translate(r)
				}
				m.ResetStats()
				i := 0
				avg := testing.AllocsPerRun(20, func() {
					for j := 0; j < 256; j++ {
						m.Translate(reqs[i%len(reqs)])
						i++
					}
				})
				if avg != 0 {
					t.Errorf("ledger=%v: nested Translate allocates %.2f times per 256 accesses", attach, avg)
				}
				if st := m.Stats(); st.Walks < st.Accesses/2 {
					t.Errorf("stream is not walk-heavy: %d walks over %d accesses", st.Walks, st.Accesses)
				}
			}
		})
	}
}

// TestCycleConservationNested is TestCycleConservation for MMUs over a
// nested walker, whose 2D walks and dirty assists run through the same
// charge site as native ones.
func TestCycleConservationNested(t *testing.T) {
	for _, d := range []string{DesignSplit, DesignMix, DesignSplitPWC} {
		t.Run(d, func(t *testing.T) {
			vm, reqs := nestedWalkHeavy(t, 0xc2d, 6000)
			m, err := DefaultRegistry().Build(d, vm.Walker(), nil, cachesim.DefaultHierarchy(), vm.HandleFault)
			if err != nil {
				t.Fatal(err)
			}
			led := ledger.New(4)
			m.AttachLedger(led)
			var sum uint64
			for _, r := range reqs {
				sum += m.Translate(r).Cycles
			}
			checkConservation(t, m, sum)
			if err := m.AuditLedger(); err != nil {
				t.Fatal(err)
			}
			if top := led.Top(); len(top) == 0 || top[0].WalkRefs != 24 {
				t.Errorf("slowest nested access should be a 24-reference 2D walk: %+v", top)
			}
		})
	}
}
