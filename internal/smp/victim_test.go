package smp

import (
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/cachesim"
	"mixtlb/internal/mmu"
	"mixtlb/internal/osmm"
	"mixtlb/internal/physmem"
	"mixtlb/internal/simrand"
	"mixtlb/internal/tlb"
)

// victimSMP builds a multi-core victima system over a 4KB-only address
// space: the small-page flood overflows every SRAM level, so the victim
// level churns with demotions and promotions throughout the run.
func victimSMP(t *testing.T, design string, cores int) (*System, *osmm.AddressSpace, addr.V, uint64) {
	t.Helper()
	phys := physmem.NewBuddy(1 << 30)
	as, err := osmm.New(phys, osmm.Config{Policy: osmm.BasePages})
	if err != nil {
		t.Fatal(err)
	}
	const fp = 64 << 20
	base, err := as.Mmap(fp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := as.Populate(base, fp); err != nil {
		t.Fatal(err)
	}
	sys, err := New(cores, as, cachesim.DefaultHierarchy(), lookupSpec(t, design))
	if err != nil {
		t.Fatal(err)
	}
	return sys, as, base, fp
}

// victims returns each core's victim level.
func victims(t *testing.T, s *System) []*tlb.Victim {
	t.Helper()
	var out []*tlb.Victim
	for _, m := range s.Cores() {
		for _, lv := range m.LevelTLBs() {
			if v, ok := lv.(*tlb.Victim); ok {
				out = append(out, v)
			}
		}
	}
	if len(out) != len(s.Cores()) {
		t.Fatalf("found %d victim levels on %d cores", len(out), len(s.Cores()))
	}
	return out
}

// TestVictimNoStaleAfterShootdown is the coherence property for the
// cache-backed victim level: over a randomized seeded sequence of
// translations and munmap shootdowns, no core's victim level ever holds
// an entry for an unmapped page — a stale victim entry would serve a
// freed physical frame on the next deep hit.
func TestVictimNoStaleAfterShootdown(t *testing.T) {
	for _, design := range []string{mmu.DesignVictima, mmu.DesignVictimaLite} {
		design := design
		t.Run(string(design), func(t *testing.T) {
			const cores = 2
			s, as, base, fp := victimSMP(t, design, cores)
			vs := victims(t, s)
			rng := simrand.New(0x57a1e + uint64(len(design)))
			for i := 0; i < 30000; i++ {
				c := int(rng.Uint64n(cores))
				off := rng.Uint64n(fp) &^ 7
				if r := s.Translate(c, tlb.Request{VA: base + addr.V(off), Write: rng.Bool(0.3)}); r.Faulted {
					t.Fatalf("access %d faulted at %v", i, base+addr.V(off))
				}
				if i%3000 != 2999 {
					continue
				}
				// Shoot down a random 2MB-aligned 4MB window, then scan
				// every victim for survivors from the unmapped range.
				start := base + addr.V(rng.Uint64n(fp)&^(addr.Size2M-1))
				length := uint64(4 << 20)
				if over := uint64(start-base) + length; over > fp {
					length = fp - uint64(start-base)
				}
				s.Munmap(start, length)
				end := start + addr.V(length)
				for ci, v := range vs {
					for _, tr := range v.Dump() {
						if tr.VA >= start && tr.VA < end {
							t.Fatalf("core %d: stale victim entry %v after munmap [%v,%v)",
								ci, tr.VA, start, end)
						}
						if _, ok := as.PageTable().Lookup(tr.VA); !ok {
							t.Fatalf("core %d: victim entry %v has no page-table backing", ci, tr.VA)
						}
					}
				}
			}
			agg := s.Aggregate()
			if agg.Demotions == 0 || agg.DeepHits == 0 {
				t.Fatalf("victim unexercised: demotions=%d deep hits=%d",
					agg.Demotions, agg.DeepHits)
			}
			// Full flush on every core leaves nothing behind.
			for _, m := range s.Cores() {
				m.Flush()
			}
			for ci, v := range vs {
				if n := len(v.Dump()); n != 0 {
					t.Fatalf("core %d: %d victim entries after Flush", ci, n)
				}
			}
		})
	}
}
