package tlb

import (
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/pagetable"
)

// TestInterfaceConformance drives every baseline design through the whole
// TLB interface with all three page sizes: fill → hit with correct PA →
// MarkDirty visibility → Invalidate → miss → Flush. Designs may skip
// sizes they cannot cache (the caches() contract), but must never return
// a wrong translation.
func TestInterfaceConformance(t *testing.T) {
	builders := map[string]func() TLB{
		"setassoc-4k": func() TLB { return Must(NewSetAssoc("t", addr.Page4K, 8, 4)) },
		"setassoc-2m": func() TLB { return Must(NewSetAssoc("t", addr.Page2M, 8, 4)) },
		"fullyassoc":  func() TLB { return Must(NewSetAssoc("t", addr.Page1G, 1, 8)) },
		"split":       func() TLB { return Must(NewHaswellL1()) },
		"haswell-l2":  func() TLB { return Must(NewHaswellL2()) },
		"rehash":      func() TLB { return Must(NewHashRehash("t", 16, 4, addr.Page4K, addr.Page2M, addr.Page1G)) },
		"rehash+pred": func() TLB {
			return NewPredicted(Must(NewHashRehash("t", 16, 4, addr.Page4K, addr.Page2M, addr.Page1G)), Must(NewSizePredictor(64)))
		},
		"skew":         func() TLB { return Must(NewSkewAllSizes("t", 16, 2)) },
		"skew+pred":    func() TLB { return NewPredicted(Must(NewSkewAllSizes("t", 16, 2)), Must(NewSizePredictor(64))) },
		"colt-4k":      func() TLB { return Must(NewColt("t", addr.Page4K, 8, 4, 4)) },
		"colt-2m":      func() TLB { return Must(NewColt("t", addr.Page2M, 8, 4, 4)) },
		"colt-split":   func() TLB { return Must(NewColtSplitL1()) },
		"colt++-split": func() TLB { return Must(NewColtPlusPlusL1()) },
	}
	cases := []struct {
		va   addr.V
		pa   addr.P
		size addr.PageSize
	}{
		{0x7f0000042000, 0x1234000, addr.Page4K},
		{0x7f0000400000, 0x5600000, addr.Page2M},
		{0x7f0040000000, 0x80000000, addr.Page1G},
	}
	for name, build := range builders {
		tl := build()
		if tl.Name() == "" {
			t.Errorf("%s: empty name", name)
		}
		for _, c := range cases {
			req := Request{VA: c.va + 0x123, PC: 99}
			walk := walkFor(c.va, c.pa, c.size)
			cost := tl.Fill(req, walk)
			accepted := cost.EntriesWritten > 0
			r := tl.Lookup(req)
			if !accepted {
				if r.Hit {
					t.Errorf("%s/%v: hit without accepted fill", name, c.size)
				}
				continue
			}
			if !r.Hit {
				t.Errorf("%s/%v: miss after fill", name, c.size)
				continue
			}
			want := c.pa + 0x123
			if got := r.T.Translate(req.VA); got != want {
				t.Errorf("%s/%v: PA = %v, want %v", name, c.size, got, want)
			}
			if r.Cost.Probes < 1 || r.Cost.WaysRead < 1 {
				t.Errorf("%s/%v: implausible lookup cost %+v", name, c.size, r.Cost)
			}
			// Dirty flow: fresh entries are clean; single-translation
			// MarkDirty may or may not be precise (coalesced designs),
			// but a reported true must be visible on the next lookup.
			if r.T.Dirty {
				t.Errorf("%s/%v: fresh entry dirty", name, c.size)
			}
			if tl.MarkDirty(req.VA) {
				if r2 := tl.Lookup(req); !r2.T.Dirty {
					t.Errorf("%s/%v: MarkDirty=true not visible", name, c.size)
				}
			}
			// Invalidation removes the translation.
			if n := tl.Invalidate(c.va, c.size); n == 0 {
				t.Errorf("%s/%v: Invalidate found nothing", name, c.size)
			}
			if tl.Lookup(req).Hit {
				t.Errorf("%s/%v: hit after invalidate", name, c.size)
			}
			// Refill and flush.
			tl.Fill(req, walk)
			tl.Flush()
			if tl.Lookup(req).Hit {
				t.Errorf("%s/%v: hit after flush", name, c.size)
			}
		}
		if tl.Entries() < 0 {
			t.Errorf("%s: negative capacity", name)
		}
	}
}

// TestNoCrossSizeAliasing fills each size at deliberately aliasing VAs
// and checks no design confuses them.
func TestNoCrossSizeAliasing(t *testing.T) {
	builders := []func() TLB{
		func() TLB { return Must(NewHaswellL1()) },
		func() TLB { return Must(NewHashRehash("t", 16, 4, addr.Page4K, addr.Page2M, addr.Page1G)) },
		func() TLB { return Must(NewSkewAllSizes("t", 16, 2)) },
	}
	for _, build := range builders {
		tl := build()
		// A 4KB page inside the VA range a 2MB page would cover if the
		// sizes were confused.
		small := pagetable.Translation{VA: 0x200000, PA: 0x111000, Size: addr.Page4K, Perm: addr.PermRW, Accessed: true}
		tl.Fill(Request{VA: small.VA}, pagetable.WalkResult{Found: true, Translation: small, Line: []pagetable.Translation{small}})
		// Lookup of the NEXT 4KB page (same 2MB region) must miss.
		if tl.Lookup(Request{VA: 0x201000}).Hit {
			t.Errorf("%s: 4KB entry served a different page in its 2MB region", tl.Name())
		}
		// Lookup of the exact page still hits with a 4KB-sized result.
		r := tl.Lookup(Request{VA: 0x200fff})
		if !r.Hit || r.T.Size != addr.Page4K {
			t.Errorf("%s: exact page lookup = %+v", tl.Name(), r)
		}
	}
}
