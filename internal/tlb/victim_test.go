package tlb

import (
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/pagetable"
	"mixtlb/internal/simrand"
)

func tr4k(i uint64) pagetable.Translation {
	return pagetable.Translation{
		VA: addr.V(0x7f0000000000 + i<<12), PA: addr.P(0x40000000 + i<<12),
		Size: addr.Page4K, Perm: addr.PermRW, Accessed: true,
	}
}

func tr2m(i uint64) pagetable.Translation {
	return pagetable.Translation{
		VA: addr.V(0x500000000000 + i<<21), PA: addr.P(0x100000000 + i<<21),
		Size: addr.Page2M, Perm: addr.PermRW, Accessed: true,
	}
}

// TestVictimBasicFlow covers the victim's TLB-shaped surface: demote →
// hit with correct member PA → MarkDirty visibility → Invalidate → miss
// → Flush.
func TestVictimBasicFlow(t *testing.T) {
	v := Must(NewVictim("v", 8, 2))
	for _, tr := range []pagetable.Translation{tr4k(1), tr4k(2), tr2m(3)} {
		if ok, _ := v.Demote(tr); !ok {
			t.Fatalf("Demote(%v) refused", tr)
		}
		r := v.Lookup(Request{VA: tr.VA + 0x123})
		if !r.Hit || r.T.Size != tr.Size {
			t.Fatalf("lookup after demote: %+v", r)
		}
		if got, want := r.T.Translate(tr.VA+0x123), tr.PA+0x123; got != want {
			t.Fatalf("PA = %v, want %v", got, want)
		}
		if r.T.Dirty {
			t.Fatalf("fresh demotion dirty")
		}
		if !v.MarkDirty(tr.VA) {
			t.Fatalf("MarkDirty refused")
		}
		if r := v.Lookup(Request{VA: tr.VA}); !r.T.Dirty {
			t.Fatalf("MarkDirty not visible")
		}
		if n := v.Invalidate(tr.VA, tr.Size); n != 1 {
			t.Fatalf("Invalidate = %d", n)
		}
		if r := v.Lookup(Request{VA: tr.VA}); r.Hit {
			t.Fatalf("hit after Invalidate")
		}
	}
	dirty := tr4k(9)
	dirty.Dirty = true
	if ok, _ := v.Demote(dirty); !ok {
		t.Fatal("dirty demote refused")
	}
	if r := v.Lookup(Request{VA: tr4k(9).VA}); !r.Hit || !r.T.Dirty {
		t.Fatalf("dirty bit lost across demotion: %+v", r)
	}
	v.Flush()
	if got := v.Dump(); len(got) != 0 {
		t.Fatalf("%d entries after Flush", len(got))
	}
}

// TestVictimDemotionConservation is the conservation law of demotion:
// over any sequence of demotions of distinct pages, every accepted entry
// is either still resident or was displaced (and counted); every refused
// entry was refused for cause (1GB or invalid). Nothing vanishes
// silently.
func TestVictimDemotionConservation(t *testing.T) {
	rng := simrand.New(0xbadc0de)
	v := Must(NewVictim("v", 8, 2)) // 128 PTEs: small enough to churn
	var absorbed, displaced, drops int
	for i := uint64(0); i < 2000; i++ {
		var tr pagetable.Translation
		switch rng.Uint64n(20) {
		case 0: // 1GB: must be refused
			tr = pagetable.Translation{VA: addr.V(i << 30), PA: addr.P(i << 30),
				Size: addr.Page1G, Perm: addr.PermRW, Accessed: true}
		case 1: // invalid: must be refused
			tr = pagetable.Translation{}
		case 2, 3, 4:
			tr = tr2m(i)
		default:
			tr = tr4k(i)
		}
		tr.Dirty = rng.Bool(0.3)
		ok, ev := v.Demote(tr)
		if tr.Size == addr.Page1G || !tr.Valid() {
			if ok || ev != 0 {
				t.Fatalf("demotion of %v accepted (ok=%v ev=%d)", tr, ok, ev)
			}
			drops++
			continue
		}
		if !ok {
			t.Fatalf("valid %v demotion refused", tr.Size)
		}
		absorbed++
		displaced += ev
	}
	resident := len(v.Dump())
	if absorbed != resident+displaced {
		t.Fatalf("conservation violated: %d absorbed != %d resident + %d displaced",
			absorbed, resident, displaced)
	}
	if drops == 0 || displaced == 0 {
		t.Fatalf("degenerate stream: drops=%d displaced=%d", drops, displaced)
	}
	// ReachBytes agrees with the member dump.
	var want uint64
	for _, tr := range v.Dump() {
		want += tr.Size.Bytes()
	}
	if got := v.ReachBytes(); got != want {
		t.Fatalf("ReachBytes = %d, dump says %d", got, want)
	}
}

// TestEvictionSinkConservation checks the feeder side of demotion: with
// an eviction sink attached, every Fill of a distinct page either stays
// resident or is reported to the sink exactly once — SRAM levels cannot
// drop entries silently. Invalidate and Flush must NOT report (they are
// coherence actions, not capacity evictions).
func TestEvictionSinkConservation(t *testing.T) {
	builders := map[string]func() TLB{
		"setassoc": func() TLB { return Must(NewSetAssoc("t", addr.Page4K, 4, 2)) },
		"rehash":   func() TLB { return Must(NewHashRehash("t", 4, 2, addr.Page4K, addr.Page2M)) },
		"split":    func() TLB { return Must(NewHaswellL1()) },
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			tl := build()
			en, ok := tl.(EvictionNotifier)
			if !ok {
				t.Fatalf("%T does not notify evictions", tl)
			}
			evicted := 0
			en.SetEvictionSink(func(tr pagetable.Translation) {
				if !tr.Valid() {
					t.Fatalf("sink got invalid translation %+v", tr)
				}
				evicted++
			})
			filled := 0
			for i := uint64(0); i < 500; i++ {
				tr := tr4k(i)
				if c := tl.Fill(Request{VA: tr.VA}, pagetable.WalkResult{Found: true, Translation: tr,
					Line: []pagetable.Translation{tr}}); c.EntriesWritten > 0 {
					filled++
				}
			}
			resident := 0
			for i := uint64(0); i < 500; i++ {
				if r := tl.Lookup(Request{VA: tr4k(i).VA}); r.Hit {
					resident++
				}
			}
			if filled != resident+evicted {
				t.Fatalf("conservation violated: %d filled != %d resident + %d evicted",
					filled, resident, evicted)
			}
			if evicted == 0 {
				t.Fatal("stream never overflowed the TLB; property unexercised")
			}
			// Coherence actions must not masquerade as capacity evictions.
			before := evicted
			tl.Invalidate(tr4k(499).VA, addr.Page4K)
			tl.Flush()
			if evicted != before {
				t.Fatalf("Invalidate/Flush reported %d spurious evictions", evicted-before)
			}
		})
	}
}
