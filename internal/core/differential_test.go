package core_test

// An external test package: the conformance suite pulls its designs from
// the mmu registry, and mmu imports core, so the test must sit outside
// the core package to avoid the import cycle.

import (
	"fmt"
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/isa"
	"mixtlb/internal/mmu"
	"mixtlb/internal/pagetable"
	"mixtlb/internal/physmem"
	"mixtlb/internal/simrand"
	"mixtlb/internal/tlb"
)

const diffSeed = 0xd1ff

// diffEnv builds the shared oracle: a 32MB region with a random mix of
// 2MB and 4KB mappings, plus one 1GB page so every size class is
// exercised.
type diffEnv struct {
	pt    *pagetable.PageTable
	base  addr.V
	gigVA addr.V
}

const diffRegionBytes = 32 << 20

func newDiffEnv(t *testing.T) *diffEnv {
	t.Helper()
	buddy := physmem.NewBuddy(4 << 30)
	pt, err := pagetable.NewISA(buddy, isa.Default())
	if err != nil {
		t.Fatal(err)
	}
	base := addr.V(0x40000000)
	maprng := simrand.New(diffSeed)
	for off := uint64(0); off < diffRegionBytes; off += addr.Size2M {
		va := base + addr.V(off)
		if maprng.Bool(0.5) {
			pa, ok := buddy.AllocPage(addr.Page2M)
			if !ok {
				t.Fatal("2MB alloc failed")
			}
			if err := pt.Map(va, pa, addr.Page2M, addr.PermRW); err != nil {
				t.Fatal(err)
			}
			continue
		}
		for o := uint64(0); o < addr.Size2M; o += addr.Size4K {
			pa, ok := buddy.AllocPage(addr.Page4K)
			if !ok {
				t.Fatal("4KB alloc failed")
			}
			if err := pt.Map(va+addr.V(o), pa, addr.Page4K, addr.PermRW); err != nil {
				t.Fatal(err)
			}
		}
	}
	gigVA := addr.V(0x100000000)
	gigPA, ok := buddy.AllocPage(addr.Page1G)
	if !ok {
		t.Fatal("1GB alloc failed")
	}
	if err := pt.Map(gigVA, gigPA, addr.Page1G, addr.PermRW); err != nil {
		t.Fatal(err)
	}
	return &diffEnv{pt: pt, base: base, gigVA: gigVA}
}

// conform replays one seeded reference stream, with randomly interleaved
// invalidations, through the TLB, holding it to the page-table oracle: a
// hit must return exactly the ground-truth physical address and page
// size, and an invalidated page must never hit again before a refill.
func conform(t *testing.T, name string, tl tlb.TLB, e *diffEnv) {
	t.Helper()
	rng := simrand.New(diffSeed) // identical stream for every design
	hits := 0
	for i := 0; i < 30_000; i++ {
		var va addr.V
		if rng.Bool(0.02) {
			va = e.gigVA + addr.V(rng.Uint64n(addr.Size1G))
		} else {
			va = e.base + addr.V(rng.Uint64n(diffRegionBytes))
		}
		tr, mapped := e.pt.Lookup(va)
		if !mapped {
			t.Fatalf("%s: test bug — VA %v unmapped", name, va)
		}
		r := tl.Lookup(tlb.Request{VA: va, PC: uint64(i)})
		if r.Hit {
			hits++
			if got, want := r.T.Translate(va), tr.Translate(va); got != want {
				t.Fatalf("%s: ref %d VA %v: PA %v, oracle says %v", name, i, va, got, want)
			}
			if r.T.Size != tr.Size {
				t.Fatalf("%s: ref %d VA %v: size %v, oracle says %v", name, i, va, r.T.Size, tr.Size)
			}
		} else {
			walk := e.pt.Walk(va)
			if !walk.Found {
				t.Fatalf("%s: oracle walk failed for mapped VA %v", name, va)
			}
			// Victim levels fill only by eviction-driven demotion (their
			// Fill is a no-op); feed them the walk result the way the
			// hierarchy would. 1GB entries are refused by contract and
			// simply never hit.
			if dem, ok := tl.(tlb.Demoter); ok {
				dem.Demote(walk.Translation, false)
			} else {
				tl.Fill(tlb.Request{VA: va, PC: uint64(i)}, walk)
			}
		}
		// Random interleaved invalidation of some resident page: the
		// next lookup of that page must miss, not serve a stale entry.
		if rng.Bool(1.0 / 64) {
			ivVA := e.base + addr.V(rng.Uint64n(diffRegionBytes))
			ivTr, _ := e.pt.Lookup(ivVA)
			tl.Invalidate(ivTr.VA, ivTr.Size)
			if tl.Lookup(tlb.Request{VA: ivVA}).Hit {
				t.Fatalf("%s: hit on %v right after invalidation", name, ivVA)
			}
		}
	}
	if hits == 0 {
		t.Errorf("%s: stream never hit — conformance untested", name)
	}
}

// TestDifferentialConformance runs the conformance stream through every
// hierarchy level of every registry design — so a design added to the
// registry is held to the oracle automatically — plus a few raw
// organizations (predictor-less rehash and skew, standalone CoLT) that no
// registered design exposes directly. The designs differ wildly in hit
// ratio — that is their point — but never in correctness. Ideal designs
// are skipped: tlb.NewIdeal answers from the page table itself, so the
// stream would hold the oracle to the oracle.
func TestDifferentialConformance(t *testing.T) {
	e := newDiffEnv(t)
	tested := 0
	seen := map[mmu.LevelSpec]bool{} // identical specs build identical TLBs
	for _, spec := range mmu.DefaultRegistry().Specs() {
		if spec.FreeWalks {
			continue
		}
		tlbs, err := spec.BuildTLBs(e.pt)
		if err != nil {
			t.Fatalf("design %q failed to build: %v", spec.Name, err)
		}
		for i, tl := range tlbs {
			key := spec.Levels[i]
			key.Name = "" // geometry, not label, determines behavior
			key.HitLatency = 0
			if seen[key] {
				continue
			}
			seen[key] = true
			conform(t, fmt.Sprintf("%s/L%d", spec.Name, i+1), tl, e)
			tested++
		}
	}
	if tested < 10 {
		t.Errorf("only %d distinct registry levels conformance-tested", tested)
	}

	extras := map[string]tlb.TLB{
		"rehash":  tlb.Must(tlb.NewHashRehash("t", 16, 4, addr.Page4K, addr.Page2M, addr.Page1G)),
		"skew":    tlb.Must(tlb.NewSkewAllSizes("t", 16, 2)),
		"colt-4k": tlb.Must(tlb.NewColt("t", addr.Page4K, 8, 4, 4)),
	}
	for name, tl := range extras {
		conform(t, name, tl, e)
	}
}
