package virt

import (
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/cachesim"
	"mixtlb/internal/mmu"
	"mixtlb/internal/osmm"
	"mixtlb/internal/pagetable"
	"mixtlb/internal/simrand"
	"mixtlb/internal/tlb"
)

func newVM(t *testing.T, hostBytes, guestBytes uint64, guestCfg osmm.Config) (*Machine, *VM) {
	t.Helper()
	m := NewMachine(hostBytes, simrand.New(1))
	vm, err := m.AddVM(guestBytes, guestCfg, simrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	return m, vm
}

func TestNestedWalk24Accesses(t *testing.T) {
	_, vm := newVM(t, 2<<30, 512<<20, osmm.Config{Policy: osmm.BasePages})
	start, _ := vm.GuestAS().Mmap(1 << 20)
	if _, err := vm.Populate(start, 1<<20); err != nil {
		t.Fatal(err)
	}
	// Force 4KB host backing to hit the canonical worst case.
	m2 := NewMachine(2<<30, simrand.New(3))
	m2.Host2MBBacking = false
	vm2, err := m2.AddVM(512<<20, osmm.Config{Policy: osmm.BasePages}, simrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	start2, _ := vm2.GuestAS().Mmap(1 << 20)
	vm2.Populate(start2, 1<<20)
	res := vm2.Walker().Walk(start2)
	if !res.Found {
		t.Fatal("nested walk missed")
	}
	// 4 guest levels x (4 host + 1 guest PTE) + 4 host for the final
	// translation = 24 (Sec 2).
	if len(res.Accesses) != 24 {
		t.Errorf("nested walk made %d accesses, want 24", len(res.Accesses))
	}
	if res.Translation.Size != addr.Page4K {
		t.Errorf("effective size = %v", res.Translation.Size)
	}
}

func TestEffectiveTranslationCorrect(t *testing.T) {
	_, vm := newVM(t, 2<<30, 512<<20, osmm.Config{Policy: osmm.BasePages})
	start, _ := vm.GuestAS().Mmap(1 << 20)
	vm.Populate(start, 1<<20)
	va := start + 0x3456
	res := vm.Walker().Walk(va)
	if !res.Found {
		t.Fatal("walk missed")
	}
	// Cross-check: manual composition of guest and host lookups.
	gtr, ok := vm.GuestAS().PageTable().Lookup(va)
	if !ok {
		t.Fatal("guest lookup missed")
	}
	gpa := gtr.Translate(va)
	htr, ok := vm.NestedPT().Lookup(addr.V(gpa))
	if !ok {
		t.Fatal("host lookup missed")
	}
	want := htr.Translate(addr.V(gpa))
	if got := res.Translation.Translate(va); got != want {
		t.Errorf("effective PA = %v, want %v", got, want)
	}
}

func TestPageSplintering(t *testing.T) {
	// Guest allocates 2MB pages; host backs with 4KB only: effective
	// translations splinter to 4KB.
	m := NewMachine(2<<30, simrand.New(5))
	m.Host2MBBacking = false
	vm, err := m.AddVM(512<<20, osmm.Config{Policy: osmm.THS}, simrand.New(6))
	if err != nil {
		t.Fatal(err)
	}
	start, _ := vm.GuestAS().Mmap(8 << 20)
	vm.Populate(start, 8<<20)
	if vm.GuestAS().Stats().Bytes[addr.Page2M] == 0 {
		t.Fatal("guest did not allocate superpages")
	}
	res := vm.Walker().Walk(start)
	if !res.Found || res.Translation.Size != addr.Page4K {
		t.Errorf("effective translation = %v, want splintered 4KB", res.Translation)
	}
	_, fourK := vm.BackingCounts()
	if fourK == 0 {
		t.Error("no 4KB backings recorded")
	}
}

func TestEffectiveSuperpagesWhenBothDimensionsAgree(t *testing.T) {
	_, vm := newVM(t, 2<<30, 512<<20, osmm.Config{Policy: osmm.THS})
	start, _ := vm.GuestAS().Mmap(16 << 20)
	vm.Populate(start, 16<<20)
	res := vm.Walker().Walk(start)
	if !res.Found || res.Translation.Size != addr.Page2M {
		t.Fatalf("effective translation = %v, want 2MB", res.Translation)
	}
	// A 2MB guest page on 2MB backing: guest walk 3 levels x (host...)
	// — strictly fewer accesses than the 24 worst case.
	if len(res.Accesses) >= 24 {
		t.Errorf("superpage nested walk made %d accesses", len(res.Accesses))
	}
	// Contiguous effective superpages appear in the line for coalescing.
	if len(res.Line) < 2 {
		t.Errorf("effective line has %d entries", len(res.Line))
	}
	two, _ := vm.BackingCounts()
	if two == 0 {
		t.Error("no 2MB backings recorded")
	}
}

func TestNestedWithMixTLBEndToEnd(t *testing.T) {
	// The integration the paper's Fig 14 virtualized bars rely on: a MIX
	// MMU over a nested walker, translating correctly and coalescing
	// effective superpages.
	_, vm := newVM(t, 2<<30, 512<<20, osmm.Config{Policy: osmm.THS})
	start, _ := vm.GuestAS().Mmap(32 << 20)
	caches := cachesim.DefaultHierarchy()
	m, err := mmu.DefaultRegistry().Build(mmu.DesignMix, vm.Walker(), nil, caches, vm.HandleFault)
	if err != nil {
		t.Fatal(err)
	}
	// Touch every 4KB region; every translation must match the manual
	// composition.
	for off := uint64(0); off < 32<<20; off += addr.Size4K {
		va := start + addr.V(off)
		r := m.Translate(tlb.Request{VA: va, Write: off%3 == 0})
		if r.Faulted {
			t.Fatalf("fault at %v", va)
		}
		gtr, ok := vm.GuestAS().PageTable().Lookup(va)
		if !ok {
			t.Fatalf("guest unmapped at %v", va)
		}
		htr, ok := vm.NestedPT().Lookup(addr.V(gtr.Translate(va)))
		if !ok {
			t.Fatalf("host unmapped at %v", va)
		}
		if want := htr.Translate(addr.V(gtr.Translate(va))); r.PA != want {
			t.Fatalf("PA mismatch at %v: got %v want %v", va, r.PA, want)
		}
	}
	st := m.Stats()
	if st.L1Hits == 0 || st.Walks == 0 {
		t.Errorf("implausible stats: %+v", st)
	}
	// With 2MB effective pages coalescing in a MIX TLB, the vast
	// majority of accesses hit.
	if ratio := st.MissRatio(); ratio > 0.01 {
		t.Errorf("miss ratio %v too high for coalesced superpages", ratio)
	}
}

func TestDirtyPropagatesToBothDimensions(t *testing.T) {
	_, vm := newVM(t, 2<<30, 512<<20, osmm.Config{Policy: osmm.BasePages})
	start, _ := vm.GuestAS().Mmap(1 << 20)
	vm.Populate(start, 1<<20)
	vm.Walker().Walk(start) // ensure backing
	if !vm.Walker().SetDirty(start) {
		t.Fatal("SetDirty failed")
	}
	gtr, _ := vm.GuestAS().PageTable().Lookup(start)
	if !gtr.Dirty {
		t.Error("guest PTE not dirty")
	}
	htr, _ := vm.NestedPT().Lookup(addr.V(gtr.Translate(start)))
	if !htr.Dirty {
		t.Error("host PTE not dirty")
	}
}

func TestGuestFaultPropagates(t *testing.T) {
	_, vm := newVM(t, 1<<30, 256<<20, osmm.Config{Policy: osmm.BasePages})
	res := vm.Walker().Walk(0xdeadbeef000)
	if res.Found {
		t.Error("walk of unmapped guest VA found a translation")
	}
	if vm.HandleFault(0xdeadbeef000, false) {
		t.Error("guest fault outside VMA succeeded")
	}
}

func TestConsolidationSplintersBackings(t *testing.T) {
	// Fill the host with VMs: later guests find the host unable to back
	// with 2MB pages once free memory tightens and fragments.
	host := NewMachine(1<<30, simrand.New(9))
	host.HostHog().ScatterFrac = 1          // hostile fragmentation
	host.HostHog().UnmovableFrac = 1        // compaction cannot rescue...
	host.HostHog().UnmovableScatterFrac = 1 // ...anywhere (fallback pollution)
	host.HostHog().MaxChunkOrder = 4
	host.HostHog().Run(0.35)
	var splintered bool
	for i := 0; i < 3; i++ {
		vm, err := host.AddVM(192<<20, osmm.Config{Policy: osmm.THS}, simrand.New(uint64(10+i)))
		if err != nil {
			t.Fatal(err)
		}
		start, _ := vm.GuestAS().Mmap(160 << 20)
		if _, err := vm.Populate(start, 160<<20); err != nil {
			break // host exhausted: acceptable under consolidation
		}
		// Touch to force backing.
		for off := uint64(0); off < 160<<20; off += addr.Size2M {
			vm.Walker().Walk(start + addr.V(off))
		}
		_, fourK := vm.BackingCounts()
		if fourK > 0 {
			splintered = true
		}
	}
	if !splintered {
		t.Error("no backing ever splintered despite host pressure")
	}
}

func TestEffectiveContiguityReport(t *testing.T) {
	_, vm := newVM(t, 2<<30, 512<<20, osmm.Config{Policy: osmm.THS})
	start, _ := vm.GuestAS().Mmap(32 << 20)
	vm.Populate(start, 32<<20)
	for off := uint64(0); off < 32<<20; off += addr.Size2M {
		vm.Walker().Walk(start + addr.V(off))
	}
	rep := vm.EffectiveContiguity()
	if rep.Footprint[addr.Page2M] == 0 {
		t.Fatal("no effective 2MB pages")
	}
	if got := rep.AverageContiguity(addr.Page2M); got < 2 {
		t.Errorf("effective 2MB contiguity = %v", got)
	}
}

// TestNestedSetDirtyLineMatchesTwoStep checks the single-call dirty
// assist against the path it replaced — SetDirty(va) then Walk(va).Line —
// on twin VMs built from the same seeds: at random VAs (some unmapped)
// both must return the same line and leave identical guest and host
// A/D bits. The same twins also pin WalkInto on a reused result to a
// fresh Walk.
func TestNestedSetDirtyLineMatchesTwoStep(t *testing.T) {
	for _, tc := range []struct {
		name    string
		policy  osmm.Policy
		host2MB bool
	}{
		{"ths-on-2mb", osmm.THS, true},
		{"4kb-on-4kb", osmm.BasePages, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			twin := func() (*VM, addr.V) {
				m := NewMachine(1<<30, simrand.New(21))
				m.Host2MBBacking = tc.host2MB
				vm, err := m.AddVM(256<<20, osmm.Config{Policy: tc.policy}, simrand.New(22))
				if err != nil {
					t.Fatal(err)
				}
				start, _ := vm.GuestAS().Mmap(16 << 20)
				if _, err := vm.Populate(start, 16<<20); err != nil {
					t.Fatal(err)
				}
				return vm, start
			}
			vmA, start := twin()
			vmB, startB := twin()
			if start != startB {
				t.Fatalf("twins mapped at %v and %v", start, startB)
			}
			fused, ref := vmA.Walker(), vmB.Walker()
			rng := simrand.New(23)
			var buf []pagetable.Translation
			var walk pagetable.WalkResult
			for i := 0; i < 2000; i++ {
				va := start + addr.V(rng.Uint64n(20<<20)) // past the end: unmapped
				if i%2 == 0 {
					fused.WalkInto(va, &walk)
					if want := ref.Walk(va); !sameWalk(walk, want) {
						t.Fatalf("WalkInto(%v) = %+v, Walk = %+v", va, walk, want)
					}
					continue
				}
				buf = fused.SetDirtyLine(va, buf)
				ref.SetDirty(va)
				want := ref.Walk(va).Line
				if len(buf) != len(want) {
					t.Fatalf("SetDirtyLine(%v) line has %d entries, want %d", va, len(buf), len(want))
				}
				for j := range want {
					if buf[j] != want[j] {
						t.Fatalf("SetDirtyLine(%v) line[%d] = %v, want %v", va, j, buf[j], want[j])
					}
				}
			}
			for _, pts := range [][2]*pagetable.PageTable{
				{vmA.GuestAS().PageTable(), vmB.GuestAS().PageTable()},
				{vmA.NestedPT(), vmB.NestedPT()},
			} {
				a, b := dumpPT(pts[0]), dumpPT(pts[1])
				if len(a) != len(b) {
					t.Fatalf("twins map %d vs %d pages", len(a), len(b))
				}
				for j := range a {
					if a[j] != b[j] {
						t.Fatalf("page-table entry %d: %v, want %v", j, a[j], b[j])
					}
				}
			}
		})
	}
}

func sameWalk(a, b pagetable.WalkResult) bool {
	if a.Found != b.Found || a.Translation != b.Translation || a.ContigPages != b.ContigPages ||
		a.Leaf.Valid() || len(a.Accesses) != len(b.Accesses) || len(a.Line) != len(b.Line) {
		return false
	}
	for i := range a.Accesses {
		if a.Accesses[i] != b.Accesses[i] {
			return false
		}
	}
	for i := range a.Line {
		if a.Line[i] != b.Line[i] {
			return false
		}
	}
	return true
}

// dumpPT lists every live translation, A/D bits included.
func dumpPT(pt *pagetable.PageTable) []pagetable.Translation {
	var out []pagetable.Translation
	pt.ForEach(func(tr pagetable.Translation) bool {
		out = append(out, tr)
		return true
	})
	return out
}
