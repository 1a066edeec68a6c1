package osmm

import (
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/isa"
	"mixtlb/internal/pagetable"
	"mixtlb/internal/physmem"
	"mixtlb/internal/simrand"
)

func newAS(t *testing.T, memBytes uint64, cfg Config) (*AddressSpace, *physmem.Buddy) {
	t.Helper()
	phys := physmem.NewBuddy(memBytes)
	as, err := New(phys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return as, phys
}

func TestMmapLayout(t *testing.T) {
	as, _ := newAS(t, 1<<30, Config{Policy: BasePages})
	a, err := as.Mmap(10 << 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := as.Mmap(10 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(a)%addr.Size1G != 0 || uint64(b)%addr.Size1G != 0 {
		t.Error("VMAs not 1GB aligned")
	}
	if b <= a+addr.V(10<<20) {
		t.Error("VMAs overlap")
	}
	if len(as.VMAs()) != 2 {
		t.Errorf("VMAs = %d", len(as.VMAs()))
	}
	if _, err := as.Mmap(0); err == nil {
		t.Error("zero-length mmap succeeded")
	}
}

func TestBasePagesPolicy(t *testing.T) {
	as, _ := newAS(t, 1<<30, Config{Policy: BasePages})
	start, _ := as.Mmap(8 << 20)
	if _, err := as.Populate(start, 8<<20); err != nil {
		t.Fatal(err)
	}
	st := as.Stats()
	if st.Bytes[addr.Page4K] != 8<<20 {
		t.Errorf("4KB bytes = %d", st.Bytes[addr.Page4K])
	}
	if st.Bytes[addr.Page2M] != 0 || st.Bytes[addr.Page1G] != 0 {
		t.Error("superpages allocated under BasePages")
	}
	if st.SuperpageFraction() != 0 {
		t.Errorf("superpage fraction = %v", st.SuperpageFraction())
	}
}

func TestTHSOnPristineMemory(t *testing.T) {
	as, _ := newAS(t, 1<<30, Config{Policy: THS})
	start, _ := as.Mmap(64 << 20)
	if _, err := as.Populate(start, 64<<20); err != nil {
		t.Fatal(err)
	}
	st := as.Stats()
	if st.Bytes[addr.Page2M] != 64<<20 {
		t.Errorf("2MB bytes = %d (fallbacks=%d)", st.Bytes[addr.Page2M], st.SuperFallback)
	}
	if got := st.SuperpageFraction(); got != 1 {
		t.Errorf("superpage fraction = %v", got)
	}
	// Ascending faults on defragmented memory produce one long run.
	rep := ScanContiguity(as.PageTable())
	if got := rep.AverageContiguity(addr.Page2M); got != 32 {
		t.Errorf("average 2MB contiguity = %v, want 32 (one run of 32)", got)
	}
}

func TestTHSUnderFragmentation(t *testing.T) {
	as, phys := newAS(t, 1<<30, Config{Policy: THS})
	hog := physmem.NewMemhog(phys, simrand.New(7))
	hog.ScatterFrac = 1        // worst case: every chunk lands at random
	hog.ScatterClusterBias = 0 // uniformly random, no clustering
	hog.MaxChunkOrder = 0
	hog.Run(0.5) // 50% of frames randomly pinned: no 2MB block survives
	start, _ := as.Mmap(32 << 20)
	if _, err := as.Populate(start, 32<<20); err != nil {
		t.Fatal(err)
	}
	st := as.Stats()
	if st.Bytes[addr.Page2M] != 0 {
		t.Errorf("2MB pages materialized from fragmented memory: %d bytes", st.Bytes[addr.Page2M])
	}
	if st.Bytes[addr.Page4K] != 32<<20 {
		t.Errorf("4KB bytes = %d", st.Bytes[addr.Page4K])
	}
	if st.SuperFallback == 0 {
		t.Error("no fallbacks counted")
	}
}

func TestTHSPartialFragmentation(t *testing.T) {
	// Light fragmentation: some 2MB allocations succeed, some fall back —
	// the mixed regime of Figure 9.
	as, phys := newAS(t, 256<<20, Config{Policy: THS})
	hog := physmem.NewMemhog(phys, simrand.New(3))
	hog.ScatterFrac = 1        // all chunks scattered
	hog.ScatterClusterBias = 0 // uniformly: some regions die, some survive
	hog.Run(0.25)
	start, _ := as.Mmap(128 << 20)
	if _, err := as.Populate(start, 128<<20); err != nil {
		t.Fatal(err)
	}
	frac := as.Stats().SuperpageFraction()
	if frac <= 0 || frac >= 1 {
		t.Errorf("superpage fraction = %v, want mixed regime", frac)
	}
}

func TestHugetlbfs2MPool(t *testing.T) {
	as, _ := newAS(t, 256<<20, Config{Policy: Hugetlbfs2M, PoolBytes: 16 << 20})
	if as.Stats().PoolReserved != 8 {
		t.Fatalf("reserved %d pool pages", as.Stats().PoolReserved)
	}
	start, _ := as.Mmap(32 << 20)
	if _, err := as.Populate(start, 32<<20); err != nil {
		t.Fatal(err)
	}
	st := as.Stats()
	if st.Bytes[addr.Page2M] != 16<<20 {
		t.Errorf("2MB bytes = %d, want pool-limited 16MB", st.Bytes[addr.Page2M])
	}
	if st.Bytes[addr.Page4K] != 16<<20 {
		t.Errorf("4KB bytes = %d", st.Bytes[addr.Page4K])
	}
	if st.PoolMisses == 0 {
		t.Error("pool exhaustion not recorded")
	}
}

func TestHugetlbfs1G(t *testing.T) {
	as, _ := newAS(t, 4<<30, Config{Policy: Hugetlbfs1G, PoolBytes: 2 << 30})
	start, _ := as.Mmap(2 << 30)
	if _, err := as.Populate(start, 2<<30); err != nil {
		t.Fatal(err)
	}
	st := as.Stats()
	if st.Bytes[addr.Page1G] != 2<<30 {
		t.Errorf("1GB bytes = %d", st.Bytes[addr.Page1G])
	}
	rep := ScanContiguity(as.PageTable())
	if got := rep.AverageContiguity(addr.Page1G); got != 2 {
		t.Errorf("1GB contiguity = %v, want 2", got)
	}
}

func TestFaultOutsideVMA(t *testing.T) {
	as, _ := newAS(t, 1<<30, Config{Policy: BasePages})
	if as.HandleFault(0xdeadbeef000, false) {
		t.Error("fault outside every VMA succeeded")
	}
}

func TestRefaultIsIdempotent(t *testing.T) {
	as, _ := newAS(t, 1<<30, Config{Policy: THS})
	start, _ := as.Mmap(4 << 20)
	if !as.HandleFault(start, false) || !as.HandleFault(start+0x1000, true) {
		t.Fatal("faults failed")
	}
	st := as.Stats()
	if st.Bytes[addr.Page2M] != addr.Size2M {
		t.Errorf("double-mapped: %d bytes", st.Bytes[addr.Page2M])
	}
}

func TestTHSRegionPartiallyMappedFallsBack(t *testing.T) {
	// Map one 4KB page via a tiny VMA trick: fragment so first fault
	// falls back, then free fragmentation and fault a neighbour — the
	// 2MB attempt must detect the overlap and use 4KB.
	phys := physmem.NewBuddy(64 << 20)
	as, err := New(phys, Config{Policy: THS})
	if err != nil {
		t.Fatal(err)
	}
	hog := physmem.NewMemhog(phys, simrand.New(1))
	hog.ScatterFrac = 1
	hog.ScatterClusterBias = 0
	hog.MaxChunkOrder = 0
	hog.Run(0.5)
	start, _ := as.Mmap(2 << 20)
	if !as.HandleFault(start, false) {
		t.Fatal("fault failed")
	}
	if as.Stats().Bytes[addr.Page4K] != addr.Size4K {
		t.Fatalf("expected 4KB fallback under fragmentation")
	}
	hog.Release() // memory defragments
	if !as.HandleFault(start+addr.Size4K, false) {
		t.Fatal("second fault failed")
	}
	st := as.Stats()
	if st.Bytes[addr.Page2M] != 0 {
		t.Error("2MB page mapped over existing 4KB mapping")
	}
	if st.Bytes[addr.Page4K] != 2*addr.Size4K {
		t.Errorf("4KB bytes = %d", st.Bytes[addr.Page4K])
	}
	// And no physical memory leaked by the failed 2MB attempt: we can
	// still allocate everything that is free.
	free := phys.FreeFrames()
	pa, ok := phys.AllocPage(addr.Page4K)
	if !ok {
		t.Fatal("allocation failed")
	}
	phys.FreePage(pa, addr.Page4K)
	if phys.FreeFrames() != free {
		t.Error("free accounting drifted")
	}
}

func TestMunmapFreesAndShootsDown(t *testing.T) {
	as, phys := newAS(t, 1<<30, Config{Policy: THS})
	start, _ := as.Mmap(8 << 20)
	as.Populate(start, 8<<20)
	before := phys.FreeFrames()
	var shot []pagetable.Translation
	as.Munmap(start, 8<<20, func(tr pagetable.Translation) { shot = append(shot, tr) })
	if len(shot) != 4 {
		t.Errorf("shootdowns = %d, want 4 (2MB pages)", len(shot))
	}
	if phys.FreeFrames() != before+4*512 {
		t.Errorf("frames not freed: %d -> %d", before, phys.FreeFrames())
	}
	if _, ok := as.PageTable().Lookup(start); ok {
		t.Error("mapping survived munmap")
	}
	if as.Stats().Bytes[addr.Page2M] != 0 {
		t.Error("byte accounting wrong after munmap")
	}
}

func TestScanContiguityMixedRuns(t *testing.T) {
	// Hand-build a page table with known runs: 2MB pages at page numbers
	// 10,11,12 (contiguous), 20 (singleton), and a 4KB run of 2.
	phys := physmem.NewBuddy(256 << 20)
	pt, err := pagetable.NewISA(phys, isa.Default())
	if err != nil {
		t.Fatal(err)
	}
	mapPage := func(vpn, ppn uint64, s addr.PageSize) {
		t.Helper()
		if err := pt.Map(addr.V(vpn<<s.Shift()), addr.P(ppn<<s.Shift()), s, addr.PermRW); err != nil {
			t.Fatal(err)
		}
	}
	mapPage(10, 50, addr.Page2M)
	mapPage(11, 51, addr.Page2M)
	mapPage(12, 52, addr.Page2M)
	mapPage(20, 60, addr.Page2M)
	mapPage(0x40000, 7, addr.Page4K)
	mapPage(0x40001, 8, addr.Page4K)
	rep := ScanContiguity(pt)
	// 2MB: runs of 3 and 1 -> (3*3 + 1*1)/4 = 2.5.
	if got := rep.AverageContiguity(addr.Page2M); got != 2.5 {
		t.Errorf("2MB contiguity = %v, want 2.5", got)
	}
	if got := rep.AverageContiguity(addr.Page4K); got != 2 {
		t.Errorf("4KB contiguity = %v, want 2", got)
	}
	if rep.Footprint[addr.Page2M] != 4*addr.Size2M {
		t.Errorf("2MB footprint = %d", rep.Footprint[addr.Page2M])
	}
	cdf := rep.CDF(addr.Page2M)
	if len(cdf) != 2 || cdf[0].Value != 1 || cdf[0].Frac != 0.25 {
		t.Errorf("2MB CDF = %v", cdf)
	}
}

func TestScanContiguityPhysicalBreaks(t *testing.T) {
	// VA-adjacent but PA-discontiguous pages are separate runs.
	phys := physmem.NewBuddy(256 << 20)
	pt, _ := pagetable.NewISA(phys, isa.Default())
	pt.Map(addr.V(10)<<21, addr.P(50)<<21, addr.Page2M, addr.PermRW)
	pt.Map(addr.V(11)<<21, addr.P(99)<<21, addr.Page2M, addr.PermRW)
	rep := ScanContiguity(pt)
	if got := rep.AverageContiguity(addr.Page2M); got != 1 {
		t.Errorf("contiguity = %v, want 1 (physically broken)", got)
	}
}

func TestPolicyStrings(t *testing.T) {
	for p, want := range map[Policy]string{
		BasePages: "4KB", THS: "THS", Hugetlbfs2M: "2MB", Hugetlbfs1G: "1GB",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q", p, p.String())
		}
	}
}

// TestContiguityDegradesWithFragmentation is the qualitative Figure 11
// property: more memhog, less superpage contiguity.
func TestContiguityDegradesWithFragmentation(t *testing.T) {
	measure := func(frac float64) float64 {
		phys := physmem.NewBuddy(512 << 20)
		as, err := New(phys, Config{Policy: THS})
		if err != nil {
			t.Fatal(err)
		}
		hog := physmem.NewMemhog(phys, simrand.New(11))
		hog.Run(frac)
		// Interleave allocation with churn: map in chunks while the hog
		// churns, so physical allocation order interleaves.
		start, _ := as.Mmap(128 << 20)
		for off := uint64(0); off < 128<<20; off += 16 << 20 {
			as.Populate(start+addr.V(off), 16<<20)
			hog.Run(frac + 0.01)
			hog.Run(frac)
		}
		return ScanContiguity(as.PageTable()).AverageContiguity(addr.Page2M)
	}
	pristine := measure(0)
	fragmented := measure(0.02)
	if pristine <= fragmented {
		t.Errorf("contiguity did not degrade: pristine=%v fragmented=%v", pristine, fragmented)
	}
}

func TestKhugepagedPromotes(t *testing.T) {
	// Map with 4KB pages under fragmentation, then defragment and let
	// khugepaged promote the regions to 2MB.
	phys := physmem.NewBuddy(256 << 20)
	hog := physmem.NewMemhog(phys, simrand.New(1))
	hog.ScatterFrac = 1
	hog.ScatterClusterBias = 0
	hog.MaxChunkOrder = 0
	hog.Run(0.5)
	as, err := New(phys, Config{Policy: THS})
	if err != nil {
		t.Fatal(err)
	}
	start, _ := as.Mmap(16 << 20)
	if _, err := as.Populate(start, 16<<20); err != nil {
		t.Fatal(err)
	}
	if as.Stats().Bytes[addr.Page2M] != 0 {
		t.Fatal("setup: superpages materialized under fragmentation")
	}
	// Nothing promotable while memory stays fragmented.
	if n := as.Khugepaged(1000, nil); n != 0 {
		t.Fatalf("promoted %d regions without free 2MB blocks", n)
	}
	hog.Release() // defragmentation
	var shot []pagetable.Translation
	n := as.Khugepaged(1000, func(tr pagetable.Translation) { shot = append(shot, tr) })
	if n != 8 {
		t.Fatalf("promoted %d regions, want 8", n)
	}
	st := as.Stats()
	if st.Bytes[addr.Page2M] != 16<<20 || st.Bytes[addr.Page4K] != 0 {
		t.Errorf("byte accounting after promotion: %+v", st.Bytes)
	}
	if st.Promotions != 8 {
		t.Errorf("Promotions = %d", st.Promotions)
	}
	if len(shot) != 8*512 {
		t.Errorf("shootdowns = %d, want %d", len(shot), 8*512)
	}
	// Translations are correct and contiguous afterwards.
	rep := ScanContiguity(as.PageTable())
	if rep.SuperpageFraction() != 1 {
		t.Errorf("superpage fraction = %v", rep.SuperpageFraction())
	}
	for off := uint64(0); off < 16<<20; off += addr.Size4K {
		if _, ok := as.PageTable().Lookup(start + addr.V(off)); !ok {
			t.Fatalf("hole at +%#x after promotion", off)
		}
	}
	// No physical memory leaked: the freed 4KB frames are allocatable.
	free := phys.FreeFrames()
	if free < (256<<20-16<<20)/addr.Size4K-1024 {
		t.Errorf("free frames = %d, promotion leaked memory", free)
	}
}

func TestKhugepagedScanBudget(t *testing.T) {
	phys := physmem.NewBuddy(256 << 20)
	as, _ := New(phys, Config{Policy: BasePages})
	start, _ := as.Mmap(32 << 20)
	as.Populate(start, 32<<20)
	// Budget of 3 regions: at most 3 promotions per call.
	if n := as.Khugepaged(3, nil); n > 3 {
		t.Errorf("promoted %d with budget 3", n)
	}
}
