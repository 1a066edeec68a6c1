package tlb

import (
	"errors"
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/isa"
	"mixtlb/internal/pagetable"
)

// walkFor fabricates a walker result for a single translation with the
// accessed bit set (as the real walker guarantees on fill, Sec 4.4).
func walkFor(va addr.V, pa addr.P, size addr.PageSize) pagetable.WalkResult {
	tr := pagetable.Translation{
		VA: va.PageBase(size), PA: pa.PageBase(size), Size: size,
		Perm: addr.PermRW, Accessed: true,
	}
	return pagetable.WalkResult{Found: true, Translation: tr, Line: []pagetable.Translation{tr}}
}

// walkLine fabricates a walk whose PTE cache line carries several
// translations; the first is the demanded one.
func walkLine(trs ...pagetable.Translation) pagetable.WalkResult {
	return pagetable.WalkResult{Found: true, Translation: trs[0], Line: trs}
}

func lookup(t TLB, va addr.V) Result { return t.Lookup(Request{VA: va}) }

func fillAndCheck(t *testing.T, tl TLB, va addr.V, pa addr.P, size addr.PageSize) {
	t.Helper()
	tl.Fill(Request{VA: va}, walkFor(va, pa, size))
	r := lookup(tl, va)
	if !r.Hit {
		t.Fatalf("%s: no hit after fill of %v", tl.Name(), va)
	}
	want := pa.PageBase(size) + addr.P(va.Offset(size))
	if got := r.T.Translate(va); got != want {
		t.Fatalf("%s: Translate(%v) = %v, want %v", tl.Name(), va, got, want)
	}
}

func TestSetAssocBasic(t *testing.T) {
	tl := Must(NewSetAssoc("t", addr.Page4K, 4, 2))
	if tl.Entries() != 8 {
		t.Errorf("Entries = %d", tl.Entries())
	}
	fillAndCheck(t, tl, 0x1234, 0x5000, addr.Page4K)
	// Miss on a different page.
	if lookup(tl, 0x9999000).Hit {
		t.Error("hit on never-filled page")
	}
	// Offsets within the page hit.
	if !lookup(tl, 0x1fff).Hit {
		t.Error("miss within filled page")
	}
	// Lookup cost: one probe, reads all ways.
	r := lookup(tl, 0x1000)
	if r.Cost.Probes != 1 || r.Cost.WaysRead != 2 {
		t.Errorf("cost = %+v", r.Cost)
	}
}

func TestSetAssocIgnoresOtherSizes(t *testing.T) {
	tl := Must(NewSetAssoc("t", addr.Page4K, 4, 2))
	c := tl.Fill(Request{VA: 0x200000}, walkFor(0x200000, 0x400000, addr.Page2M))
	if c.EntriesWritten != 0 {
		t.Error("4KB TLB accepted a 2MB fill")
	}
	if lookup(tl, 0x200000).Hit {
		t.Error("hit after rejected fill")
	}
}

func TestSetAssocLRUWithinSet(t *testing.T) {
	tl := Must(NewSetAssoc("t", addr.Page4K, 1, 2)) // fully associative, 2 entries
	fillAndCheck(t, tl, 0x1000, 0x1000, addr.Page4K)
	fillAndCheck(t, tl, 0x2000, 0x2000, addr.Page4K)
	lookup(tl, 0x1000) // refresh 0x1000; 0x2000 is now LRU
	tl.Fill(Request{VA: 0x3000}, walkFor(0x3000, 0x3000, addr.Page4K))
	if !lookup(tl, 0x1000).Hit {
		t.Error("MRU entry evicted")
	}
	if lookup(tl, 0x2000).Hit {
		t.Error("LRU entry survived")
	}
}

func TestSetAssocConflictMisses(t *testing.T) {
	// Pages 4 sets apart collide; with 2 ways, the third conflicting fill
	// evicts the first.
	tl := Must(NewSetAssoc("t", addr.Page4K, 4, 2))
	for i := 0; i < 3; i++ {
		va := addr.V(i * 4 * addr.Size4K)
		tl.Fill(Request{VA: va}, walkFor(va, addr.P(va), addr.Page4K))
	}
	if lookup(tl, 0).Hit {
		t.Error("conflict victim survived")
	}
	if !lookup(tl, 4*addr.Size4K).Hit || !lookup(tl, 8*addr.Size4K).Hit {
		t.Error("later conflicting entries missing")
	}
}

func TestSetAssocInvalidateAndFlush(t *testing.T) {
	tl := Must(NewSetAssoc("t", addr.Page2M, 2, 2))
	fillAndCheck(t, tl, 0x200000, 0xa00000, addr.Page2M)
	if n := tl.Invalidate(0x200000, addr.Page4K); n != 0 {
		t.Error("invalidate with wrong size removed entries")
	}
	if n := tl.Invalidate(0x3fffff, addr.Page2M); n != 1 {
		t.Errorf("Invalidate = %d", n)
	}
	if lookup(tl, 0x200000).Hit {
		t.Error("hit after invalidate")
	}
	fillAndCheck(t, tl, 0x200000, 0xa00000, addr.Page2M)
	tl.Flush()
	if lookup(tl, 0x200000).Hit {
		t.Error("hit after flush")
	}
}

func TestSetAssocDirty(t *testing.T) {
	tl := Must(NewSetAssoc("t", addr.Page4K, 2, 2))
	tl.Fill(Request{VA: 0x1000}, walkFor(0x1000, 0x1000, addr.Page4K))
	if r := lookup(tl, 0x1000); r.Dirty {
		t.Error("fresh entry dirty")
	}
	if !tl.MarkDirty(0x1000) {
		t.Error("MarkDirty failed")
	}
	if r := lookup(tl, 0x1000); !r.Dirty {
		t.Error("entry not dirty after MarkDirty")
	}
	if tl.MarkDirty(0x999000) {
		t.Error("MarkDirty on absent entry succeeded")
	}
}

func TestSetAssocBadGeometry(t *testing.T) {
	if _, err := NewSetAssoc("bad", addr.Page4K, 3, 4); err == nil {
		t.Fatal("no error for non-power-of-two set count")
	} else if ce := (*ConfigError)(nil); !errors.As(err, &ce) || ce.TLB != "bad" {
		t.Fatalf("error %v is not a ConfigError for %q", err, "bad")
	}
}

func TestSplitRoutesBySize(t *testing.T) {
	s := Must(NewHaswellL1())
	if s.Entries() != 64+32+4 {
		t.Errorf("Entries = %d", s.Entries())
	}
	fillAndCheck(t, s, 0x1000, 0x7000, addr.Page4K)
	fillAndCheck(t, s, 0x200000, 0x800000, addr.Page2M)
	fillAndCheck(t, s, 0x40000000, 0x80000000, addr.Page1G)
	// Parallel probe: 1 round, ways summed.
	r := lookup(s, 0x1000)
	if r.Cost.Probes != 1 {
		t.Errorf("probes = %d", r.Cost.Probes)
	}
	if r.Cost.WaysRead != 4+4+4 {
		t.Errorf("ways read = %d", r.Cost.WaysRead)
	}
}

// TestSplitUnderutilization demonstrates the paper's Figure 1 pathology at
// unit scale: with only 4KB pages, the 2MB/1GB components are dead weight;
// an all-4KB working set larger than the 64-entry 4KB component thrashes
// even though 36 superpage entries sit idle.
func TestSplitUnderutilization(t *testing.T) {
	s := Must(NewHaswellL1())
	const pages = 80 // > 64-entry 4KB component
	for round := 0; round < 2; round++ {
		for i := 0; i < pages; i++ {
			va := addr.V(i * addr.Size4K)
			if !lookup(s, va).Hit {
				s.Fill(Request{VA: va}, walkFor(va, addr.P(va), addr.Page4K))
			}
		}
	}
	// Third pass: misses persist despite total capacity (100) exceeding
	// the working set, because only the 64-entry component participates.
	misses := 0
	for i := 0; i < pages; i++ {
		if !lookup(s, addr.V(i*addr.Size4K)).Hit {
			misses++
		}
	}
	if misses == 0 {
		t.Error("split TLB absorbed a working set larger than its 4KB component")
	}
}

func TestSplitEmptyErrors(t *testing.T) {
	if _, err := NewSplit("bad"); err == nil {
		t.Fatal("no error for a split TLB with no components")
	}
	if _, err := NewSplit("bad", nil); err == nil {
		t.Fatal("no error for a nil component")
	}
}

func TestHashRehashAllSizes(t *testing.T) {
	h := Must(NewHashRehash("h", 16, 4, addr.Page4K, addr.Page2M, addr.Page1G))
	fillAndCheck(t, h, 0x1000, 0x2000, addr.Page4K)
	fillAndCheck(t, h, 0x200000, 0x400000, addr.Page2M)
	fillAndCheck(t, h, 0x40000000, 0xc0000000, addr.Page1G)
	// 4KB hits in the first probe round.
	if r := lookup(h, 0x1000); r.Cost.Probes != 1 {
		t.Errorf("4KB probes = %d", r.Cost.Probes)
	}
	// 1GB pages need all three rounds.
	if r := lookup(h, 0x40000000); r.Cost.Probes != 3 || !r.Hit {
		t.Errorf("1GB lookup: hit=%v probes=%d", r.Hit, r.Cost.Probes)
	}
	// A complete miss pays every round.
	if r := lookup(h, 0x7f0000000000); r.Hit || r.Cost.Probes != 3 {
		t.Errorf("miss: hit=%v probes=%d", r.Hit, r.Cost.Probes)
	}
}

func TestHashRehashSizeSubset(t *testing.T) {
	// Haswell-style: 4KB+2MB only; 1GB fills are refused.
	h := Must(NewHashRehash("h", 16, 4, addr.Page4K, addr.Page2M))
	if c := h.Fill(Request{VA: 0x40000000}, walkFor(0x40000000, 0, addr.Page1G)); c.EntriesWritten != 0 {
		t.Error("accepted 1GB fill")
	}
	if n := h.Invalidate(0x40000000, addr.Page1G); n != 0 {
		t.Error("invalidated unsupported size")
	}
}

func TestHashRehashNoFalseHits(t *testing.T) {
	// A 4KB entry must not satisfy a lookup that would alias at 2MB
	// indexing (size is part of the match).
	h := Must(NewHashRehash("h", 2, 4, addr.Page4K, addr.Page2M))
	h.Fill(Request{VA: 0x200000}, walkFor(0x200000, 0x1000000, addr.Page4K))
	r := lookup(h, 0x201000) // different 4KB page, same 2MB page
	if r.Hit {
		t.Error("false hit across sizes")
	}
}

func TestPredictedRehashLearns(t *testing.T) {
	inner := Must(NewHashRehash("h", 16, 4, addr.Page4K, addr.Page2M, addr.Page1G))
	pred := Must(NewSizePredictor(256))
	p := NewPredicted(inner, pred)
	const pc = 0xdeadbeef
	va := addr.V(0x40000000)
	p.Fill(Request{VA: va, PC: pc}, walkFor(va, 0x80000000, addr.Page1G))
	// First lookup after training probes 1GB first: single round.
	r := p.Lookup(Request{VA: va, PC: pc})
	if !r.Hit || r.Cost.Probes != 1 {
		t.Errorf("trained lookup: hit=%v probes=%d", r.Hit, r.Cost.Probes)
	}
	if r.Cost.PredictorReads != 1 {
		t.Errorf("predictor reads = %d", r.Cost.PredictorReads)
	}
	// A different PC with no history mispredicts (defaults to 4KB) and
	// pays extra rounds.
	r = p.Lookup(Request{VA: va, PC: 0x1111})
	if !r.Hit || r.Cost.Probes != 3 {
		t.Errorf("untrained lookup: hit=%v probes=%d", r.Hit, r.Cost.Probes)
	}
	// A miss probes every size once: the guess leads the order and is
	// not probed again after it.
	r = p.Lookup(Request{VA: 0x7f0000000000, PC: pc})
	if r.Hit || r.Cost.Probes != 3 {
		t.Errorf("miss after 1GB guess: hit=%v probes=%d", r.Hit, r.Cost.Probes)
	}
	if pred.Accuracy() <= 0 {
		t.Error("accuracy not tracked")
	}
}

func TestPredictorHysteresis(t *testing.T) {
	p := Must(NewSizePredictor(16))
	const pc = 42
	for i := 0; i < 4; i++ {
		p.Update(pc, addr.Page2M)
	}
	// One contrary sample must not flip a saturated entry.
	p.Update(pc, addr.Page4K)
	if got := p.Predict(pc); got != addr.Page2M {
		t.Errorf("prediction flipped to %v after one contrary sample", got)
	}
	// Sustained contrary samples eventually retrain.
	for i := 0; i < 8; i++ {
		p.Update(pc, addr.Page4K)
	}
	if got := p.Predict(pc); got != addr.Page4K {
		t.Errorf("prediction stuck at %v", got)
	}
}

func TestSkewBasic(t *testing.T) {
	s := Must(NewSkewAllSizes("skew", 16, 2))
	if s.Ways() != 6 || s.Entries() != 96 {
		t.Errorf("ways=%d entries=%d", s.Ways(), s.Entries())
	}
	fillAndCheck(t, s, 0x1000, 0x2000, addr.Page4K)
	fillAndCheck(t, s, 0x200000, 0x400000, addr.Page2M)
	fillAndCheck(t, s, 0x40000000, 0xc0000000, addr.Page1G)
	// Lookup reads every way in one round.
	r := lookup(s, 0x1000)
	if r.Cost.Probes != 1 || r.Cost.WaysRead != 6 {
		t.Errorf("cost = %+v", r.Cost)
	}
}

func TestSkewPredictedLookupEnergy(t *testing.T) {
	s := Must(NewSkewAllSizes("skew", 16, 2))
	fillAndCheck(t, s, 0x200000, 0x400000, addr.Page2M)
	// Correct prediction reads only that size's 2 ways.
	r := s.LookupPredicted(Request{VA: 0x200000}, addr.Page2M)
	if !r.Hit || r.Cost.WaysRead != 2 || r.Cost.Probes != 1 {
		t.Errorf("correct prediction: %+v", r.Cost)
	}
	// Wrong prediction pays a second round over the remaining 4 ways.
	r = s.LookupPredicted(Request{VA: 0x200000}, addr.Page4K)
	if !r.Hit || r.Cost.WaysRead != 6 || r.Cost.Probes != 2 {
		t.Errorf("misprediction: %+v", r.Cost)
	}
}

func TestSkewReplacementRespectsSizePartition(t *testing.T) {
	// Fill many 4KB pages: they must never evict superpage entries (ways
	// are partitioned by size).
	s := Must(NewSkewAllSizes("skew", 4, 1))
	fillAndCheck(t, s, 0x200000, 0x600000, addr.Page2M)
	for i := 0; i < 64; i++ {
		va := addr.V(i * addr.Size4K)
		s.Fill(Request{VA: va}, walkFor(va, addr.P(va), addr.Page4K))
	}
	if !lookup(s, 0x200000).Hit {
		t.Error("2MB entry evicted by 4KB fills")
	}
}

func TestSkewInvalidate(t *testing.T) {
	s := Must(NewSkewAllSizes("skew", 8, 2))
	fillAndCheck(t, s, 0x200000, 0x600000, addr.Page2M)
	if n := s.Invalidate(0x2fffff, addr.Page2M); n != 1 {
		t.Errorf("Invalidate = %d", n)
	}
	if lookup(s, 0x200000).Hit {
		t.Error("hit after invalidate")
	}
}

func TestPredictedSkewEndToEnd(t *testing.T) {
	s := NewPredicted(Must(NewSkewAllSizes("skew", 16, 2)), Must(NewSizePredictor(64)))
	const pc = 7
	va := addr.V(0x200000)
	s.Fill(Request{VA: va, PC: pc}, walkFor(va, 0x800000, addr.Page2M))
	r := s.Lookup(Request{VA: va, PC: pc})
	if !r.Hit || r.Cost.WaysRead != 2 {
		t.Errorf("trained predicted-skew lookup: hit=%v ways=%d", r.Hit, r.Cost.WaysRead)
	}
}

func mk2M(pageNum, physPage uint64, perm addr.Perm, acc bool) pagetable.Translation {
	return pagetable.Translation{
		VA: addr.V(pageNum << addr.Shift2M), PA: addr.P(physPage << addr.Shift2M),
		Size: addr.Page2M, Perm: perm, Accessed: acc,
	}
}

func TestColtCoalescesContiguousRun(t *testing.T) {
	c := Must(NewColt("colt", addr.Page2M, 8, 2, 4))
	// Pages 4,5,6,7 VA-contiguous and PA-contiguous: window-aligned run.
	line := []pagetable.Translation{
		mk2M(4, 100, addr.PermRW, true),
		mk2M(5, 101, addr.PermRW, true),
		mk2M(6, 102, addr.PermRW, true),
		mk2M(7, 103, addr.PermRW, true),
	}
	c.Fill(Request{VA: line[0].VA}, walkLine(line...))
	for i, tr := range line {
		r := lookup(c, tr.VA+0x1234)
		if !r.Hit {
			t.Fatalf("member %d missed", i)
		}
		if got := r.T.Translate(tr.VA + 0x1234); got != tr.PA+0x1234 {
			t.Errorf("member %d PA = %v, want %v", i, got, tr.PA+0x1234)
		}
	}
}

func TestColtRejectsNonContiguousPhysical(t *testing.T) {
	c := Must(NewColt("colt", addr.Page2M, 8, 2, 4))
	line := []pagetable.Translation{
		mk2M(4, 100, addr.PermRW, true),
		mk2M(5, 200, addr.PermRW, true), // physically discontiguous
	}
	c.Fill(Request{VA: line[0].VA}, walkLine(line...))
	if !lookup(c, line[0].VA).Hit {
		t.Error("demanded translation missing")
	}
	if lookup(c, line[1].VA).Hit {
		t.Error("discontiguous neighbour was coalesced")
	}
}

func TestColtRespectsWindowAlignment(t *testing.T) {
	c := Must(NewColt("colt", addr.Page2M, 8, 2, 4))
	// Pages 6,7,8,9 are contiguous but straddle the window boundary at 8.
	line := []pagetable.Translation{
		mk2M(6, 100, addr.PermRW, true),
		mk2M(7, 101, addr.PermRW, true),
		mk2M(8, 102, addr.PermRW, true),
		mk2M(9, 103, addr.PermRW, true),
	}
	c.Fill(Request{VA: line[0].VA}, walkLine(line...))
	if !lookup(c, line[0].VA).Hit || !lookup(c, line[1].VA).Hit {
		t.Error("same-window members missing")
	}
	if lookup(c, line[2].VA).Hit {
		t.Error("member beyond window boundary was coalesced into this entry")
	}
}

func TestColtPermissionGate(t *testing.T) {
	c := Must(NewColt("colt", addr.Page2M, 8, 2, 4))
	line := []pagetable.Translation{
		mk2M(4, 100, addr.PermRW, true),
		mk2M(5, 101, addr.PermRead, true), // different permissions
		mk2M(6, 102, addr.PermRW, false),  // accessed bit clear
		mk2M(7, 103, addr.PermRW, true),
	}
	c.Fill(Request{VA: line[0].VA}, walkLine(line...))
	if lookup(c, line[1].VA).Hit {
		t.Error("coalesced across differing permissions")
	}
	if lookup(c, line[2].VA).Hit {
		t.Error("coalesced a translation with accessed=0")
	}
	if !lookup(c, line[3].VA).Hit {
		t.Error("valid same-perm member not coalesced")
	}
}

func TestColtMergeOnRefill(t *testing.T) {
	c := Must(NewColt("colt", addr.Page2M, 8, 2, 4))
	c.Fill(Request{VA: mk2M(4, 100, addr.PermRW, true).VA},
		walkLine(mk2M(4, 100, addr.PermRW, true)))
	// Later the adjacent page is demanded: merged into the same entry.
	c.Fill(Request{VA: mk2M(5, 101, addr.PermRW, true).VA},
		walkLine(mk2M(5, 101, addr.PermRW, true)))
	if !lookup(c, mk2M(4, 0, 0, false).VA).Hit || !lookup(c, mk2M(5, 0, 0, false).VA).Hit {
		t.Error("merge lost a member")
	}
}

func TestColtInvalidateMember(t *testing.T) {
	c := Must(NewColt("colt", addr.Page2M, 8, 2, 4))
	line := []pagetable.Translation{
		mk2M(4, 100, addr.PermRW, true),
		mk2M(5, 101, addr.PermRW, true),
	}
	c.Fill(Request{VA: line[0].VA}, walkLine(line...))
	if n := c.Invalidate(line[0].VA, addr.Page2M); n != 1 {
		t.Errorf("Invalidate = %d", n)
	}
	if lookup(c, line[0].VA).Hit {
		t.Error("invalidated member still hits")
	}
	if !lookup(c, line[1].VA).Hit {
		t.Error("sibling lost on member invalidate")
	}
	// Emptying the entry invalidates it fully.
	c.Invalidate(line[1].VA, addr.Page2M)
	if lookup(c, line[1].VA).Hit {
		t.Error("empty entry still hits")
	}
}

func TestColtDirtyPolicy(t *testing.T) {
	c := Must(NewColt("colt", addr.Page2M, 8, 2, 4))
	// Multi-member bundle: MarkDirty must refuse (conservative policy).
	line := []pagetable.Translation{
		mk2M(4, 100, addr.PermRW, true),
		mk2M(5, 101, addr.PermRW, true),
	}
	c.Fill(Request{VA: line[0].VA}, walkLine(line...))
	if c.MarkDirty(line[0].VA) {
		t.Error("multi-member bundle accepted MarkDirty")
	}
	// Singleton bundle: allowed.
	c2 := Must(NewColt("colt", addr.Page2M, 8, 2, 4))
	c2.Fill(Request{VA: line[0].VA}, walkLine(line[0]))
	if !c2.MarkDirty(line[0].VA) {
		t.Error("singleton bundle refused MarkDirty")
	}
	if !lookup(c2, line[0].VA).Dirty {
		t.Error("dirty bit not visible")
	}
}

func TestIdealTLB(t *testing.T) {
	buddy := newTestAllocator()
	pt, err := pagetable.NewISA(buddy, isa.Default())
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(0x200000, 0xa00000, addr.Page2M, addr.PermRW); err != nil {
		t.Fatal(err)
	}
	ideal := NewIdeal(pt)
	r := lookup(ideal, 0x234567)
	if !r.Hit || r.T.Translate(0x234567) != 0xa34567 {
		t.Errorf("ideal lookup: %+v", r)
	}
	if lookup(ideal, 0x40000000).Hit {
		t.Error("ideal hit on unmapped VA")
	}
	if !r.Dirty {
		t.Error("ideal must never inject dirty micro-ops")
	}
	if ideal.Entries() != 0 {
		t.Error("ideal reports finite capacity")
	}
}

// newTestAllocator is a minimal bump allocator so tlb tests don't depend
// on physmem internals.
type bumpAlloc struct{ next addr.P }

func newTestAllocator() *bumpAlloc { return &bumpAlloc{next: 0x100000} }

func (b *bumpAlloc) AllocPage(s addr.PageSize) (addr.P, bool) {
	base := addr.P(addr.AlignedUp(uint64(b.next), s.Bytes()))
	b.next = base + addr.P(s.Bytes())
	return base, true
}
func (b *bumpAlloc) FreePage(addr.P, addr.PageSize) {}

func TestAreaEquivalenceOfBaselines(t *testing.T) {
	// The comparisons in Sec 7.2 are area-equivalent; the stock configs
	// should be within one another's ballpark (exactly 100 L1 entries for
	// split; skew/rehash L1 stand-ins match in the mmu configs).
	if got := Must(NewHaswellL1()).Entries(); got != 100 {
		t.Errorf("Haswell L1 entries = %d", got)
	}
	if got := Must(NewHaswellL2()).Entries(); got != 544 {
		t.Errorf("Haswell L2 entries = %d", got)
	}
	if got := Must(NewColtSplitL1()).Entries(); got != 100 {
		t.Errorf("COLT L1 entries = %d", got)
	}
	if got := Must(NewColtPlusPlusL1()).Entries(); got != 100 {
		t.Errorf("COLT++ L1 entries = %d", got)
	}
}

func TestCostAdd(t *testing.T) {
	a := Cost{Probes: 1, WaysRead: 2, SetsFilled: 3, EntriesWritten: 4, PredictorReads: 5, PredictorWrites: 6}
	b := a
	a.Add(b)
	want := Cost{Probes: 2, WaysRead: 4, SetsFilled: 6, EntriesWritten: 8, PredictorReads: 10, PredictorWrites: 12}
	if a != want {
		t.Errorf("Add = %+v", a)
	}
	a.AddLookup(LookupCost{Probes: 2, WaysRead: 70000, PredictorReads: 1, PredictorWrites: 1})
	want = Cost{Probes: 4, WaysRead: 70004, SetsFilled: 6, EntriesWritten: 8, PredictorReads: 11, PredictorWrites: 13}
	if a != want {
		t.Errorf("AddLookup = %+v", a)
	}
}
