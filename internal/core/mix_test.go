package core

import (
	"testing"
	"testing/quick"

	"mixtlb/internal/addr"
	"mixtlb/internal/pagetable"
	"mixtlb/internal/simrand"
	"mixtlb/internal/tlb"
)

// tr builds a page-aligned translation with the accessed bit set.
func tr(vpn, ppn uint64, size addr.PageSize) pagetable.Translation {
	return pagetable.Translation{
		VA: addr.V(vpn << size.Shift()), PA: addr.P(ppn << size.Shift()),
		Size: size, Perm: addr.PermRW, Accessed: true,
	}
}

// walkOf fabricates a walk whose demanded translation is trs[0] and whose
// PTE cache line carries all of trs.
func walkOf(trs ...pagetable.Translation) pagetable.WalkResult {
	return pagetable.WalkResult{Found: true, Translation: trs[0], Line: trs}
}

// mustNew is the test-side constructor: every config in these tests is
// statically valid, so an error is a test bug.
func mustNew(cfg Config) *MixTLB {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

func look(m *MixTLB, va addr.V) tlb.Result { return m.Lookup(tlb.Request{VA: va}) }

func fill(m *MixTLB, w pagetable.WalkResult) tlb.Cost {
	return m.Fill(tlb.Request{VA: w.Translation.VA}, w)
}

// cfg2set is the paper's running example: a 2-set MIX TLB coalescing up to
// 2 superpages (Figures 3, 4, 6, 8).
func cfg2set(ways int) Config {
	return Config{Name: "mix-2set", Sets: 2, Ways: ways, Coalesce: 2, Encoding: Bitmap, IndexShift: addr.Shift4K}
}

func TestSmallPageFillAndLookup(t *testing.T) {
	m := mustNew(L1Config())
	fill(m, walkOf(tr(0x1234, 0x777, addr.Page4K)))
	r := look(m, addr.V(0x1234<<12|0x42))
	if !r.Hit {
		t.Fatal("miss after 4KB fill")
	}
	if got := r.T.Translate(addr.V(0x1234<<12 | 0x42)); got != addr.P(0x777<<12|0x42) {
		t.Errorf("PA = %v", got)
	}
	if r.Cost.Probes != 1 || r.Cost.WaysRead != 6 {
		t.Errorf("cost = %+v", r.Cost)
	}
	if look(m, 0x9999000).Hit {
		t.Error("false hit")
	}
}

// TestPaperFigure34 walks the paper's running example: superpages B (VA
// 0x00400000) and C (0x00600000) are contiguous (PA 0x00000000 and
// 0x00200000). After B misses and fills, both B and C hit in *both* sets,
// through one coalesced mirrored entry per set; lookups probe only the set
// named by VA bit 12.
func TestPaperFigure34(t *testing.T) {
	m := mustNew(cfg2set(2))
	b := tr(2, 0, addr.Page2M) // B: VA 0x400000 -> PA 0x000000
	c := tr(3, 1, addr.Page2M) // C: VA 0x600000 -> PA 0x200000
	cost := fill(m, walkOf(b, c))
	if cost.SetsFilled != 2 {
		t.Errorf("fill touched %d sets, want 2 (mirrors)", cost.SetsFilled)
	}
	// Every 4KB region of both superpages must hit: B0, B1, B2... C511.
	for _, base := range []addr.V{b.VA, c.VA} {
		for i := 0; i < addr.FramesPer2M; i += 37 { // sample regions
			va := base + addr.V(i*addr.Size4K+0x123)
			r := look(m, va)
			if !r.Hit {
				t.Fatalf("region %v missed", va)
			}
			wantPA := addr.P(uint64(base)-0x400000) + addr.P(i*addr.Size4K+0x123)
			if got := r.T.Translate(va); got != wantPA {
				t.Fatalf("PA for %v = %v, want %v", va, got, wantPA)
			}
		}
	}
	// One coalesced fill created exactly one bundle (two mirror writes).
	st := m.Stats()
	if st.BundlesFilled != 1 || st.MembersPerFill != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.MirrorWrites != 1 {
		t.Errorf("MirrorWrites = %d, want 1 (one non-probed set)", st.MirrorWrites)
	}
}

func TestMirroringCoversAllSets(t *testing.T) {
	m := mustNew(L1Config()) // 16 sets
	cost := fill(m, walkOf(tr(2, 7, addr.Page2M)))
	if cost.SetsFilled != 16 {
		t.Errorf("fill wrote %d sets, want 16", cost.SetsFilled)
	}
	// All 512 regions hit.
	for i := 0; i < addr.FramesPer2M; i++ {
		if !look(m, addr.V(2<<21+i*addr.Size4K)).Hit {
			t.Fatalf("region %d missed", i)
		}
	}
}

func TestCoalescingOffsetsMirroring(t *testing.T) {
	// 16 contiguous superpages in a 16-set TLB: after filling (8 per
	// line, extended by later misses), the whole 32MB should be TLB
	// resident alongside room for other entries.
	m := mustNew(L1Config())
	trs := make([]pagetable.Translation, 16)
	for i := range trs {
		trs[i] = tr(uint64(16+i), uint64(100+i), addr.Page2M)
	}
	// Two walker lines: superpage numbers 16-23 and 24-31.
	fill(m, walkOf(trs[:8]...))
	fill(m, pagetable.WalkResult{Found: true, Translation: trs[8], Line: trs[8:16]})
	for i := range trs {
		if !look(m, trs[i].VA).Hit {
			t.Fatalf("superpage %d missed", i)
		}
	}
	// The 16 superpages occupy 2 bundles x 16 mirrors = 32 of 96 entries;
	// 4KB fills must still find room (utilization for any distribution).
	for i := 0; i < 16; i++ {
		fill(m, walkOf(tr(uint64(0x70000+i), uint64(i), addr.Page4K)))
	}
	hits := 0
	for i := 0; i < 16; i++ {
		if look(m, addr.V((0x70000+i)<<12)).Hit {
			hits++
		}
	}
	if hits != 16 {
		t.Errorf("only %d/16 4KB entries resident next to coalesced superpages", hits)
	}
	for i := range trs {
		if !look(m, trs[i].VA+0x12345).Hit {
			t.Fatalf("superpage %d evicted by small fills", i)
		}
	}
}

func TestAlignmentRestriction(t *testing.T) {
	// K=2: only runs starting at even superpage numbers coalesce. Pages
	// 3 and 4 are contiguous but straddle the window boundary.
	m := mustNew(cfg2set(4))
	fill(m, walkOf(tr(3, 10, addr.Page2M), tr(4, 11, addr.Page2M)))
	st := m.Stats()
	if st.MembersPerFill != 1 {
		t.Errorf("coalesced %d members across an alignment boundary", st.MembersPerFill)
	}
	if !look(m, addr.V(3)<<21).Hit {
		t.Error("demanded page missing")
	}
	if look(m, addr.V(4)<<21).Hit {
		t.Error("page beyond the window boundary was cached by this fill")
	}
}

func TestNoAlignmentRestrictionAblation(t *testing.T) {
	cfg := cfg2set(4)
	cfg.NoAlignmentRestriction = true
	m := mustNew(cfg)
	fill(m, walkOf(tr(3, 10, addr.Page2M), tr(4, 11, addr.Page2M)))
	if m.Stats().MembersPerFill != 2 {
		t.Errorf("unaligned run not coalesced: members=%d", m.Stats().MembersPerFill)
	}
	if !look(m, addr.V(3)<<21).Hit || !look(m, addr.V(4)<<21).Hit {
		t.Error("members missing")
	}
	// PAs still correct.
	r := look(m, addr.V(4)<<21|0x999)
	if got := r.T.Translate(addr.V(4)<<21 | 0x999); got != addr.P(11<<21|0x999) {
		t.Errorf("PA = %v", got)
	}
}

func TestIncrementalExtension(t *testing.T) {
	// Sec 4.2: a bundle grows when later misses touch adjacent superpages
	// from other cache lines.
	m := mustNew(L1Config()) // K=16
	fill(m, walkOf(tr(32, 50, addr.Page2M)))
	// Adjacent superpage demanded later, alone in its (fabricated) line.
	fill(m, walkOf(tr(33, 51, addr.Page2M)))
	st := m.Stats()
	if st.CoalesceMerges == 0 {
		t.Error("adjacent superpage was not merged into the existing bundle")
	}
	if !look(m, addr.V(32)<<21).Hit || !look(m, addr.V(33)<<21).Hit {
		t.Error("bundle member missing after extension")
	}
}

// TestFigure8DuplicatesAndElimination reproduces Sec 4.3: evict one mirror
// copy, re-miss on the evicted set, and observe (a) a duplicate appears in
// the surviving set via blind mirroring, then (b) a probe of that set
// merges the duplicates.
func TestFigure8DuplicatesAndElimination(t *testing.T) {
	cfg := cfg2set(2)
	cfg.BlindMirrors = true // the paper's Figure 8 behaviour
	m := mustNew(cfg)
	b, c := tr(2, 0, addr.Page2M), tr(3, 1, addr.Page2M)
	fill(m, walkOf(b, c)) // B-C mirrored into both sets

	// Fill set 1 with two 4KB pages (D, E): VPNs with bit0=1 index set 1.
	d, e := tr(0x101, 0x11, addr.Page4K), tr(0x103, 0x13, addr.Page4K)
	m.Fill(tlb.Request{VA: d.VA}, walkOf(d))
	m.Fill(tlb.Request{VA: e.VA}, walkOf(e))
	// Set 1's B-C mirror is gone: B1 (region 1 of B) now misses.
	b1 := b.VA + addr.V(addr.Size4K)
	if look(m, b1).Hit {
		t.Fatal("set 1 copy unexpectedly survived")
	}
	// Refill after the walk: blind mirroring duplicates B-C in set 0.
	m.Fill(tlb.Request{VA: b1}, walkOf(b, c))
	// A probe of set 0 (any even region of B) detects and merges them.
	if !look(m, b.VA).Hit {
		t.Fatal("B0 missed")
	}
	if m.Stats().DupsEliminated == 0 {
		t.Error("duplicate copies were not eliminated on probe")
	}
	// Both regions hit afterwards.
	if !look(m, b1).Hit {
		t.Error("B1 missed after refill")
	}
}

func TestRangeEncodingPrefixRun(t *testing.T) {
	cfg := Config{Name: "mix-range", Sets: 4, Ways: 4, Coalesce: 8, Encoding: Range, IndexShift: addr.Shift4K}
	m := mustNew(cfg)
	// Members 8,9,10 contiguous; 12 present but after a hole at 11.
	m.Fill(tlb.Request{VA: tr(9, 109, addr.Page2M).VA}, walkOf(
		tr(9, 109, addr.Page2M), tr(8, 108, addr.Page2M),
		tr(10, 110, addr.Page2M), tr(12, 112, addr.Page2M),
	))
	for _, n := range []uint64{8, 9, 10} {
		if !look(m, addr.V(n)<<21).Hit {
			t.Errorf("member %d missing from range", n)
		}
	}
	if look(m, addr.V(12)<<21).Hit {
		t.Error("member beyond the hole included in range entry")
	}
	if look(m, addr.V(11)<<21).Hit {
		t.Error("absent member hits")
	}
	if m.Stats().RangeTruncation != 1 {
		t.Errorf("RangeTruncation = %d", m.Stats().RangeTruncation)
	}
}

func TestBitmapRepresentsHoles(t *testing.T) {
	m := mustNew(Config{Name: "m", Sets: 4, Ways: 4, Coalesce: 8, Encoding: Bitmap, IndexShift: addr.Shift4K})
	m.Fill(tlb.Request{VA: tr(9, 109, addr.Page2M).VA}, walkOf(
		tr(9, 109, addr.Page2M), tr(12, 112, addr.Page2M),
	))
	if !look(m, addr.V(9)<<21).Hit || !look(m, addr.V(12)<<21).Hit {
		t.Error("bitmap lost a member across a hole")
	}
	if look(m, addr.V(10)<<21).Hit || look(m, addr.V(11)<<21).Hit {
		t.Error("hole members hit")
	}
	if m.Stats().HolesRepresent != 1 {
		t.Errorf("HolesRepresent = %d", m.Stats().HolesRepresent)
	}
}

func TestInvalidationBitmapVsRange(t *testing.T) {
	// Bitmap (L1): invalidating one superpage keeps its neighbours.
	mb := mustNew(Config{Name: "m", Sets: 4, Ways: 4, Coalesce: 8, Encoding: Bitmap, IndexShift: addr.Shift4K})
	mb.Fill(tlb.Request{VA: tr(8, 108, addr.Page2M).VA},
		walkOf(tr(8, 108, addr.Page2M), tr(9, 109, addr.Page2M)))
	if n := mb.Invalidate(addr.V(8)<<21, addr.Page2M); n == 0 {
		t.Fatal("nothing invalidated")
	}
	if look(mb, addr.V(8)<<21).Hit {
		t.Error("invalidated member hits")
	}
	if !look(mb, addr.V(9)<<21).Hit {
		t.Error("bitmap neighbour lost on invalidation")
	}
	// Range (L2): the whole coalesced entry is dropped.
	mr := mustNew(Config{Name: "m", Sets: 4, Ways: 4, Coalesce: 8, Encoding: Range, IndexShift: addr.Shift4K})
	mr.Fill(tlb.Request{VA: tr(8, 108, addr.Page2M).VA},
		walkOf(tr(8, 108, addr.Page2M), tr(9, 109, addr.Page2M)))
	mr.Invalidate(addr.V(8)<<21, addr.Page2M)
	if look(mr, addr.V(8)<<21).Hit || look(mr, addr.V(9)<<21).Hit {
		t.Error("range entry survived invalidation")
	}
}

func TestInvalidate4K(t *testing.T) {
	m := mustNew(L1Config())
	fill(m, walkOf(tr(0x55, 0x66, addr.Page4K)))
	if n := m.Invalidate(addr.V(0x55)<<12, addr.Page4K); n != 1 {
		t.Errorf("Invalidate = %d", n)
	}
	if look(m, addr.V(0x55)<<12).Hit {
		t.Error("4KB entry survived invalidation")
	}
}

func TestDirtyPolicy(t *testing.T) {
	m := mustNew(L1Config())
	// Coalescing a dirty and a clean superpage: bundle dirty = AND = false.
	dirtyTr := tr(32, 1, addr.Page2M)
	dirtyTr.Dirty = true
	clean := tr(33, 2, addr.Page2M)
	m.Fill(tlb.Request{VA: dirtyTr.VA}, walkOf(dirtyTr, clean))
	if r := look(m, dirtyTr.VA); r.Dirty {
		t.Error("mixed bundle reported dirty")
	}
	// Multi-member bundles refuse MarkDirty: every store keeps paying the
	// micro-op (the paper's added cache traffic).
	if m.MarkDirty(dirtyTr.VA) {
		t.Error("multi-member bundle accepted MarkDirty")
	}
	// All-dirty bundles are born dirty.
	d2 := tr(40, 5, addr.Page2M)
	d2.Dirty = true
	d3 := tr(41, 6, addr.Page2M)
	d3.Dirty = true
	m.Fill(tlb.Request{VA: d2.VA}, walkOf(d2, d3))
	if r := look(m, d2.VA); !r.Dirty {
		t.Error("all-dirty bundle not dirty")
	}
	// Singleton bundles may set dirty on store.
	solo := tr(64, 9, addr.Page2M)
	m.Fill(tlb.Request{VA: solo.VA}, walkOf(solo))
	if !m.MarkDirty(solo.VA) {
		t.Error("singleton refused MarkDirty")
	}
	if r := look(m, solo.VA); !r.Dirty {
		t.Error("singleton not dirty after MarkDirty")
	}
	// 4KB entries behave conventionally.
	p := tr(0x99, 0x11, addr.Page4K)
	m.Fill(tlb.Request{VA: p.VA}, walkOf(p))
	if !m.MarkDirty(p.VA) || !look(m, p.VA).Dirty {
		t.Error("4KB MarkDirty failed")
	}
}

func TestPermissionGate(t *testing.T) {
	m := mustNew(L1Config())
	a := tr(32, 1, addr.Page2M)
	b := tr(33, 2, addr.Page2M)
	b.Perm = addr.PermRead // differs
	m.Fill(tlb.Request{VA: a.VA}, walkOf(a, b))
	if m.Stats().MembersPerFill != 1 {
		t.Error("coalesced across differing permissions")
	}
	if look(m, b.VA).Hit {
		t.Error("different-permission neighbour cached")
	}
}

func TestAccessedBitGate(t *testing.T) {
	m := mustNew(L1Config())
	a := tr(32, 1, addr.Page2M)
	b := tr(33, 2, addr.Page2M)
	b.Accessed = false
	m.Fill(tlb.Request{VA: a.VA}, walkOf(a, b))
	if look(m, b.VA).Hit {
		t.Error("coalesced a translation whose accessed bit is clear (x86 violation)")
	}
}

func TestPhysicalContiguityRequired(t *testing.T) {
	m := mustNew(L1Config())
	a := tr(32, 1, addr.Page2M)
	b := tr(33, 7, addr.Page2M) // virtually adjacent, physically not
	m.Fill(tlb.Request{VA: a.VA}, walkOf(a, b))
	if look(m, b.VA).Hit {
		t.Error("coalesced physically discontiguous superpages")
	}
	// b later fills its own bundle; both coexist (same window, different
	// basePA — kept as separate entries, no false merging).
	m.Fill(tlb.Request{VA: b.VA}, walkOf(b))
	ra, rb := look(m, a.VA), look(m, b.VA)
	if !ra.Hit || !rb.Hit {
		t.Fatal("entries lost")
	}
	if ra.T.PA != a.PA || rb.T.PA != b.PA {
		t.Errorf("PAs wrong: %v %v", ra.T.PA, rb.T.PA)
	}
}

func TestSuperpageIndexAblation(t *testing.T) {
	// Sec 3: indexing by superpage bits makes spatially adjacent small
	// pages collide in one set.
	cfg := L1Config()
	cfg.IndexShift = addr.Shift2M
	m := mustNew(cfg)
	// 7 adjacent 4KB pages (all inside one 2MB region) in a 6-way TLB:
	// they all index the same set, so one must be evicted.
	for i := uint64(0); i < 7; i++ {
		fill(m, walkOf(tr(i, i+100, addr.Page4K)))
	}
	hits := 0
	for i := uint64(0); i < 7; i++ {
		if look(m, addr.V(i<<12)).Hit {
			hits++
		}
	}
	if hits != 6 {
		t.Errorf("%d/7 adjacent pages resident; want exactly ways=6 (set conflict)", hits)
	}
	// Under small-page indexing the same 7 pages coexist.
	m2 := mustNew(L1Config())
	for i := uint64(0); i < 7; i++ {
		fill(m2, walkOf(tr(i, i+100, addr.Page4K)))
	}
	for i := uint64(0); i < 7; i++ {
		if !look(m2, addr.V(i<<12)).Hit {
			t.Errorf("page %d missing under small-page indexing", i)
		}
	}
	// And a 2MB page maps to exactly one set: a single-set fill.
	if cost := fill(m, walkOf(tr(5, 50, addr.Page2M))); cost.SetsFilled != 1 {
		t.Errorf("superpage-indexed 2MB fill wrote %d sets", cost.SetsFilled)
	}
}

func TestMirrorProbedSetOnlyAblation(t *testing.T) {
	cfg := L1Config()
	cfg.MirrorProbedSetOnly = true
	m := mustNew(cfg)
	base := addr.V(2) << 21
	m.Fill(tlb.Request{VA: base}, walkOf(tr(2, 7, addr.Page2M)))
	if !look(m, base).Hit {
		t.Error("probed region missed")
	}
	// Region 1 indexes a different set: not filled, so it must miss.
	if look(m, base+addr.V(addr.Size4K)).Hit {
		t.Error("non-probed set held the entry despite MirrorProbedSetOnly")
	}
}

func Test1GBPages(t *testing.T) {
	m := mustNew(L1Config())
	g := tr(1, 3, addr.Page1G)
	g2 := tr(2, 4, addr.Page1G) // window [0,16): slots 1,2 — wait, slot 1 and 2
	fill(m, walkOf(g, g2))
	for _, base := range []addr.V{g.VA, g2.VA} {
		for off := uint64(0); off < addr.Size1G; off += addr.Size1G / 7 {
			if !look(m, base+addr.V(off)).Hit {
				t.Fatalf("1GB region at +%#x missed", off)
			}
		}
	}
	r := look(m, g2.VA+0xabcdef)
	if got := r.T.Translate(g2.VA + 0xabcdef); got != addr.P(4<<30+0xabcdef) {
		t.Errorf("1GB PA = %v", got)
	}
	if n := m.Invalidate(g.VA, addr.Page1G); n == 0 {
		t.Error("1GB invalidate found nothing")
	}
	if look(m, g.VA).Hit {
		t.Error("1GB page survived invalidation")
	}
	if !look(m, g2.VA).Hit {
		t.Error("1GB neighbour lost")
	}
}

func TestFlush(t *testing.T) {
	m := mustNew(L1Config())
	fill(m, walkOf(tr(2, 7, addr.Page2M)))
	fill(m, walkOf(tr(0x123, 0x456, addr.Page4K)))
	m.Flush()
	if look(m, addr.V(2)<<21).Hit || look(m, addr.V(0x123)<<12).Hit {
		t.Error("entries survived flush")
	}
}

func TestBadConfigErrors(t *testing.T) {
	for _, cfg := range []Config{
		{Sets: 3, Ways: 4, Coalesce: 8},
		{Sets: 4, Ways: 0, Coalesce: 8},
		{Sets: 4, Ways: 4, Coalesce: 0},
		{Sets: 4, Ways: 4, Coalesce: 128},
		{Sets: 4, Ways: 4, Coalesce: 5},
		{Sets: 1, Ways: tlb.MaxLookupWays + 1, Coalesce: 1}, // a lookup reads more ways than LookupCost counts
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) returned no error", cfg)
		}
	}
}

// TestTranslationCorrectnessProperty is the safety net: whatever mix of
// fills, lookups and invalidations happens, a MIX TLB hit must never
// return a wrong physical address. Wrong-PA bugs are the catastrophic
// failure mode for a TLB design; misses are merely slow.
func TestTranslationCorrectnessProperty(t *testing.T) {
	prop := func(seed uint64, useRange bool) bool {
		rng := simrand.New(seed)
		enc := Bitmap
		if useRange {
			enc = Range
		}
		m := mustNew(Config{Name: "m", Sets: 8, Ways: 4, Coalesce: 8, Encoding: enc, IndexShift: addr.Shift4K})
		// Ground truth: VPN -> PPN per size class, built so superpages
		// sometimes form contiguous runs.
		truth := map[addr.PageSize]map[uint64]uint64{
			addr.Page4K: {}, addr.Page2M: {}, addr.Page1G: {},
		}
		for step := 0; step < 400; step++ {
			size := addr.Sizes()[rng.Intn(3)]
			vpn := rng.Uint64n(256)
			switch rng.Intn(4) {
			case 0: // (re)map a possibly contiguous group
				base := vpn &^ 3
				ppnBase := rng.Uint64n(1 << 20)
				var line []pagetable.Translation
				n := 1 + rng.Intn(4)
				for i := 0; i < n; i++ {
					if _, mapped := truth[size][base+uint64(i)]; mapped {
						// Remapping requires a shootdown first, as on
						// real hardware.
						m.Invalidate(addr.V((base+uint64(i))<<size.Shift()), size)
					}
					truth[size][base+uint64(i)] = ppnBase + uint64(i)
					line = append(line, tr(base+uint64(i), ppnBase+uint64(i), size))
				}
				// Demanded translation first.
				line[0], line[rng.Intn(n)] = line[rng.Intn(n)], line[0]
				m.Fill(tlb.Request{VA: line[0].VA}, pagetable.WalkResult{
					Found: true, Translation: line[0], Line: line,
				})
			case 1: // lookup and verify
				va := addr.V(vpn<<size.Shift() | rng.Uint64n(size.Bytes()))
				r := look(m, va)
				if r.Hit {
					wantPPN, ok := truth[r.T.Size][va.PageNum(r.T.Size)]
					if !ok {
						t.Logf("hit on never-mapped %v (%v)", va, r.T)
						return false
					}
					if r.T.Translate(va) != addr.P(wantPPN<<r.T.Size.Shift()|va.Offset(r.T.Size)) {
						t.Logf("wrong PA for %v: got %v", va, r.T)
						return false
					}
				}
			case 2: // invalidate (and remap truth so stale hits are bugs)
				if _, ok := truth[size][vpn]; ok {
					m.Invalidate(addr.V(vpn<<size.Shift()), size)
					delete(truth[size], vpn)
				}
			case 3: // remap: invalidate then fill with a new PPN
				if _, ok := truth[size][vpn]; ok {
					m.Invalidate(addr.V(vpn<<size.Shift()), size)
					newPPN := rng.Uint64n(1 << 20)
					truth[size][vpn] = newPPN
					m.Fill(tlb.Request{VA: addr.V(vpn << size.Shift())},
						walkOf(tr(vpn, newPPN, size)))
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLookupIsSingleProbe(t *testing.T) {
	// The design's latency claim (Sec 4.2): lookups probe one set with
	// pure bit selects regardless of what page sizes are resident.
	m := mustNew(L1Config())
	fill(m, walkOf(tr(2, 7, addr.Page2M)))
	fill(m, walkOf(tr(0x123, 0x456, addr.Page4K)))
	fill(m, walkOf(tr(1, 3, addr.Page1G)))
	for _, va := range []addr.V{0x123 << 12, 2 << 21, 1 << 30, 0xdeadbeef000} {
		if r := look(m, va); r.Cost.Probes != 1 {
			t.Errorf("lookup of %v took %d probes", va, r.Cost.Probes)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	l1, l2 := L1Config(), L2Config()
	if l1.Sets*l1.Ways != 96 || l1.Encoding != Bitmap {
		t.Errorf("L1Config = %+v", l1)
	}
	if l2.Sets*l2.Ways != 512 || l2.Encoding != Bitmap || l2.Coalesce != l2.Ways*l2.Coalesce/8 {
		t.Errorf("L2Config = %+v", l2)
	}
	// The net reach identity: coalescing offsets mirroring when
	// ways x K equals the split L2's dedicated entry count.
	if l2.Ways*l2.Coalesce != 512 {
		t.Errorf("L2 net reach = %d entries, want 512", l2.Ways*l2.Coalesce)
	}
	lr := L2RangeConfig()
	if lr.Encoding != Range || lr.Coalesce != lr.Sets {
		t.Errorf("L2RangeConfig = %+v", lr)
	}
	if Bitmap.String() != "bitmap" || Range.String() != "range" {
		t.Error("encoding names")
	}
	// IndexShift defaults to small-page bits.
	m := mustNew(Config{Name: "d", Sets: 4, Ways: 2, Coalesce: 4})
	if m.Config().IndexShift != addr.Shift4K {
		t.Errorf("default IndexShift = %d", m.Config().IndexShift)
	}
}

func TestMirrorsAreNonDestructive(t *testing.T) {
	// Sec 4.2 refinement (DESIGN.md deviation 7): a mirror write must not
	// evict a live entry; only the probed set's fill replaces.
	m := mustNew(Config{Name: "m", Sets: 2, Ways: 1, Coalesce: 2, Encoding: Bitmap, IndexShift: addr.Shift4K})
	// Two disjoint-window superpage bundles: A (window 0) and B (window 2).
	a := tr(0, 10, addr.Page2M)
	b := tr(4, 20, addr.Page2M)
	m.Fill(tlb.Request{VA: a.VA}, walkOf(a)) // occupies the single way of both sets
	// B's fill probes set 0 (VA bit 12 = 0): set 0's copy of A is
	// replaced (probed-set fill), but set 1's live copy of A survives the
	// mirror write.
	m.Fill(tlb.Request{VA: b.VA}, walkOf(b))
	if !look(m, b.VA).Hit {
		t.Fatal("B missing after fill")
	}
	// A's region 1 (set 1) still hits via the surviving mirror.
	if !look(m, a.VA+addr.V(addr.Size4K)).Hit {
		t.Error("mirror write destroyed a live entry in a non-probed set")
	}
	// Under the paper-literal ablation, the mirror write does evict.
	m2 := mustNew(Config{Name: "m", Sets: 2, Ways: 1, Coalesce: 2, Encoding: Bitmap, IndexShift: addr.Shift4K, BlindMirrors: true})
	m2.Fill(tlb.Request{VA: a.VA}, walkOf(a))
	m2.Fill(tlb.Request{VA: b.VA}, walkOf(b))
	if look(m2, a.VA+addr.V(addr.Size4K)).Hit {
		t.Error("BlindMirrors kept the evicted entry")
	}
}

func TestMirrorMergeDoesNotRefreshRecency(t *testing.T) {
	// LRU-inversion guard: merging a fill into a mirror set must not make
	// that copy look recently used.
	m := mustNew(Config{Name: "m", Sets: 2, Ways: 2, Coalesce: 2, Encoding: Bitmap, IndexShift: addr.Shift4K})
	a := tr(0, 10, addr.Page2M) // window 0
	b := tr(4, 20, addr.Page2M) // window 2
	c := tr(8, 30, addr.Page2M) // window 4
	m.Fill(tlb.Request{VA: a.VA}, walkOf(a))
	m.Fill(tlb.Request{VA: b.VA}, walkOf(b))
	// Refill A probing set 0: merges everywhere; set 1's copy must keep
	// its old stamp, so C's fill (probing set 0, mirroring to set 1)
	// still finds A as set 1's LRU victim... but mirrors don't evict.
	// Instead verify via a probed-set eviction: touch B's set-1 region to
	// refresh B there, then fill C probing set 1: victim must be A.
	m.Fill(tlb.Request{VA: a.VA}, walkOf(a)) // merge; no recency refresh in set 1
	if !look(m, b.VA+addr.V(addr.Size4K)).Hit {
		t.Fatal("B set-1 probe missed")
	}
	m.Fill(tlb.Request{VA: c.VA + addr.V(addr.Size4K)}, walkOf(c)) // probed set = 1
	if look(m, a.VA+addr.V(addr.Size4K)).Hit {
		t.Error("A survived in set 1 despite being LRU (merge refreshed recency)")
	}
	if !look(m, b.VA+addr.V(addr.Size4K)).Hit {
		t.Error("recently probed B was evicted instead of stale A")
	}
}
