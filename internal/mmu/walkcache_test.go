package mmu

// MMU-integrated paging-structure-cache tests: the cache model itself
// lives in internal/pwc (with its own unit tests); these cover the MMU's
// walker integration — skipped reference charging, stats, and the
// invalidate/flush forwarding.

import (
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/isa"
	"mixtlb/internal/pwc"
	"mixtlb/internal/tlb"
)

// tinyMMU builds a single-level MMU with a 4-entry TLB (so misses are
// easy to force) and an optional paging-structure cache.
func tinyMMU(t *testing.T, e *env, cache *pwc.Cache) *MMU {
	t.Helper()
	return mustBuild(New(Config{
		Name:   "t",
		Levels: L(tlb.Must(tlb.NewSetAssoc("l1", addr.Page4K, 2, 2))),
		PWC:    cache,
	}, e.pt, e.caches, nil))
}

func TestPWCSkipsUpperWalkLevels(t *testing.T) {
	e := newEnv(t)
	e.mapPage(t, 0x1000, addr.Page4K)
	e.mapPage(t, 0x2000, addr.Page4K) // same PT, same upper levels
	m := tinyMMU(t, e, pwc.NewISA(16, isa.Default()))

	// First walk: cold cache, full 4 PTE references charged.
	m.Translate(tlb.Request{VA: 0x1000})
	if refs := m.Stats().WalkRefs; refs != 4 {
		t.Fatalf("cold walk charged %d refs, want 4", refs)
	}
	// Sibling page under the same PD: PDE cached, only the PTE is read.
	m.Translate(tlb.Request{VA: 0x2000})
	st := m.Stats()
	if st.WalkRefs != 5 {
		t.Errorf("PDE-cached walk charged %d total refs, want 5", st.WalkRefs)
	}
	if st.PWCHits != 1 || st.PWCMisses != 1 || st.PWCSkippedRefs != 3 {
		t.Errorf("PWC stats: hits=%d misses=%d skipped=%d, want 1/1/3",
			st.PWCHits, st.PWCMisses, st.PWCSkippedRefs)
	}
}

func TestPWCPartialHit(t *testing.T) {
	e := newEnv(t)
	e.mapPage(t, 0x1000, addr.Page4K)
	// 1GB apart: same PML4 entry, different PDPT entry → skip 1.
	e.mapPage(t, addr.V(1)<<30|0x1000, addr.Page4K)
	m := tinyMMU(t, e, pwc.NewISA(16, isa.Default()))
	m.Translate(tlb.Request{VA: 0x1000})
	m.Translate(tlb.Request{VA: addr.V(1)<<30 | 0x1000})
	if refs := m.Stats().WalkRefs; refs != 4+3 {
		t.Errorf("PML4E-cached walk: %d total refs, want 7", refs)
	}
}

func TestPWCOnSuperpageWalks(t *testing.T) {
	e := newEnv(t)
	e.mapPage(t, 0x40000000, addr.Page2M)
	e.mapPage(t, 0x40200000, addr.Page2M)
	m := mustBuild(New(Config{
		Name:   "t2m",
		Levels: L(tlb.Must(tlb.NewSetAssoc("l1", addr.Page2M, 1, 1))),
		PWC:    pwc.NewISA(16, isa.Default()),
	}, e.pt, e.caches, nil))
	m.Translate(tlb.Request{VA: 0x40000000})
	if refs := m.Stats().WalkRefs; refs != 3 {
		t.Fatalf("cold 2MB walk: %d refs", refs)
	}
	// Sibling 2MB page: PDPTE cached → only the PDE access remains. The
	// PDE *cache* must not over-skip a walk whose leaf is the PDE itself.
	m.Translate(tlb.Request{VA: 0x40200000})
	if refs := m.Stats().WalkRefs; refs != 3+1 {
		t.Errorf("cached 2MB walk: %d total refs, want 4", refs)
	}
}

func TestPWCInvalidateAndFlushForwarding(t *testing.T) {
	e := newEnv(t)
	e.mapPage(t, 0x1000, addr.Page4K)
	m := tinyMMU(t, e, pwc.NewISA(16, isa.Default()))
	m.Translate(tlb.Request{VA: 0x1000})
	// Invalidate goes through the MMU: both the TLB entry and the cached
	// walk prefixes must drop, so the next walk is full-cost again.
	m.Invalidate(0x1000, addr.Page4K)
	m.ResetStats()
	m.Translate(tlb.Request{VA: 0x1000})
	if refs := m.Stats().WalkRefs; refs != 4 {
		t.Errorf("post-invalidate walk charged %d refs, want 4", refs)
	}
	m.Flush()
	m.ResetStats()
	m.Translate(tlb.Request{VA: 0x1000})
	if refs := m.Stats().WalkRefs; refs != 4 {
		t.Errorf("post-flush walk charged %d refs, want 4", refs)
	}
}

func TestPWCReducesMissCostNotMissCount(t *testing.T) {
	// End-to-end: an MMU with paging-structure caches pays fewer walk refs
	// for the same miss count.
	run := func(cache *pwc.Cache) (uint64, uint64) {
		e := newEnv(t)
		for i := 0; i < 256; i++ {
			e.mapPage(t, addr.V(i)<<12, addr.Page4K)
		}
		m := tinyMMU(t, e, cache)
		for round := 0; round < 3; round++ {
			for i := 0; i < 256; i++ { // thrashes the 4-entry TLB: all walks
				m.Translate(tlb.Request{VA: addr.V(i) << 12})
			}
		}
		return m.Stats().Walks, m.Stats().WalkRefs
	}
	walksPlain, refsPlain := run(nil)
	walksCached, refsCached := run(pwc.NewISA(16, isa.Default()))
	if walksPlain != walksCached {
		t.Errorf("walk counts differ: %d vs %d", walksPlain, walksCached)
	}
	if refsCached >= refsPlain/2 {
		t.Errorf("walk refs: cached=%d plain=%d, want large reduction", refsCached, refsPlain)
	}
}

func TestPWCStatsResetWithMMU(t *testing.T) {
	e := newEnv(t)
	e.mapPage(t, 0x1000, addr.Page4K)
	e.mapPage(t, 0x2000, addr.Page4K)
	e.mapPage(t, 0x3000, addr.Page4K)
	cache := pwc.NewISA(16, isa.Default())
	m := tinyMMU(t, e, cache)
	m.Translate(tlb.Request{VA: 0x1000})
	m.Translate(tlb.Request{VA: 0x2000})
	m.ResetStats()
	if st := m.Stats(); st.PWCHits != 0 || st.PWCMisses != 0 || st.PWCSkippedRefs != 0 {
		t.Errorf("MMU PWC stats survived reset: %+v", st)
	}
	if st := cache.Stats(); st != (pwc.Stats{}) {
		t.Errorf("cache stats survived reset: %+v", st)
	}
	// Contents survive the reset: a not-yet-cached sibling page misses the
	// TLB but its walk still skips through the retained PDE entry.
	m.Translate(tlb.Request{VA: 0x3000})
	if st := m.Stats(); st.PWCHits != 1 || st.PWCSkippedRefs != 3 {
		t.Errorf("post-reset walk did not hit the retained cache: %+v", st)
	}
}
