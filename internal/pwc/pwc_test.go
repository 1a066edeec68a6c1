package pwc

import (
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/isa"
)

func TestSkipUsesDeepestCachedLevel(t *testing.T) {
	c := NewISA(16, isa.Default())
	// Cold: nothing cached, nothing skipped.
	if got := c.Skip(0x1000, 3); got != 0 {
		t.Fatalf("cold Skip = %d, want 0", got)
	}
	// A completed 4-access (4KB) walk caches PML4E, PDPTE, and PDE.
	c.Fill(0x1000, 4)
	// A sibling 4KB page under the same PD: PDE hit skips 3 accesses.
	if got := c.Skip(0x2000, 3); got != 3 {
		t.Errorf("sibling-page Skip = %d, want 3", got)
	}
	// Same PDPT but a different PD (2MB apart): PDPTE hit skips 2.
	if got := c.Skip(0x1000+addr.V(addr.Size2M), 3); got != 2 {
		t.Errorf("sibling-PD Skip = %d, want 2", got)
	}
	// Same PML4 entry but a different PDPT entry (1GB apart): skip 1.
	if got := c.Skip(0x1000+addr.V(addr.Size1G), 3); got != 1 {
		t.Errorf("sibling-PDPT Skip = %d, want 1", got)
	}
	st := c.Stats()
	if st.Hits != 3 || st.Misses != 1 {
		t.Errorf("stats: hits=%d misses=%d, want 3/1", st.Hits, st.Misses)
	}
	if st.SkippedRefs != 3+2+1 {
		t.Errorf("skipped refs = %d, want 6", st.SkippedRefs)
	}
}

func TestSkipCappedByWalkLength(t *testing.T) {
	c := NewISA(16, isa.Default())
	c.Fill(0x1000, 4)
	// A 2MB walk (3 accesses) whose leaf is the PDE: the PDE cache must
	// not over-skip past the leaf, so maxSkip=2 caps at the PDPTE hit.
	if got := c.Skip(0x2000, 2); got != 2 {
		t.Errorf("capped Skip = %d, want 2", got)
	}
	// A 1GB walk (2 accesses): only the PML4E may be skipped.
	if got := c.Skip(0x2000, 1); got != 1 {
		t.Errorf("capped Skip = %d, want 1", got)
	}
}

func TestFillCachesOnlyTraversedLevels(t *testing.T) {
	c := NewISA(16, isa.Default())
	// A 2MB walk (3 accesses) traverses PML4 and PDPT as pointers; the PD
	// entry is its leaf and must not enter the PDE cache.
	c.Fill(0x40000000, 3)
	if got := c.Skip(0x40000000+addr.V(addr.Size2M), 3); got != 2 {
		t.Errorf("after 2MB fill, Skip = %d, want 2 (PDPTE)", got)
	}
}

func TestInvalidateAndFlush(t *testing.T) {
	c := NewISA(16, isa.Default())
	c.Fill(0x1000, 4)
	c.Invalidate(0x1000)
	if got := c.Skip(0x2000, 3); got != 0 {
		t.Errorf("post-invalidate Skip = %d, want 0", got)
	}
	c.Fill(0x1000, 4)
	c.Flush()
	if got := c.Skip(0x2000, 3); got != 0 {
		t.Errorf("post-flush Skip = %d, want 0", got)
	}
}

func TestLRUEviction(t *testing.T) {
	c := NewISA(2, isa.Default())
	// Three distinct PD prefixes into a 2-entry PDE cache: the oldest
	// (first) must be evicted, the two youngest retained. All three share
	// one PDPT entry, so the evicted prefix falls back to a skip-2 PDPTE
	// hit rather than the full skip-3.
	for i := 0; i < 3; i++ {
		c.Fill(addr.V(i)<<21, 4)
	}
	if got := c.Skip(0, 3); got != 2 {
		t.Errorf("evicted PDE prefix: skip %d, want 2 (PDPTE fallback)", got)
	}
	for i := 1; i < 3; i++ {
		if got := c.Skip(addr.V(i)<<21, 3); got != 3 {
			t.Errorf("retained prefix %d: skip %d, want 3", i, got)
		}
	}
}

func TestDefaultEntries(t *testing.T) {
	if got := NewISA(0, isa.Default()).Entries(); got != DefaultEntries {
		t.Errorf("NewISA(0, isa.Default()).Entries() = %d, want %d", got, DefaultEntries)
	}
}
