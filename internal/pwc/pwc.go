// Package pwc models x86-style paging-structure caches (Intel PSCs, AMD
// page-walk caches): small per-level caches of PML4E/PDPTE/PDE entries
// keyed by the virtual-address prefix, which let the hardware walker skip
// the upper radix levels of a page-table walk. A PDE hit lets a 4KB walk
// read only the final PTE — one memory reference instead of four.
//
// The paper's baseline walkers are uncached; this model exists to study
// how much of the TLB-design gap walk caches close. They shrink the *cost*
// of misses, never their number, following the MMU-cache literature the
// paper cites (Barr et al., Bhattacharjee). Whether a design carries
// paging-structure caches is part of its mmu.DesignSpec; the MMU consults
// the cache on its fused WalkInto path and drops the charged upper-level
// PTE references a hit short-circuits.
package pwc

import (
	"mixtlb/internal/addr"
	"mixtlb/internal/isa"
	"mixtlb/internal/lru"
)

// NumLevels is how many non-leaf radix levels the default x86-64
// descriptor caches: PML4 entries (skip 1 access), PDPT entries (skip 2),
// PD entries (skip 3). Descriptor-aware callers size from NewISA instead:
// a cache always has Depth-1 levels.
const NumLevels = 3

// DefaultEntries is the per-level capacity when none is configured; real
// PSCs have 2-32 entries per level.
const DefaultEntries = 16

// Stats counts cache activity. Hits and Misses count deepest-level probe
// outcomes (one per walk consulted); SkippedRefs counts the upper-level
// PTE memory references those hits short-circuited.
type Stats struct {
	Hits        uint64
	Misses      uint64
	SkippedRefs uint64
	Fills       uint64
}

// Cache is one set of paging-structure caches, private to one walker. It
// must not be shared across address spaces (VA prefixes would alias).
// levels[0] caches root entries (skip 1), levels[1] the next level down
// (skip 2), and so on through the deepest non-leaf level; shifts holds
// the VA prefix shift keying each. On the default x86-64 radix that is
// three levels with shifts 39/30/21; a 5-level LA57 radix caches four
// with shifts 48/39/30/21, and 3-level Sv39 two with 30/21.
type Cache struct {
	levels  []lru.Array // one fully associative set per level
	shifts  []uint
	entries int // per-level capacity
	stats   Stats
}

// NewISA builds a cache sized from a descriptor's radix (isa.Default()
// for x86-64): one fully associative LRU prefix cache of entriesPerLevel
// entries (<= 0 selects DefaultEntries) per non-leaf level, probed
// deepest first.
func NewISA(entriesPerLevel int, d *isa.Descriptor) *Cache {
	if entriesPerLevel <= 0 {
		entriesPerLevel = DefaultEntries
	}
	depth := d.Depth()
	c := &Cache{
		levels:  make([]lru.Array, depth-1),
		shifts:  make([]uint, depth-1),
		entries: entriesPerLevel,
	}
	for i := range c.levels {
		c.levels[i] = lru.New(1, entriesPerLevel)
		// levels[i] caches entries of radix level depth-i, whose VA
		// prefix starts where level depth-i's index does.
		c.shifts[i] = d.LevelShift(depth - i)
	}
	return c
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters (cache contents are retained).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Skip returns how many leading walk accesses a lookup for va can
// short-circuit: the deepest cached level wins. maxSkip caps it — a 2MB
// walk has only 3 accesses, so a PDE hit cannot skip more than 2, and the
// final (leaf) access is never skipped.
func (c *Cache) Skip(va addr.V, maxSkip int) int {
	for lvl := len(c.levels) - 1; lvl >= 0; lvl-- {
		if lvl+1 > maxSkip {
			continue
		}
		if w := c.levels[lvl].Find(0, uint64(va)>>c.shifts[lvl]); w >= 0 {
			c.levels[lvl].Touch(w)
			c.stats.Hits++
			c.stats.SkippedRefs += uint64(lvl + 1)
			return lvl + 1
		}
	}
	c.stats.Misses++
	return 0
}

// Fill records the traversed non-leaf levels of a completed walk. walkLen
// is the walk's access count (on x86-64: 4 for a 4KB walk, 3 for 2MB, 2
// for 1GB): a walk of length L traversed L-1 levels as pointers, root
// first.
func (c *Cache) Fill(va addr.V, walkLen int) {
	c.stats.Fills++
	for lvl := 0; lvl < walkLen-1 && lvl < len(c.levels); lvl++ {
		key := uint64(va) >> c.shifts[lvl]
		w, _ := c.levels[lvl].Probe(0, key)
		c.levels[lvl].Put(w, key)
	}
}

// Invalidate drops every cached entry covering va: page-table updates must
// invalidate paging-structure caches exactly as they invalidate TLBs.
func (c *Cache) Invalidate(va addr.V) {
	for lvl := range c.levels {
		// Fill never stores a prefix twice, so the first match is the only one.
		if w := c.levels[lvl].Find(0, uint64(va)>>c.shifts[lvl]); w >= 0 {
			c.levels[lvl].Clear(w)
		}
	}
}

// Flush empties the cache (context switch without PCIDs).
func (c *Cache) Flush() {
	for i := range c.levels {
		c.levels[i].Flush()
	}
}

// Entries reports the per-level capacity.
func (c *Cache) Entries() int { return c.entries }
