// Package cachesim provides a functional (hit/miss + latency) model of a
// physically-indexed set-associative cache hierarchy. Page-table walks are
// memory references: their PTE reads flow through this hierarchy, which is
// what makes TLB misses expensive and what the analytical performance
// model weighs (Sec 6.2).
package cachesim

import (
	"fmt"

	"mixtlb/internal/addr"
	"mixtlb/internal/lru"
)

// Level configures one cache level.
type Level struct {
	Name    string
	Size    uint64 // bytes
	Ways    int
	Latency uint64 // access latency in cycles
}

// DefaultHierarchy mirrors the paper's evaluation platform: a Haswell-like
// three-level hierarchy with a 24MB LLC (Sec 6.1) in front of DRAM.
func DefaultHierarchy() *Hierarchy {
	return NewHierarchy([]Level{
		{Name: "L1D", Size: 32 << 10, Ways: 8, Latency: 4},
		{Name: "L2", Size: 256 << 10, Ways: 8, Latency: 12},
		{Name: "LLC", Size: 24 << 20, Ways: 24, Latency: 42},
	}, 200)
}

// cache is one level's state: LRU arrays of line tags. A line's set is
// its low line-number bits and its tag the rest.
//
// The sets are split into banks, one LRU array each, whose tag and stamp
// slices are at most bankBytes long. A single array would be two slices of
// several MiB for a large LLC (3 MiB each for the default 24MB one), and a
// multi-MiB heap object needs one contiguous run of free pages: when small
// objects that outlive a hierarchy sit where its arrays were, the next
// hierarchy's arrays land higher and the process's peak RSS moves by their
// size from one run to the next. Banks fit in any free span. A set lies in
// one bank, and only the order of its own stamps decides its victims, so a
// clock per bank replaces exactly as one clock per level did.
type cache struct {
	cfg       Level
	setMask   uint64 // sets-1
	setShift  uint   // log2(sets)
	bankMask  uint64 // sets per bank - 1
	bankShift uint   // log2(sets per bank)
	banks     []lru.Array

	accesses uint64
	misses   uint64
}

// bankBytes bounds a bank's tag (and stamp) slice: the Go runtime's
// largest small object.
const bankBytes = 32 << 10

func newCache(cfg Level) *cache {
	lines := cfg.Size / addr.CacheLineSize
	sets := int(lines) / cfg.Ways
	if sets <= 0 || !addr.IsPow2(uint64(sets)) {
		panic(fmt.Sprintf("cachesim: %s has %d sets; need a positive power of two", cfg.Name, sets))
	}
	perBank := 1
	for perBank < sets && 2*perBank*cfg.Ways*8 <= bankBytes {
		perBank *= 2
	}
	c := &cache{
		cfg:       cfg,
		setMask:   uint64(sets - 1),
		setShift:  addr.Log2(uint64(sets)),
		bankMask:  uint64(perBank - 1),
		bankShift: addr.Log2(uint64(perBank)),
		banks:     make([]lru.Array, sets/perBank),
	}
	for i := range c.banks {
		c.banks[i] = lru.New(perBank, cfg.Ways)
	}
	return c
}

// access looks up the line containing pa, filling on miss. Returns hit.
func (c *cache) access(pa addr.P) bool {
	c.accesses++
	line := uint64(pa) / addr.CacheLineSize
	set := line & c.setMask
	tag := line >> c.setShift
	b := &c.banks[set>>c.bankShift]
	i, hit := b.Probe(int(set&c.bankMask), tag)
	b.Put(i, tag)
	if !hit {
		c.misses++
	}
	return hit
}

// flush invalidates every line (counters are retained).
func (c *cache) flush() {
	for i := range c.banks {
		c.banks[i].Flush()
	}
}

// Hierarchy is an inclusive multi-level cache hierarchy over DRAM.
type Hierarchy struct {
	levels     []*cache
	memLatency uint64
	memAccess  uint64
}

// NewHierarchy builds a hierarchy from fastest to slowest level, with the
// given DRAM latency behind the last level.
func NewHierarchy(levels []Level, memLatency uint64) *Hierarchy {
	if len(levels) == 0 {
		panic("cachesim: empty hierarchy")
	}
	h := &Hierarchy{memLatency: memLatency}
	for _, cfg := range levels {
		h.levels = append(h.levels, newCache(cfg))
	}
	return h
}

// AccessResult describes one reference's journey through the hierarchy.
type AccessResult struct {
	// HitLevel is the index of the level that hit, or len(levels) for a
	// DRAM access.
	HitLevel int
	// Cycles is the total latency of the reference.
	Cycles uint64
	// LevelReads counts per-level lookups performed (for energy).
	LevelReads int
}

// Access simulates one read or write of the line containing pa.
func (h *Hierarchy) Access(pa addr.P) AccessResult {
	var res AccessResult
	for i, c := range h.levels {
		res.Cycles += c.cfg.Latency
		res.LevelReads++
		if c.access(pa) {
			res.HitLevel = i
			return res
		}
	}
	h.memAccess++
	res.Cycles += h.memLatency
	res.HitLevel = len(h.levels)
	return res
}

// Levels returns the number of cache levels.
func (h *Hierarchy) Levels() int { return len(h.levels) }

// MemLatency returns the DRAM access latency in cycles.
func (h *Hierarchy) MemLatency() uint64 { return h.memLatency }

// LevelStats reports accesses and misses for level i.
func (h *Hierarchy) LevelStats(i int) (name string, accesses, misses uint64) {
	c := h.levels[i]
	return c.cfg.Name, c.accesses, c.misses
}

// MemAccesses reports the number of DRAM references.
func (h *Hierarchy) MemAccesses() uint64 { return h.memAccess }

// Flush invalidates every line in every level (counters are retained).
func (h *Hierarchy) Flush() {
	for _, c := range h.levels {
		c.flush()
	}
}
