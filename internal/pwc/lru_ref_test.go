package pwc

import (
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/isa"
	"mixtlb/internal/simrand"
)

// refPrefixCache is the fully associative LRU scan this package used
// before it shared internal/lru, kept as the reference the shared array
// is checked against. insert fills the *last* free entry where lru takes
// the first; no entry index leaves the cache, so the two must agree on
// every hit and miss.
type refPrefixCache struct {
	keys  []uint64
	valid []bool
	stamp []uint64
	clock uint64
}

func newRefPrefixCache(entries int) *refPrefixCache {
	return &refPrefixCache{
		keys:  make([]uint64, entries),
		valid: make([]bool, entries),
		stamp: make([]uint64, entries),
	}
}

func (c *refPrefixCache) lookup(key uint64) bool {
	c.clock++
	for i := range c.keys {
		if c.valid[i] && c.keys[i] == key {
			c.stamp[i] = c.clock
			return true
		}
	}
	return false
}

func (c *refPrefixCache) insert(key uint64) {
	c.clock++
	victim, oldest := 0, ^uint64(0)
	for i := range c.keys {
		if c.valid[i] && c.keys[i] == key {
			c.stamp[i] = c.clock
			return
		}
		if !c.valid[i] {
			victim, oldest = i, 0
		} else if c.stamp[i] < oldest {
			victim, oldest = i, c.stamp[i]
		}
	}
	c.keys[victim], c.valid[victim], c.stamp[victim] = key, true, c.clock
}

func (c *refPrefixCache) invalidate(key uint64) {
	for i := range c.keys {
		if c.valid[i] && c.keys[i] == key {
			c.valid[i] = false
		}
	}
}

func (c *refPrefixCache) flush() {
	for i := range c.valid {
		c.valid[i] = false
	}
}

// refSkip is Cache.Skip over reference levels.
func refSkip(levels []*refPrefixCache, shifts []uint, va addr.V, maxSkip int) int {
	for lvl := len(levels) - 1; lvl >= 0; lvl-- {
		if lvl+1 <= maxSkip && levels[lvl].lookup(uint64(va)>>shifts[lvl]) {
			return lvl + 1
		}
	}
	return 0
}

// TestCacheMatchesLastFreeReference runs a Cache next to reference
// levels holding the same prefixes, over random capacities, descriptors
// and streams of Skip, Fill, Invalidate and Flush: every Skip must agree.
func TestCacheMatchesLastFreeReference(t *testing.T) {
	rng := simrand.New(0x9f1)
	isas := []string{"x86-64", "x86-64-la57", "sv39"}
	for trial := 0; trial < 300; trial++ {
		d, err := isa.Lookup(isas[trial%len(isas)])
		if err != nil {
			t.Fatal(err)
		}
		entries := 1 + rng.Intn(20)
		c := NewISA(entries, d)
		ref := make([]*refPrefixCache, len(c.levels))
		for i := range ref {
			ref[i] = newRefPrefixCache(entries)
		}
		for i := 0; i < 2000; i++ {
			va := streamVA(d, rng)
			switch u := rng.Float64(); {
			case u < 0.45:
				maxSkip := rng.Intn(d.Depth() + 1)
				if got, want := c.Skip(va, maxSkip), refSkip(ref, c.shifts, va, maxSkip); got != want {
					t.Fatalf("trial %d (%s, %d entries) op %d Skip(%#x): %d, reference %d",
						trial, d.Name, entries, i, uint64(va), got, want)
				}
			case u < 0.90:
				walkLen := 1 + rng.Intn(d.Depth())
				c.Fill(va, walkLen)
				for lvl := 0; lvl < walkLen-1 && lvl < len(ref); lvl++ {
					ref[lvl].insert(uint64(va) >> c.shifts[lvl])
				}
			case u < 0.995:
				c.Invalidate(va)
				for lvl := range ref {
					ref[lvl].invalidate(uint64(va) >> c.shifts[lvl])
				}
			default:
				c.Flush()
				for _, r := range ref {
					r.flush()
				}
			}
		}
	}
}
