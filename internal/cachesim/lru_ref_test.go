package cachesim

import (
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/simrand"
)

// refCache is the per-set scan this package used before it shared
// internal/lru, kept as the reference the shared array is checked
// against. It fills the *last* free way where lru takes the first; no
// way index leaves a cache, so the two must agree on every hit and miss.
type refCache struct {
	sets  int
	ways  int
	tags  [][]uint64
	valid [][]bool
	stamp [][]uint64
	clock uint64
}

func newRefCache(sets, ways int) *refCache {
	c := &refCache{sets: sets, ways: ways}
	c.tags = make([][]uint64, sets)
	c.valid = make([][]bool, sets)
	c.stamp = make([][]uint64, sets)
	for i := range c.tags {
		c.tags[i] = make([]uint64, ways)
		c.valid[i] = make([]bool, ways)
		c.stamp[i] = make([]uint64, ways)
	}
	return c
}

func (c *refCache) access(pa addr.P) bool {
	c.clock++
	line := uint64(pa) / addr.CacheLineSize
	set := int(line) & (c.sets - 1)
	tag := line >> addr.Log2(uint64(c.sets))
	victim, oldest := 0, ^uint64(0)
	for w := 0; w < c.ways; w++ {
		if c.valid[set][w] && c.tags[set][w] == tag {
			c.stamp[set][w] = c.clock
			return true
		}
		if !c.valid[set][w] {
			victim, oldest = w, 0
		} else if c.stamp[set][w] < oldest {
			victim, oldest = w, c.stamp[set][w]
		}
	}
	c.valid[set][victim] = true
	c.tags[set][victim] = tag
	c.stamp[set][victim] = c.clock
	return false
}

func (c *refCache) flush() {
	for s := range c.valid {
		for w := range c.valid[s] {
			c.valid[s][w] = false
		}
	}
}

// TestCacheMatchesLastFreeReference checks the shared LRU array against
// refCache over random geometries and streams with flushes: the same
// hit/miss sequence, access by access.
func TestCacheMatchesLastFreeReference(t *testing.T) {
	rng := simrand.New(0x1a57f)
	for trial := 0; trial < 200; trial++ {
		sets, ways := 1<<rng.Intn(6), 1+rng.Intn(12)
		c := newCache(Level{Name: "x", Size: uint64(sets*ways) * addr.CacheLineSize, Ways: ways})
		ref := newRefCache(sets, ways)
		// Draw lines from a footprint a few times the capacity, so sets
		// fill, evict and refill; flushes leave free ways mid-set.
		span := uint64(sets*ways) * uint64(1+rng.Intn(4))
		for i := 0; i < 3000; i++ {
			if rng.Bool(0.002) {
				c.flush()
				ref.flush()
			}
			pa := addr.P(rng.Uint64n(span)*addr.CacheLineSize + rng.Uint64n(addr.CacheLineSize))
			if got, want := c.access(pa), ref.access(pa); got != want {
				t.Fatalf("trial %d (%dx%d) access %d of %#x: hit %v, reference %v",
					trial, sets, ways, i, uint64(pa), got, want)
			}
		}
	}
}

// TestBankedCacheMatchesReference runs refCache against levels large
// enough to be split into several banks, including the default LLC's
// geometry, over streams that revisit lines often enough to hit.
func TestBankedCacheMatchesReference(t *testing.T) {
	rng := simrand.New(0xba4c)
	for _, g := range []struct{ sets, ways int }{{1024, 8}, {512, 24}, {16384, 24}, {64, 1024}} {
		c := newCache(Level{Name: "x", Size: uint64(g.sets*g.ways) * addr.CacheLineSize, Ways: g.ways})
		if len(c.banks) < 2 {
			t.Fatalf("%dx%d: %d bank(s), want several", g.sets, g.ways, len(c.banks))
		}
		ref := newRefCache(g.sets, g.ways)
		lines := uint64(g.sets * g.ways)
		for i := 0; i < 200_000; i++ {
			if i%50_000 == 49_999 {
				c.flush()
				ref.flush()
			}
			// Half the accesses reuse a hot footprint of half the capacity.
			span := 3 * lines
			if rng.Bool(0.5) {
				span = lines / 2
			}
			pa := addr.P(rng.Uint64n(span) * addr.CacheLineSize)
			if got, want := c.access(pa), ref.access(pa); got != want {
				t.Fatalf("%dx%d access %d of %#x: hit %v, reference %v", g.sets, g.ways, i, uint64(pa), got, want)
			}
		}
	}
}
