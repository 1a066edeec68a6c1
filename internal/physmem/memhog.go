package physmem

import (
	"fmt"
	"math/bits"

	"mixtlb/internal/addr"
	"mixtlb/internal/simrand"
)

// Memhog reproduces the paper's fragmentation microbenchmark (Sec 7.1): a
// background process that allocates memory randomly across a fraction of
// system memory, destroying the large free blocks superpages need.
//
// Two aspects of real systems matter for reproducing Figure 9's regimes
// and are modeled here:
//
//   - Real allocations are chunky, not single random frames: memhog's
//     touches arrive as contiguous buffers. Holdings are therefore grabbed
//     as randomly-placed aligned chunks of mixed sizes (64KB-2MB class),
//     with single-frame fallback under pressure.
//   - Most such memory is *movable*: Linux compaction migrates it to
//     assemble free superpage blocks ("THS tries to defragment memory",
//     Sec 7.1). A configurable fraction of holdings is unmovable, standing
//     in for the kernel/pinned allocations that accompany memory pressure
//     and ultimately defeat compaction as load grows.
//
// CompactFor implements that migration: it hunts for an aligned region
// whose only occupants are movable hog frames, relocates them, and hands
// the caller the assembled block.
type Memhog struct {
	buddy *Buddy
	rng   *simrand.Source

	movable   bitset // frames held and migratable
	unmovable bitset // frames held and pinned
	held      uint64

	// UnmovableFrac is the probability a new chunk is pinned (default
	// 0.25, set before the first Run).
	UnmovableFrac float64
	// MaxChunkOrder bounds chunk sizes (default 9 = 2MB).
	MaxChunkOrder uint
	// UnmovableScatterFrac is the probability an unmovable chunk lands at
	// a random position, modeling the migratetype *fallback* pollution
	// that accumulates on long-loaded systems: under pressure, unmovable
	// allocations spill into movable pageblocks and permanently defeat
	// compaction there. Default 0 (clean segregation).
	UnmovableScatterFrac float64
	// ScatterFrac is the probability a movable chunk lands at a random
	// position instead of packing into the lowest free space (default
	// 0.01). Real memhog backs one huge buffer with packed buddy
	// allocations, so scattering is rare — and every scattered chunk is
	// one break in the free space's contiguity, which is what ultimately
	// limits superpage runs (Fig 11's contiguity comes directly from
	// this). Raise it to model hostile fragmentation.
	ScatterFrac float64

	// ScatterClusterBias is the probability a scattered chunk lands right
	// after the previous scattered chunk instead of at a fresh uniform
	// position (default 0.99). Real fragmentation is bursty — a load spike
	// trashes one area while others stay pristine — and clustering is
	// what preserves long superpage runs in the clean areas even when
	// many regions are polluted (Fig 11/12's coexistence of degraded
	// averages with long tails).
	ScatterClusterBias float64

	// CompactBudget bounds the candidate regions one compaction attempt
	// scans (default 8): the THP fault path makes one bounded effort and
	// defers, leaving the rest to background compaction.
	CompactBudget uint64
	// MigrateFailProb is the per-page probability that migration fails
	// (transiently pinned or un-isolatable pages, default 0.0005); any
	// failed page aborts that region's compaction, as in Linux.
	MigrateFailProb float64

	// Migrated counts frames moved by compaction (diagnostic).
	Migrated uint64

	// lastScatter is the frame after the most recent scattered chunk.
	lastScatter uint64

	// compactCursor remembers where the last successful compaction ended,
	// so successive compacted allocations come from ascending adjacent
	// regions — as Linux compaction's migration scanner produces, and the
	// property that gives compacted superpages their physical contiguity.
	compactCursor uint64
}

// NewMemhog returns a fragmenter over the given allocator.
func NewMemhog(b *Buddy, rng *simrand.Source) *Memhog {
	return &Memhog{
		buddy:              b,
		rng:                rng,
		movable:            newBitset(b.TotalFrames()),
		unmovable:          newBitset(b.TotalFrames()),
		UnmovableFrac:      0.25,
		MaxChunkOrder:      9,
		ScatterFrac:        0.01,
		ScatterClusterBias: 0.99,
		CompactBudget:      8,
		MigrateFailProb:    0.0005,
	}
}

// Held returns the number of frames the hog currently pins.
func (m *Memhog) Held() uint64 { return m.held }

// Owns reports whether the hog holds the frame (either class).
func (m *Memhog) Owns(frame uint64) bool {
	return m.movable.get(frame) || m.unmovable.get(frame)
}

// Run adjusts holdings to the given fraction of total physical memory.
// Growing allocates random aligned chunks (single frames under pressure);
// shrinking releases random held frames. Returns frames held afterwards.
func (m *Memhog) Run(fraction float64) uint64 {
	if fraction < 0 || fraction > 1 {
		panic(fmt.Sprintf("physmem: memhog fraction %v out of [0,1]", fraction))
	}
	target := uint64(fraction * float64(m.buddy.TotalFrames()))
	for m.held < target {
		if !m.grabChunk(target - m.held) {
			break // memory exhausted
		}
	}
	for m.held > target {
		m.releaseRandomFrame()
	}
	return m.held
}

// grabChunk allocates one chunk of frames (≤ budget), placed at a random
// aligned position. The chunk's movability class is drawn once.
func (m *Memhog) grabChunk(budget uint64) bool {
	set := &m.movable
	if m.rng.Float64() < m.UnmovableFrac {
		set = &m.unmovable
	}
	order := uint(m.rng.Intn(int(m.MaxChunkOrder) + 1))
	for order > 0 && uint64(1)<<order > budget {
		order--
	}
	total := m.buddy.TotalFrames()
	// Unmovable chunks never scatter: Linux's migratetype grouping steers
	// unmovable allocations into dedicated pageblocks precisely so the
	// rest of memory stays compactable. Only movable chunks land at
	// random addresses.
	scatter := m.ScatterFrac
	if set == &m.unmovable {
		scatter = m.UnmovableScatterFrac
	}
	if m.rng.Float64() < scatter {
		// Scattered chunk: usually clustered after the previous one
		// (bursty fragmentation), otherwise a fresh uniform position.
		size := uint64(1) << order
		var start uint64
		if m.rng.Float64() < m.ScatterClusterBias && m.lastScatter+size <= total {
			start = addr.AlignedUp(m.lastScatter, size)
		} else {
			start = m.rng.Uint64n(total) &^ (size - 1)
		}
		if start+size <= total && m.grabAt(set, start, order) {
			// Leave a strictly sub-superpage gap before the next
			// clustered chunk: the polluted zone ends up as alternating
			// held/free fragments — free memory that small pages can use
			// but superpages cannot, the hallmark of real fragmentation.
			// Gaps stay below half a chunk so no aligned 2MB block ever
			// survives inside a blob (superpages then come in bulk runs
			// from the clean areas, or not at all — the correlation the
			// paper observes in Sec 1).
			m.lastScatter = start + size + m.rng.Uint64n(size/2+1)
			return true
		}
		// Occupied spot: fall through to a packed grab.
	}
	// Packed chunk: the lowest free block of this (or a smaller) order,
	// as a buddy allocator would serve a buffer, found by AllocOrder and
	// then claimed by address like a scattered chunk.
	for ; ; order-- {
		if start, ok := m.buddy.AllocOrder(order); ok {
			m.buddy.Free(start, order)
			if m.grabAt(set, start, order) {
				return true
			}
		}
		if order == 0 {
			break
		}
	}
	// Last resort under pressure: a single random free frame.
	f, ok := m.buddy.AllocRandomFrame(m.rng)
	if !ok {
		return false
	}
	set.set(f)
	m.held++
	return true
}

// grabAt claims the aligned chunk of 2^order frames at start if every
// frame of it is free, and reports success. The buddy allocator claims it
// as one block by address, so each of its frames can later be released
// or migrated on its own.
func (m *Memhog) grabAt(set *bitset, start uint64, order uint) bool {
	if !m.buddy.AllocBlockAt(start, order) {
		return false
	}
	size := uint64(1) << order
	for i := uint64(0); i < size; i++ {
		set.set(start + i)
	}
	m.held += size
	return true
}

// releaseRandomFrame frees one held frame chosen (approximately) uniformly.
func (m *Memhog) releaseRandomFrame() {
	total := m.buddy.TotalFrames()
	for {
		f := m.rng.Uint64n(total)
		switch {
		case m.movable.get(f):
			m.movable.clear(f)
		case m.unmovable.get(f):
			m.unmovable.clear(f)
		default:
			continue
		}
		m.buddy.Free(f, 0)
		m.held--
		return
	}
}

// Release frees every held frame, in ascending order.
func (m *Memhog) Release() {
	m.HeldFrames(func(f uint64) bool {
		m.buddy.Free(f, 0)
		return true
	})
	clear(m.movable)
	clear(m.unmovable)
	m.held = 0
}

// CompactFor attempts to assemble and allocate a block of 2^order frames
// by migrating movable hog frames out of a candidate region, modeling
// Linux memory compaction on the THS allocation path. Candidate regions
// are scanned in ascending order from a cursor, so back-to-back compacted
// allocations land adjacently — the source of superpage contiguity under
// fragmentation (Sec 7.1). The returned block is already allocated to the
// caller. ok is false when no candidate region (free + movable-only
// occupancy, with enough free memory elsewhere to absorb the migrants)
// exists within the scan budget.
func (m *Memhog) CompactFor(order uint) (frame uint64, ok bool) {
	size := uint64(1) << order
	total := m.buddy.TotalFrames()
	if size > total {
		return 0, false
	}
	regions := total / size
	budget := m.CompactBudget
	if budget == 0 || budget > regions {
		budget = regions
	}
	r := m.compactCursor / size
	for tried := uint64(0); tried < budget; tried++ {
		start := (r % regions) * size
		r++
		if f, ok := m.tryCompactRegion(start, size); ok {
			m.compactCursor = f + size
			if m.compactCursor >= total {
				m.compactCursor = 0
			}
			return f, true
		}
	}
	// Advance past the scanned candidates so the next attempt probes new
	// territory instead of re-failing on the same polluted regions.
	m.compactCursor = (r % regions) * size
	return 0, false
}

// tryCompactRegion migrates the movable frames out of [start, start+size)
// and allocates the region, failing if any occupant is unmovable (pinned
// hog memory or any non-hog allocation: page tables, workload pages).
func (m *Memhog) tryCompactRegion(start, size uint64) (uint64, bool) {
	var movers []uint64
	freeInside := uint64(0)
	for f := start; f < start+size; f++ {
		switch {
		case m.movable.get(f):
			movers = append(movers, f)
		case m.unmovable.get(f):
			return 0, false
		case m.buddy.FrameFree(f):
			freeInside++
		default:
			return 0, false // foreign allocation: not migratable
		}
	}
	// Destination space must exist outside the region.
	if m.buddy.FreeFrames()-freeInside < uint64(len(movers)) {
		return 0, false
	}
	if len(movers) == 0 {
		if m.buddy.AllocBlockAt(start, addr.Log2(size)) {
			return start, true
		}
		return 0, false
	}
	// Pin the region's free frames so migration destinations land
	// elsewhere, then move each hog frame out.
	var pins []uint64
	for f := start; f < start+size; f++ {
		if !m.Owns(f) && m.buddy.AllocFrameAt(f) {
			pins = append(pins, f)
		}
	}
	// Per-page migration can fail (pinned or un-isolatable pages); any
	// failure aborts the region, as Linux's THP compaction does.
	for range movers {
		if m.rng.Float64() < m.MigrateFailProb {
			return 0, false
		}
	}
	// Allocate every destination before freeing any source, so migrants
	// cannot land back inside the region being assembled.
	dests := make([]uint64, len(movers))
	for i := range movers {
		dest, ok := m.buddy.AllocRandomFrame(m.rng)
		if !ok {
			panic("physmem: compaction destination vanished despite free-count check")
		}
		dests[i] = dest
	}
	for i, f := range movers {
		m.movable.clear(f)
		m.movable.set(dests[i])
		m.buddy.Free(f, 0)
		m.Migrated++
	}
	for _, f := range pins {
		m.buddy.Free(f, 0)
	}
	if !m.buddy.AllocBlockAt(start, addr.Log2(size)) {
		panic("physmem: compacted region not allocatable")
	}
	return start, true
}

// bitset is a simple fixed-size bit vector over frame numbers.
type bitset []uint64

func newBitset(n uint64) bitset { return make(bitset, (n+63)/64) }

func (b bitset) get(i uint64) bool { return b[i/64]&(1<<(i%64)) != 0 }
func (b bitset) set(i uint64)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) clear(i uint64)    { b[i/64] &^= 1 << (i % 64) }

// HeldFrames visits every frame the hog currently holds (movable and
// unmovable); visit returns false to stop. Virtualized experiments use
// this to demand host backing for in-VM memhog memory — a guest's hog
// touches its pages, so the hypervisor must back them. Frames are visited
// in ascending order, one 64-frame word at a time.
func (m *Memhog) HeldFrames(visit func(frame uint64) bool) {
	for i := range m.movable {
		for w := m.movable[i] | m.unmovable[i]; w != 0; w &= w - 1 {
			if !visit(uint64(i)*64 + uint64(bits.TrailingZeros64(w))) {
				return
			}
		}
	}
}
