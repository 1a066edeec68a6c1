// Package physmem models physical memory as a buddy allocator plus the
// memhog-style fragmenter the paper uses to control superpage availability
// (Sec 7.1). Superpage frequency *and* superpage contiguity in the higher
// layers emerge from this allocator's behaviour, exactly as they do from a
// real OS buddy allocator: when memory is defragmented, successive
// superpage allocations are served from ascending adjacent blocks; when
// small random allocations riddle memory, large blocks become scarce.
package physmem

import (
	"fmt"
	"math/bits"

	"mixtlb/internal/addr"
	"mixtlb/internal/simrand"
)

// MaxOrder is the largest supported allocation order: order 18 blocks are
// 2^18 4KB frames = 1GB, the largest x86-64 page size.
const MaxOrder = 18

// Buddy is a binary buddy allocator over 4KB physical frames.
//
// It is implemented as a complete binary tree where each node covers an
// aligned power-of-two run of frames and records the largest free aligned
// block beneath it, encoded as order+1 (0 means nothing free). Allocation
// descends leftmost-first, handing out the lowest free block of the
// requested order — the behaviour that makes consecutive superpage
// allocations physically contiguous when memory is defragmented. Freeing
// merges buddies automatically as the fully-free property propagates up.
//
// Invariant: a node that is neither fully free (encoding order+1) nor
// empty (encoding 0) always has accurate children. Fully free and empty
// nodes may have stale descendants, so traversals always descend from the
// root and split fully free nodes on the way down. An empty node claimed
// by address (AllocBlockAt) is the exception: all of its descendants read
// empty too, so each of its frames may later be freed on its own.
type Buddy struct {
	frames uint64  // usable frames
	leaves uint64  // padded power-of-two leaf count
	height uint    // log2(leaves)
	tree   []uint8 // 1-indexed; tree[1] is the root
	free   uint64  // free frame count

	// faultHook, when set, may veto an allocation (fault injection: a
	// transient OOM). A vetoed allocation reports failure without
	// touching allocator state.
	faultHook func(order uint) bool
}

// SetFaultHook installs (or, with nil, removes) a transient-failure hook
// consulted at the top of every allocation.
func (b *Buddy) SetFaultHook(f func(order uint) bool) { b.faultHook = f }

// NewBuddy returns an allocator managing totalBytes of physical memory.
// totalBytes must be a positive multiple of 4KB.
func NewBuddy(totalBytes uint64) *Buddy {
	if totalBytes == 0 || totalBytes%addr.Size4K != 0 {
		panic("physmem: total size must be a positive multiple of 4KB")
	}
	frames := totalBytes / addr.Size4K
	leaves := uint64(1)
	var height uint
	for leaves < frames {
		leaves <<= 1
		height++
	}
	b := &Buddy{
		frames: frames,
		leaves: leaves,
		height: height,
		tree:   make([]uint8, 2*leaves),
		free:   frames,
	}
	// Leaves: usable frames are free at order 0 (encoded 1), padding is
	// permanently allocated (encoded 0).
	for i := uint64(0); i < frames; i++ {
		b.tree[leaves+i] = 1
	}
	// Interior nodes, bottom-up.
	for n := leaves - 1; n >= 1; n-- {
		b.tree[n] = merge(b.tree[2*n], b.tree[2*n+1], b.nodeOrder(n))
	}
	return b
}

// merge computes a parent's encoding from its children: if both children
// are fully free blocks of the child order, the parent is a fully free
// block one order larger (buddy coalescing); otherwise it exposes the
// larger of the children's best blocks.
func merge(l, r uint8, parentOrder uint) uint8 {
	childFull := uint8(parentOrder) // child order + 1
	if l == childFull && r == childFull {
		return childFull + 1
	}
	if l > r {
		return l
	}
	return r
}

// nodeOrder returns the order of the block covered by tree node n, which
// sits at depth floor(log2(n)) below the root.
func (b *Buddy) nodeOrder(n uint64) uint {
	return b.height - uint(bits.Len64(n)-1)
}

// TotalFrames returns the number of usable 4KB frames.
func (b *Buddy) TotalFrames() uint64 { return b.frames }

// TotalBytes returns the managed memory size in bytes.
func (b *Buddy) TotalBytes() uint64 { return b.frames * addr.Size4K }

// FreeFrames returns the number of currently free 4KB frames.
func (b *Buddy) FreeFrames() uint64 { return b.free }

// LargestFreeOrder returns the order of the largest allocatable block, and
// false if no memory is free.
func (b *Buddy) LargestFreeOrder() (uint, bool) {
	if b.tree[1] == 0 {
		return 0, false
	}
	return uint(b.tree[1] - 1), true
}

// splitIfFull refreshes the children of a fully free node so a traversal
// may descend through it. n must be an interior node of order no.
func (b *Buddy) splitIfFull(n uint64, no uint) {
	if b.tree[n] == uint8(no+1) {
		b.tree[2*n] = uint8(no) // child order no-1, encoding no
		b.tree[2*n+1] = uint8(no)
	}
}

// AllocOrder allocates the lowest-addressed free block of 2^order frames,
// returning its first frame number. ok is false if no such block exists.
func (b *Buddy) AllocOrder(order uint) (frame uint64, ok bool) {
	if order > MaxOrder || order > b.height {
		return 0, false
	}
	if b.faultHook != nil && b.faultHook(order) {
		return 0, false
	}
	want := uint8(order + 1)
	if b.tree[1] < want {
		return 0, false
	}
	n := uint64(1)
	for no := b.height; no > order; no-- {
		b.splitIfFull(n, no)
		n <<= 1
		if b.tree[n] < want {
			n++ // left child cannot satisfy; the right one must
		}
	}
	frame = (n - (b.leaves >> order)) << order
	b.tree[n] = 0
	b.propagate(n, order)
	b.free -= 1 << order
	return frame, true
}

// propagate recomputes encodings from the parent of n, a node of the
// given order, up to the root.
func (b *Buddy) propagate(n uint64, order uint) {
	for n >>= 1; n >= 1; n >>= 1 {
		order++
		b.tree[n] = merge(b.tree[2*n], b.tree[2*n+1], order)
	}
}

// AllocPage allocates a naturally aligned physical page of size s and
// returns its base address.
func (b *Buddy) AllocPage(s addr.PageSize) (addr.P, bool) {
	order := uint(s.Shift() - addr.Shift4K)
	frame, ok := b.AllocOrder(order)
	if !ok {
		return 0, false
	}
	return addr.P(frame << addr.Shift4K), true
}

// OrderOf translates a page-size class into a buddy order under a bound
// address space's ladder — the descriptor-driven counterpart of the
// s.Shift()-Shift4K arithmetic AllocPage hardcodes. Identical results for
// any descriptor with the default 4KB/2MB/1GB ladder.
func OrderOf(sp addr.Space, s addr.PageSize) uint {
	return sp.Shift(s) - sp.Shift(addr.Page4K)
}

// AllocPageIn is AllocPage with the order keyed off a bound ladder.
func (b *Buddy) AllocPageIn(sp addr.Space, s addr.PageSize) (addr.P, bool) {
	frame, ok := b.AllocOrder(OrderOf(sp, s))
	if !ok {
		return 0, false
	}
	return addr.P(frame << addr.Shift4K), true
}

// FreePageIn is FreePage with the order keyed off a bound ladder.
func (b *Buddy) FreePageIn(sp addr.Space, pa addr.P, s addr.PageSize) {
	b.Free(pa.PFN4K(), OrderOf(sp, s))
}

// Free releases the block of 2^order frames starting at frame. The pair
// must match a previous allocation exactly, except that the frames of a
// block claimed by AllocBlockAt may be freed one at a time; any other
// freeing at a different granularity than the allocation is a caller bug.
func (b *Buddy) Free(frame uint64, order uint) {
	if order > b.height || frame%(1<<order) != 0 || frame+(1<<order) > b.frames {
		panic(fmt.Sprintf("physmem: bad Free(frame=%d, order=%d)", frame, order))
	}
	n := (b.leaves >> order) + (frame >> order)
	if b.tree[n] != 0 {
		panic(fmt.Sprintf("physmem: double free of frame %d order %d", frame, order))
	}
	b.tree[n] = uint8(order + 1)
	b.propagate(n, order)
	b.free += 1 << order
}

// FreePage releases a page previously returned by AllocPage.
func (b *Buddy) FreePage(pa addr.P, s addr.PageSize) {
	b.Free(pa.PFN4K(), uint(s.Shift()-addr.Shift4K))
}

// FrameFree reports whether the single frame is currently free.
func (b *Buddy) FrameFree(frame uint64) bool {
	if frame >= b.frames {
		return false
	}
	n := uint64(1)
	for no := b.height; ; no-- {
		enc := b.tree[n]
		if enc == 0 {
			return false // nothing free below
		}
		if enc == uint8(no+1) {
			return true // fully free block covering the frame
		}
		// Partial: children are accurate; descend toward the frame.
		n = 2*n + (frame>>(no-1))&1
	}
}

// AllocFrameAt allocates the specific single frame if it is free,
// splitting covering blocks as needed. It reports whether the frame was
// allocated. AllocRandomFrame probes with it, and compaction pins a
// candidate region's free frames with it.
func (b *Buddy) AllocFrameAt(frame uint64) bool { return b.AllocBlockAt(frame, 0) }

// AllocBlockAt allocates the specific aligned block of 2^order frames
// starting at frame, if it is entirely free, splitting covering blocks as
// needed. It reports success. Memhog claims its chunks and compaction its
// assembled regions this way. Every frame of a block claimed here may
// later be freed on its own.
func (b *Buddy) AllocBlockAt(frame uint64, order uint) bool {
	if order > b.height || frame%(1<<order) != 0 || frame+(1<<order) > b.frames {
		return false
	}
	want := uint8(order + 1)
	n := uint64(1)
	for no := b.height; no > order; no-- {
		if b.tree[n] < want {
			return false // no free block of this order below
		}
		b.splitIfFull(n, no)
		n = 2*n + (frame>>(no-1))&1
	}
	if b.tree[n] != want {
		return false // block not fully free
	}
	// Empty the whole subtree, not just n: level k below n is the
	// contiguous run tree[n<<k : (n+1)<<k].
	for k := uint(0); k <= order; k++ {
		clear(b.tree[n<<k : (n+1)<<k])
	}
	b.propagate(n, order)
	b.free -= 1 << order
	return true
}

// AllocRandomFrame allocates a uniformly random free frame, returning its
// number. ok is false when memory is exhausted.
func (b *Buddy) AllocRandomFrame(rng *simrand.Source) (uint64, bool) {
	if b.free == 0 {
		return 0, false
	}
	// Rejection sampling over the frame space is cheap while free memory
	// is a non-negligible fraction; fall back to a randomized tree
	// descent when nearly full.
	for try := 0; try < 64; try++ {
		f := rng.Uint64n(b.frames)
		if b.AllocFrameAt(f) {
			return f, true
		}
	}
	n := uint64(1)
	for no := b.height; no > 0; no-- {
		b.splitIfFull(n, no)
		l, r := 2*n, 2*n+1
		switch {
		case b.tree[l] == 0:
			n = r
		case b.tree[r] == 0:
			n = l
		default:
			if rng.Bool(0.5) {
				n = l
			} else {
				n = r
			}
		}
	}
	f := n - b.leaves
	b.tree[n] = 0
	b.propagate(n, 0)
	b.free--
	return f, true
}

// FreeBlocksOfOrder counts the maximal free blocks of exactly the given
// order (diagnostic; used by fragmentation reports).
func (b *Buddy) FreeBlocksOfOrder(order uint) uint64 {
	var count uint64
	var walk func(n uint64, no uint)
	walk = func(n uint64, no uint) {
		enc := b.tree[n]
		if enc == 0 {
			return
		}
		if enc == uint8(no+1) {
			if no == order {
				count++
			}
			return // a larger free block holds no maximal smaller ones
		}
		walk(2*n, no-1)
		walk(2*n+1, no-1)
	}
	walk(1, b.height)
	return count
}
