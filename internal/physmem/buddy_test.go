package physmem

import (
	"testing"
	"testing/quick"

	"mixtlb/internal/addr"
	"mixtlb/internal/simrand"
)

func TestNewBuddyRejectsBadSizes(t *testing.T) {
	for _, sz := range []uint64{0, 100, addr.Size4K + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBuddy(%d) did not panic", sz)
				}
			}()
			NewBuddy(sz)
		}()
	}
}

func TestAllocLowestFirst(t *testing.T) {
	b := NewBuddy(16 * addr.Size4K)
	for i := uint64(0); i < 16; i++ {
		f, ok := b.AllocOrder(0)
		if !ok || f != i {
			t.Fatalf("alloc %d: got (%d, %v), want (%d, true)", i, f, ok, i)
		}
	}
	if _, ok := b.AllocOrder(0); ok {
		t.Fatal("allocation succeeded on full memory")
	}
	if b.FreeFrames() != 0 {
		t.Fatalf("FreeFrames = %d, want 0", b.FreeFrames())
	}
}

func TestAllocAlignment(t *testing.T) {
	b := NewBuddy(1 << 30) // 1GB
	for order := uint(0); order <= 10; order++ {
		f, ok := b.AllocOrder(order)
		if !ok {
			t.Fatalf("order %d alloc failed", order)
		}
		if f%(1<<order) != 0 {
			t.Fatalf("order %d block at frame %d is misaligned", order, f)
		}
	}
}

func TestSequentialSuperpagesAreContiguous(t *testing.T) {
	// The property MIX TLBs rely on: a defragmented allocator serves
	// ascending adjacent 2MB blocks.
	b := NewBuddy(1 << 30)
	var prev addr.P
	for i := 0; i < 8; i++ {
		pa, ok := b.AllocPage(addr.Page2M)
		if !ok {
			t.Fatal("2MB alloc failed")
		}
		if i > 0 && pa != prev+addr.Size2M {
			t.Fatalf("2MB page %d at %v, want %v", i, pa, prev+addr.Size2M)
		}
		prev = pa
	}
}

func TestFreeAndCoalesce(t *testing.T) {
	b := NewBuddy(1 << 22) // 4MB = 1024 frames
	frames := make([]uint64, 0, 1024)
	for {
		f, ok := b.AllocOrder(0)
		if !ok {
			break
		}
		frames = append(frames, f)
	}
	for _, f := range frames {
		b.Free(f, 0)
	}
	// After freeing everything, buddies must have merged back to one
	// maximal block, allowing a full-size allocation.
	if o, ok := b.LargestFreeOrder(); !ok || o != 10 {
		t.Fatalf("LargestFreeOrder = (%d, %v), want (10, true)", o, ok)
	}
	f, ok := b.AllocOrder(10)
	if !ok || f != 0 {
		t.Fatalf("full-block alloc = (%d, %v)", f, ok)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	b := NewBuddy(1 << 20)
	f, _ := b.AllocOrder(3)
	b.Free(f, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	b.Free(f, 3)
}

func TestFreeBadArgsPanics(t *testing.T) {
	b := NewBuddy(1 << 20)
	defer func() {
		if recover() == nil {
			t.Fatal("misaligned free did not panic")
		}
	}()
	b.Free(1, 3) // not aligned to order 3
}

func TestAllocFrameAt(t *testing.T) {
	b := NewBuddy(64 * addr.Size4K)
	if !b.AllocFrameAt(17) {
		t.Fatal("AllocFrameAt(17) failed on empty allocator")
	}
	if b.AllocFrameAt(17) {
		t.Fatal("AllocFrameAt(17) succeeded twice")
	}
	if b.FrameFree(17) {
		t.Fatal("frame 17 still reported free")
	}
	if !b.FrameFree(16) || !b.FrameFree(18) {
		t.Fatal("neighbours of allocated frame not free")
	}
	if b.FreeFrames() != 63 {
		t.Fatalf("FreeFrames = %d, want 63", b.FreeFrames())
	}
	b.Free(17, 0)
	if o, ok := b.LargestFreeOrder(); !ok || o != 6 {
		t.Fatalf("after refill LargestFreeOrder = (%d, %v), want (6, true)", o, ok)
	}
}

func TestAllocFrameAtBlocksSuperpage(t *testing.T) {
	// One random small allocation inside every 2MB region should make 2MB
	// allocations impossible — the essence of fragmentation.
	b := NewBuddy(8 * addr.Size2M)
	per2M := uint64(addr.FramesPer2M)
	for i := uint64(0); i < 8; i++ {
		if !b.AllocFrameAt(i*per2M + 100) {
			t.Fatalf("hole %d failed", i)
		}
	}
	if _, ok := b.AllocPage(addr.Page2M); ok {
		t.Fatal("2MB allocation succeeded despite holes in every block")
	}
	if _, ok := b.AllocPage(addr.Page4K); !ok {
		t.Fatal("4KB allocation failed with plenty of free memory")
	}
}

func TestOutOfRangeFrames(t *testing.T) {
	b := NewBuddy(10 * addr.Size4K) // padded to 16 leaves; 10 usable
	if b.AllocFrameAt(10) || b.AllocFrameAt(999) {
		t.Fatal("allocated a padding/out-of-range frame")
	}
	if b.FrameFree(10) || b.FrameFree(1<<40) {
		t.Fatal("padding frame reported free")
	}
	// All 10 usable frames allocatable despite padding.
	for i := 0; i < 10; i++ {
		if _, ok := b.AllocOrder(0); !ok {
			t.Fatalf("alloc %d failed", i)
		}
	}
	if _, ok := b.AllocOrder(0); ok {
		t.Fatal("11th allocation out of 10 frames succeeded")
	}
}

func TestAllocRandomFrame(t *testing.T) {
	b := NewBuddy(256 * addr.Size4K)
	rng := simrand.New(1)
	seen := make(map[uint64]bool)
	for i := 0; i < 256; i++ {
		f, ok := b.AllocRandomFrame(rng)
		if !ok {
			t.Fatalf("random alloc %d failed", i)
		}
		if seen[f] {
			t.Fatalf("frame %d handed out twice", f)
		}
		seen[f] = true
	}
	if _, ok := b.AllocRandomFrame(rng); ok {
		t.Fatal("random alloc succeeded on full memory")
	}
}

func TestFreeBlocksOfOrder(t *testing.T) {
	b := NewBuddy(4 * addr.Size2M)
	if got := b.FreeBlocksOfOrder(9); got != 0 {
		// Fully free memory coalesces above order 9 (4 x 2MB = order 11).
		t.Fatalf("FreeBlocksOfOrder(9) = %d on pristine memory, want 0", got)
	}
	if got := b.FreeBlocksOfOrder(11); got != 1 {
		t.Fatalf("FreeBlocksOfOrder(11) = %d, want 1", got)
	}
	b.AllocFrameAt(0) // split the big block
	if got := b.FreeBlocksOfOrder(10); got != 1 {
		t.Fatalf("after split FreeBlocksOfOrder(10) = %d, want 1", got)
	}
}

// TestBuddyInvariants drives a random mix of operations and cross-checks
// the allocator against a naive reference bitmap: the free count, the
// maximal aligned free blocks of every order and the largest of them
// after every operation, and FrameFree of every frame at the end. Blocks
// claimed by address (AllocBlockAt, AllocFrameAt) are also freed one
// frame at a time. A padded size (500 frames in a 512-leaf tree) checks
// that padding never reads free.
func TestBuddyInvariants(t *testing.T) {
	for _, frames := range []uint64{512, 500} {
		if err := quick.Check(buddyMatchesReference(t, frames), &quick.Config{MaxCount: 30}); err != nil {
			t.Errorf("%d frames: %v", frames, err)
		}
	}
}

// buddyMatchesReference returns the quick.Check property behind
// TestBuddyInvariants for an allocator of the given size.
func buddyMatchesReference(t *testing.T, frames uint64) func(seed uint64, ops []uint16) bool {
	type allocation struct {
		frame  uint64
		order  uint
		byAddr bool // claimed by AllocBlockAt or AllocFrameAt
	}
	return func(seed uint64, ops []uint16) bool {
		b := NewBuddy(frames * addr.Size4K)
		rng := simrand.New(seed)
		ref := make([]bool, frames) // true = allocated
		var live []allocation
		blockFree := func(frame uint64, order uint) bool {
			if frame+1<<order > frames {
				return false
			}
			for i := frame; i < frame+1<<order; i++ {
				if ref[i] {
					return false
				}
			}
			return true
		}
		claim := func(frame uint64, order uint, byAddr bool) bool {
			for i := frame; i < frame+1<<order; i++ {
				if ref[i] {
					t.Logf("overlap at frame %d", i)
					return false
				}
				ref[i] = true
			}
			live = append(live, allocation{frame, order, byAddr})
			return true
		}
		drop := func(i int) {
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for _, op := range ops {
			switch op % 5 {
			case 0: // allocate a block of random order
				order := uint(op/5) % 6
				if frame, ok := b.AllocOrder(order); ok && !claim(frame, order, false) {
					return false
				}
			case 1: // free a random live block
				if len(live) > 0 {
					i := rng.Intn(len(live))
					a := live[i]
					b.Free(a.frame, a.order)
					for j := a.frame; j < a.frame+1<<a.order; j++ {
						ref[j] = false
					}
					drop(i)
				}
			case 2: // pinpoint allocation
				target := uint64(op) % frames
				got := b.AllocFrameAt(target)
				if got != !ref[target] {
					t.Logf("AllocFrameAt(%d) = %v, ref says allocated=%v", target, got, ref[target])
					return false
				}
				if got && !claim(target, 0, true) {
					return false
				}
			case 3: // claim an aligned block by address
				order := uint(op/5) % 6
				target := rng.Uint64n(frames) &^ (1<<order - 1)
				want := blockFree(target, order)
				got := b.AllocBlockAt(target, order)
				if got != want {
					t.Logf("AllocBlockAt(%d, %d) = %v, ref says free=%v", target, order, got, want)
					return false
				}
				if got && !claim(target, order, true) {
					return false
				}
			case 4: // free one frame of a block claimed by address
				var byAddr []int
				for i, a := range live {
					if a.byAddr {
						byAddr = append(byAddr, i)
					}
				}
				if len(byAddr) == 0 {
					break
				}
				i := byAddr[rng.Intn(len(byAddr))]
				a := live[i]
				f := a.frame + rng.Uint64n(1<<a.order)
				b.Free(f, 0)
				ref[f] = false
				drop(i)
				// The rest of the block stays live frame by frame.
				for j := a.frame; j < a.frame+1<<a.order; j++ {
					if j != f {
						live = append(live, allocation{j, 0, true})
					}
				}
			}
			if !sameFreeBlocks(t, b, ref) {
				return false
			}
		}
		for i := uint64(0); i < frames; i++ {
			if b.FrameFree(i) == ref[i] {
				t.Logf("FrameFree(%d) = %v, ref allocated=%v", i, b.FrameFree(i), ref[i])
				return false
			}
		}
		return true
	}
}

// sameFreeBlocks reports whether b's free count, per-order counts of
// maximal free blocks and largest free order match those derived from the
// reference bitmap (ref[f] true = frame f allocated).
func sameFreeBlocks(t *testing.T, b *Buddy, ref []bool) bool {
	frames := uint64(len(ref))
	var free uint64
	for _, a := range ref {
		if !a {
			free++
		}
	}
	if b.FreeFrames() != free {
		t.Logf("free count mismatch: buddy=%d ref=%d", b.FreeFrames(), free)
		return false
	}
	// full[o][i]: the aligned block i of order o is entirely free.
	full := [][]bool{make([]bool, frames)}
	for i, a := range ref {
		full[0][i] = !a
	}
	for o := 1; len(full[o-1]) > 1; o++ {
		prev := full[o-1]
		level := make([]bool, len(prev)/2)
		for i := range level {
			level[i] = prev[2*i] && prev[2*i+1]
		}
		full = append(full, level)
	}
	largest, anyFree := uint(0), false
	for o := uint(0); o <= MaxOrder; o++ {
		var want uint64
		if int(o) < len(full) {
			for i, f := range full[o] {
				// Maximal: the parent block is not entirely free (or lies
				// past the end of memory).
				parentFree := int(o)+1 < len(full) && i/2 < len(full[o+1]) && full[o+1][i/2]
				if f && !parentFree {
					want++
					largest, anyFree = o, true
				}
			}
		}
		if got := b.FreeBlocksOfOrder(o); got != want {
			t.Logf("FreeBlocksOfOrder(%d) = %d, ref %d", o, got, want)
			return false
		}
	}
	if o, ok := b.LargestFreeOrder(); o != largest || ok != anyFree {
		t.Logf("LargestFreeOrder = (%d, %v), ref (%d, %v)", o, ok, largest, anyFree)
		return false
	}
	return true
}

func TestMemhogFragmentsSuperpages(t *testing.T) {
	b := NewBuddy(64 * addr.Size2M)
	hog := NewMemhog(b, simrand.New(7))
	hog.ScatterFrac = 0.3      // hostile setting: many chunks land randomly
	hog.ScatterClusterBias = 0 // uniformly, not clustered
	hog.Run(0.4)
	if hog.Held() != uint64(0.4*float64(b.TotalFrames())) {
		t.Fatalf("Held = %d", hog.Held())
	}
	// Chunky 40% fragmentation destroys many, but not all, 2MB blocks:
	// some direct 2MB allocations still succeed, far fewer than the 38
	// that free space alone would suggest.
	got := 0
	for {
		if _, ok := b.AllocPage(addr.Page2M); !ok {
			break
		}
		got++
	}
	if got == 0 {
		t.Error("no 2MB block survived chunky fragmentation (too destructive)")
	}
	if got >= 38 {
		t.Errorf("%d 2MB blocks survived; fragmentation had no effect", got)
	}
	// Small pages still allocate.
	if _, ok := b.AllocPage(addr.Page4K); !ok {
		t.Fatal("4KB allocation failed")
	}
	hog.Release()
	if hog.Held() != 0 {
		t.Fatal("Release left held frames")
	}
}

func TestMemhogOwnsAndCompact(t *testing.T) {
	b := NewBuddy(32 * addr.Size2M)
	hog := NewMemhog(b, simrand.New(5))
	hog.UnmovableFrac = 0 // everything migratable
	hog.ScatterFrac = 1   // maximal scattering: direct allocation fails
	hog.ScatterClusterBias = 0
	hog.CompactBudget = 1 << 20 // exhaustive scan for the test
	hog.MigrateFailProb = 0
	hog.Run(0.6)
	// Drain direct 2MB allocations.
	for {
		if _, ok := b.AllocPage(addr.Page2M); !ok {
			break
		}
	}
	// Compaction must still assemble 2MB blocks by migrating hog frames.
	frame, ok := hog.CompactFor(9)
	if !ok {
		t.Fatal("compaction failed with fully movable holdings")
	}
	if frame%512 != 0 {
		t.Errorf("compacted block at frame %d is misaligned", frame)
	}
	if hog.Migrated == 0 {
		t.Error("compaction migrated nothing")
	}
	// The block is allocated to the caller: its frames are not free and
	// not hog-owned.
	for f := frame; f < frame+512; f++ {
		if b.FrameFree(f) || hog.Owns(f) {
			t.Fatalf("frame %d in compacted block is free=%v owned=%v",
				f, b.FrameFree(f), hog.Owns(f))
		}
	}
	// Free-frame accounting stayed exact: held + compacted block +
	// drained blocks + free == total.
	if b.FreeFrames()+hog.Held() > b.TotalFrames() {
		t.Error("accounting overflow")
	}
}

func TestMemhogUnmovableDefeatsCompaction(t *testing.T) {
	b := NewBuddy(16 * addr.Size2M)
	hog := NewMemhog(b, simrand.New(13))
	hog.UnmovableFrac = 1 // everything pinned
	hog.MaxChunkOrder = 4 // small chunks scatter widely
	hog.Run(0.5)
	for {
		if _, ok := b.AllocPage(addr.Page2M); !ok {
			break
		}
	}
	if _, ok := hog.CompactFor(9); ok {
		t.Error("compaction succeeded despite fully pinned holdings")
	}
}

func TestMemhogShrink(t *testing.T) {
	b := NewBuddy(16 * addr.Size2M)
	hog := NewMemhog(b, simrand.New(9))
	hog.Run(0.5)
	half := hog.Held()
	hog.Run(0.25)
	if hog.Held() >= half {
		t.Fatalf("shrink did not release frames: %d -> %d", half, hog.Held())
	}
	want := uint64(0.25 * float64(b.TotalFrames()))
	if hog.Held() != want {
		t.Fatalf("Held = %d, want %d", hog.Held(), want)
	}
}

func TestMemhogBadFractionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewMemhog(NewBuddy(1<<20), simrand.New(0)).Run(1.5)
}

func TestMemhogFullMemory(t *testing.T) {
	b := NewBuddy(32 * addr.Size4K)
	hog := NewMemhog(b, simrand.New(3))
	hog.Run(1.0)
	if b.FreeFrames() != 0 {
		t.Fatalf("FreeFrames = %d after memhog(100%%)", b.FreeFrames())
	}
}
