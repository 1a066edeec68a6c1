package tlb

import (
	"math/bits"

	"mixtlb/internal/addr"
	"mixtlb/internal/lru"
	"mixtlb/internal/pagetable"
)

// Colt is a coalesced TLB in the style of CoLT (Pham et al., MICRO'12,
// Sec 5.2): a set-associative TLB for a single page size whose entries can
// each hold a run of up to `window` pages that are contiguous in both
// virtual and physical address space and aligned to the window. Coalescing
// candidates come from the PTE cache line the walker fetched, exactly as
// in MIX TLBs.
//
// The paper's COLT comparison coalesces up to 4 contiguous small pages
// (Sec 7.2); COLT++ applies the same machinery to each component of a
// split TLB, including the superpage components.
type Colt struct {
	name   string
	size   addr.PageSize
	sets   int
	ways   int
	window int
	// Precomputed masks and shifts keep the probe loop free of per-call
	// size dispatch and integer division.
	shift      uint   // size.Shift()
	groupShift uint   // shift + log2(window)
	winMask    uint64 // window-1
	setsMask   uint64 // sets-1
	// groups is tagged by window group; data holds each way's run.
	groups  lru.Array
	data    []coltData
	members []pagetable.Translation // scratch reused by Members
}

// coltData is one way's coalesced run: which members of its window are
// present, and what they share.
type coltData struct {
	bitmap uint32 // members present; bit i = page group*window + i
	basePA addr.P // PA of the window's first page position
	perm   addr.Perm
	dirty  bool
}

// NewColt builds a coalescing TLB for pages of size s. window is the
// maximum pages per entry (a power of two, at most 32, and at most the
// walker's 8-PTE line for single-fill coalescing to be exercised fully).
func NewColt(name string, s addr.PageSize, sets, ways, window int) (*Colt, error) {
	if sets <= 0 || !addr.IsPow2(uint64(sets)) || ways <= 0 || ways > MaxLookupWays {
		return nil, cfgErr(name, "bad geometry %dx%d", sets, ways)
	}
	if window <= 0 || window > 32 || !addr.IsPow2(uint64(window)) {
		return nil, cfgErr(name, "bad coalescing window %d", window)
	}
	t := &Colt{
		name: name, size: s, sets: sets, ways: ways, window: window,
		shift:      s.Shift(),
		groupShift: s.Shift() + addr.Log2(uint64(window)),
		winMask:    uint64(window - 1),
		setsMask:   uint64(sets - 1),
		groups:     lru.New(sets, ways),
		data:       make([]coltData, sets*ways),
		members:    make([]pagetable.Translation, 0, window),
	}
	return t, nil
}

// Name implements TLB.
func (t *Colt) Name() string { return t.name }

// Entries implements TLB.
func (t *Colt) Entries() int { return t.sets * t.ways }

// PageSize returns the page size this TLB caches.
func (t *Colt) PageSize() addr.PageSize { return t.size }

// group maps a VA to its coalescing-window number; the set index uses the
// group so every member of a window lands in (and hits in) one set.
func (t *Colt) group(va addr.V) uint64 { return uint64(va) >> t.groupShift }

// slot maps a VA to its member position within its window.
func (t *Colt) slot(va addr.V) int { return int((uint64(va) >> t.shift) & t.winMask) }

// find returns the first way holding va's page, with va's window group
// and slot, or -1. A set may hold two runs of one window (differing in
// base or permissions), so a group match whose run lacks the slot goes
// on to the next copy.
func (t *Colt) find(va addr.V) (int, uint64, int) {
	g, slot := t.group(va), t.slot(va)
	for i := t.groups.Find(int(g&t.setsMask), g); i >= 0; i = t.groups.FindNext(i, g) {
		if t.data[i].bitmap&(1<<slot) != 0 {
			return i, g, slot
		}
	}
	return -1, g, slot
}

// LookupReplayConsistent implements ReplayConsistent.
func (t *Colt) LookupReplayConsistent() bool { return true }

// member translation for slot i of run e in window group g.
func (t *Colt) member(e *coltData, g uint64, i int) pagetable.Translation {
	vpn := g*uint64(t.window) + uint64(i)
	return pagetable.Translation{
		VA:       addr.V(vpn << t.shift),
		PA:       e.basePA + addr.P(uint64(i)<<t.shift),
		Size:     t.size,
		Perm:     e.perm,
		Accessed: true,
		Dirty:    e.dirty,
	}
}

// Lookup implements TLB.
func (t *Colt) Lookup(req Request) Result {
	res := Result{Cost: LookupCost{Probes: 1, WaysRead: uint32(t.ways)}}
	if i, g, slot := t.find(req.VA); i >= 0 {
		t.groups.Touch(i)
		res.Hit = true
		res.T = t.member(&t.data[i], g, slot)
		res.Dirty = t.data[i].dirty
	}
	return res
}

// Fill implements TLB: scan the walked PTE line for window members that
// are virtually and physically contiguous with the demanded translation,
// share its permissions, and have their accessed bit set; coalesce them
// into one entry, merging with an existing entry for the window if
// compatible.
func (t *Colt) Fill(req Request, walk pagetable.WalkResult) Cost {
	if !walk.Found || walk.Translation.Size != t.size {
		return Cost{}
	}
	tr := walk.Translation
	g := t.group(tr.VA)
	slot := t.slot(tr.VA)
	// The window base PA implied by the demanded translation.
	basePA := tr.PA - addr.P(uint64(slot)<<t.shift)
	bitmap := uint32(1) << slot
	dirtyAll := tr.Dirty
	for _, n := range walk.Line {
		if n.Size != t.size || n.VA == tr.VA || !n.Accessed || n.Perm != tr.Perm {
			continue
		}
		if t.group(n.VA) != g {
			continue // outside the aligned window
		}
		i := t.slot(n.VA)
		if n.PA != basePA+addr.P(uint64(i)<<t.shift) {
			continue // not physically contiguous with the run
		}
		bitmap |= 1 << i
		dirtyAll = dirtyAll && n.Dirty
	}
	set := int(g & t.setsMask)
	// Merge with an existing compatible entry for the same window.
	for i := t.groups.Find(set, g); i >= 0; i = t.groups.FindNext(i, g) {
		e := &t.data[i]
		if e.basePA == basePA && e.perm == tr.Perm {
			e.bitmap |= bitmap
			e.dirty = e.dirty && dirtyAll
			t.groups.Touch(i)
			return Cost{SetsFilled: 1, EntriesWritten: 1}
		}
	}
	v := t.groups.Victim(set)
	t.groups.Put(v, g)
	t.data[v] = coltData{bitmap: bitmap, basePA: basePA, perm: tr.Perm, dirty: dirtyAll}
	return Cost{SetsFilled: 1, EntriesWritten: 1}
}

// MarkDirty implements TLB: the entry-level dirty bit may only be set when
// the bundle has a single member (the conservative policy of Sec 4.4 —
// multi-member bundles keep dirty=false so every member's first store
// reaches the page table).
func (t *Colt) MarkDirty(va addr.V) bool {
	i, _, _ := t.find(va)
	if i < 0 || bits.OnesCount32(t.data[i].bitmap) != 1 {
		return false
	}
	t.data[i].dirty = true
	return true
}

// Members implements BundleProvider: expand the entry covering va into
// its member translations.
func (t *Colt) Members(va addr.V) []pagetable.Translation {
	i, g, _ := t.find(va)
	if i < 0 {
		return nil
	}
	// Reuse the scratch slice: callers consume the members before the
	// next Lookup/Fill on this TLB, so one buffer suffices.
	e := &t.data[i]
	out := t.members[:0]
	for s := 0; s < t.window; s++ {
		if e.bitmap&(1<<s) != 0 {
			out = append(out, t.member(e, g, s))
		}
	}
	t.members = out[:0]
	return out
}

// RefreshDirty implements DirtyRefresher: COLT windows fit inside one PTE
// cache line, so the dirty micro-op's assist sees every member's D bit;
// when all present members are dirty the entry's bit is set and further
// stores skip the micro-op.
func (t *Colt) RefreshDirty(va addr.V, line []pagetable.Translation) bool {
	i, g, _ := t.find(va)
	if i < 0 {
		return false
	}
	e := &t.data[i]
	base := g * uint64(t.window)
	for s := 0; s < t.window; s++ {
		if e.bitmap&(1<<s) == 0 {
			continue
		}
		// Scan the line for this member's PTE directly (the line is at
		// most 8 entries; no map needed on this hot path).
		want := base + uint64(s)
		dirty, found := false, false
		for _, n := range line {
			if n.Size == t.size && uint64(n.VA)>>t.shift == want {
				dirty, found = n.Dirty, true
				break
			}
		}
		if !found || !dirty {
			return false
		}
	}
	e.dirty = true
	return true
}

// Invalidate implements TLB: clear the member's bit, dropping the entry
// when it empties — neighbouring members stay cached.
func (t *Colt) Invalidate(va addr.V, size addr.PageSize) int {
	if size != t.size {
		return 0
	}
	g, slot := t.group(va), t.slot(va)
	n := 0
	for i := t.groups.Find(int(g&t.setsMask), g); i >= 0; i = t.groups.FindNext(i, g) {
		if e := &t.data[i]; e.bitmap&(1<<slot) != 0 {
			e.bitmap &^= 1 << slot
			if e.bitmap == 0 {
				t.groups.Clear(i)
			}
			n++
		}
	}
	return n
}

// Flush implements TLB.
func (t *Colt) Flush() { t.groups.Flush() }

// NewColtSplitL1 builds the COLT baseline of Fig 18: the Haswell L1
// geometry with the 4KB component coalescing up to 4 small pages.
func NewColtSplitL1() (*Split, error) {
	small, e1 := NewColt("L1-4K-colt", addr.Page4K, 16, 4, 4)
	mid, e2 := NewSetAssoc("L1-2M", addr.Page2M, 8, 4)
	big, e3 := NewSetAssoc("L1-1G", addr.Page1G, 1, 4)
	return newSplitParts("colt-L1", []TLB{small, mid, big}, e1, e2, e3)
}

// NewColtPlusPlusL1 builds COLT++ (Fig 18): every split component
// coalesces runs of its own page size.
func NewColtPlusPlusL1() (*Split, error) {
	small, e1 := NewColt("L1-4K-colt", addr.Page4K, 16, 4, 4)
	mid, e2 := NewColt("L1-2M-colt", addr.Page2M, 8, 4, 4)
	big, e3 := NewColt("L1-1G-colt", addr.Page1G, 1, 4, 4)
	return newSplitParts("colt++-L1", []TLB{small, mid, big}, e1, e2, e3)
}
