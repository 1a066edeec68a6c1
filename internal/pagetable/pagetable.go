// Package pagetable implements a radix page table and the hardware
// page-table walker semantics the simulator's MMUs use. The radix depth
// and virtual-address width come from an isa.Descriptor: the default is
// x86-64 4-level paging, with 5-level LA57, RISC-V Sv39/Sv48 (including
// SVNAPOT contiguity), and ARM64 contiguous-hint geometries available via
// NewISA.
//
// Three leaf levels are supported on every descriptor, matching the shared
// ladder: 4KB pages at level 1, 2MB pages at level 2 (PS bit in the page
// directory), and 1GB pages at level 3 (PS bit in the PDPT). Page-table
// pages themselves are backed by physical frames from a FrameAllocator, so
// walker memory references carry realistic physical cache-line addresses.
//
// The walker exposes the detail the MIX TLB design hinges on (Sec 3): page
// tables are read in 64-byte cache-line units, so every miss hands the fill
// logic the 8 translations adjacent to the requested one for free. On
// descriptors with a hardware contiguity encoding (SVNAPOT, the ARM64
// contiguous hint), a walk that lands in a fully populated, aligned,
// physically contiguous block additionally reports the whole block — the
// information a single NAPOT/contiguous-bit PTE carries architecturally.
package pagetable

import (
	"errors"
	"fmt"

	"mixtlb/internal/addr"
	"mixtlb/internal/isa"
)

// Number of entries per table and radix geometry.
const (
	entriesPerTable = 512
	indexBits       = 9
	// Levels is the number of radix levels of the default x86-64
	// descriptor (PML4, PDPT, PD, PT). Descriptor-aware code should use
	// PageTable.Depth instead.
	Levels = 4
)

// Errors returned by mapping operations.
var (
	// ErrMisaligned indicates a VA or PA not aligned to the page size.
	ErrMisaligned = errors.New("pagetable: address not aligned to page size")
	// ErrOverlap indicates the range is already mapped (possibly at a
	// different page size).
	ErrOverlap = errors.New("pagetable: range already mapped")
	// ErrNoMemory indicates the frame allocator could not back a new
	// page-table page.
	ErrNoMemory = errors.New("pagetable: out of memory for page-table pages")
	// ErrNotMapped indicates an unmap or update of an absent translation.
	ErrNotMapped = errors.New("pagetable: virtual address not mapped")
	// ErrUnencodable indicates a PA at or above 2^52 or a permission set
	// beyond addr's four flags, which a packed PTE cannot hold.
	ErrUnencodable = errors.New("pagetable: address or permission does not fit a PTE")
)

// FrameAllocator supplies physical frames for page-table pages.
// physmem.Buddy satisfies it.
type FrameAllocator interface {
	AllocPage(s addr.PageSize) (addr.P, bool)
	FreePage(pa addr.P, s addr.PageSize)
}

// Translation is one leaf page-table entry in decoded form. It is the
// currency every TLB design in this repository caches.
type Translation struct {
	VA       addr.V // page-aligned virtual base
	PA       addr.P // page-aligned physical base
	Size     addr.PageSize
	Perm     addr.Perm
	Accessed bool
	Dirty    bool
}

// Valid reports whether t describes a real mapping.
func (t Translation) Valid() bool { return t.Size.Valid() && (t.Perm&addr.PermRead) != 0 }

// Translate applies the mapping to a virtual address inside the page.
func (t Translation) Translate(va addr.V) addr.P {
	return t.PA + addr.P(va.Offset(t.Size))
}

// String formats a translation for diagnostics.
func (t Translation) String() string {
	return fmt.Sprintf("%v->%v %v %v a=%v d=%v", t.VA, t.PA, t.Size, t.Perm, t.Accessed, t.Dirty)
}

// table is one 4KB page-table page: 512 packed 8-byte PTEs (pte.go). A
// level-1 table is nothing more, so it is exactly one 4KB host page and
// each 8-PTE line the walker decodes is one aligned 64-byte host line.
type table [entriesPerTable]uint64

// dir is a table page above level 1: its PTEs plus pointers to the child
// pages its non-leaf PTEs name — leaf tables below level 2, dirs below
// higher levels, so one of the two arrays stays empty (dirs are few). A
// child's physical base is the frame number in its parent's PTE, where
// the hardware walker finds it too.
type dir struct {
	pte    table
	dirs   [entriesPerTable]*dir
	leaves [entriesPerTable]*table
}

// PageTable is a radix page table with descriptor-driven depth.
type PageTable struct {
	alloc    FrameAllocator
	root     *dir
	rootBase addr.P
	count    [addr.NumPageSizes]uint64 // live translations per size

	// desc is the translation architecture; depth and contigPages are
	// copies of its hot fields so walk loops touch plain ints.
	desc        *isa.Descriptor
	depth       int
	contigPages int

	// tel is the telemetry hook block, nil unless AttachTelemetry enabled
	// it; every use is a single nil-check branch.
	tel *ptTel
}

// levelShift returns the VA shift of the index for a level (4..1).
func levelShift(level int) uint { return addr.Shift4K + uint(indexBits*(level-1)) }

// leafLevel returns the radix level at which pages of size s terminate.
func leafLevel(s addr.PageSize) int {
	switch s {
	case addr.Page4K:
		return 1
	case addr.Page2M:
		return 2
	case addr.Page1G:
		return 3
	}
	panic("pagetable: invalid page size")
}

// NewISA creates an empty page table for the given translation
// architecture (isa.Default() for x86-64). The simulator's table pages
// are fixed 4KB/512-entry frames, so every radix level of the descriptor
// must be 9 bits wide and base pages must be 4KB (true of all shipped
// descriptors).
func NewISA(alloc FrameAllocator, d *isa.Descriptor) (*PageTable, error) {
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("pagetable: %w", err)
	}
	if d.PageShift != addr.Shift4K {
		return nil, fmt.Errorf("pagetable: descriptor %s: base page shift %d unsupported (want %d)", d.Name, d.PageShift, addr.Shift4K)
	}
	for lvl := 1; lvl <= d.Depth(); lvl++ {
		if d.IndexBits(lvl) != indexBits {
			return nil, fmt.Errorf("pagetable: descriptor %s: level %d index width %d unsupported (want %d)", d.Name, lvl, d.IndexBits(lvl), indexBits)
		}
	}
	base, ok := alloc.AllocPage(addr.Page4K)
	if !ok {
		return nil, ErrNoMemory
	}
	return &PageTable{alloc: alloc, root: new(dir), rootBase: base, desc: d, depth: d.Depth(), contigPages: d.ContigPages}, nil
}

// Descriptor returns the translation architecture the table implements.
func (pt *PageTable) Descriptor() *isa.Descriptor { return pt.desc }

// Depth returns the radix depth (4 for x86-64, 5 for LA57, 3 for Sv39).
func (pt *PageTable) Depth() int { return pt.depth }

// index extracts the radix index of va at a level.
func index(va addr.V, level int) int {
	return int((uint64(va) >> levelShift(level)) & (entriesPerTable - 1))
}

// Map installs a translation. VA and PA must be aligned to size, the PA
// below 2^52 and perm within addr's four flags (the PTE's frame and
// permission fields). The covered range must be entirely unmapped.
func (pt *PageTable) Map(va addr.V, pa addr.P, size addr.PageSize, perm addr.Perm) error {
	if va.Offset(size) != 0 || pa.Offset(size) != 0 {
		return ErrMisaligned
	}
	if uint64(pa)&^pteFrameMask != 0 || perm&^pteAllPerm != 0 {
		return ErrUnencodable
	}
	target := leafLevel(size)
	d := pt.root
	for level := pt.depth; level > target; level-- {
		i := index(va, level)
		if d.pte[i]&ptePS != 0 {
			return ErrOverlap // a larger page already covers this VA
		}
		if d.pte[i]&pteP == 0 {
			base, ok := pt.alloc.AllocPage(addr.Page4K)
			if !ok {
				return ErrNoMemory
			}
			if level == 2 {
				d.leaves[i] = new(table)
			} else {
				d.dirs[i] = new(dir)
			}
			d.pte[i] = pteP | uint64(base)
		}
		if level == 2 {
			return pt.install(d.leaves[i], index(va, 1), pa, size, perm)
		}
		d = d.dirs[i]
	}
	i := index(va, target)
	if raw := d.pte[i]; raw&pteP != 0 && raw&ptePS == 0 {
		if !d.childEmpty(i, target) {
			return ErrOverlap // smaller pages still mapped below
		}
		// The child table emptied out (e.g. khugepaged unmapped all 512
		// base pages before collapsing to a superpage): reclaim it and
		// install the leaf in its place.
		pt.alloc.FreePage(pteFrame(raw), addr.Page4K)
		d.pte[i], d.dirs[i], d.leaves[i] = 0, nil, nil
	}
	return pt.install(&d.pte, i, pa, size, perm)
}

// install writes a leaf PTE into entry i of t unless it is taken.
func (pt *PageTable) install(t *table, i int, pa addr.P, size addr.PageSize, perm addr.Perm) error {
	if t[i]&pteP != 0 {
		return ErrOverlap
	}
	t[i] = leafPTE(pa, perm, size)
	pt.count[size]++
	if pt.tel != nil {
		pt.tel.maps[size].Inc()
	}
	return nil
}

// childEmpty reports whether the child page under entry i of d, a dir at
// level, holds no present entry.
func (d *dir) childEmpty(i, level int) bool {
	c := d.leaves[i]
	if level > 2 {
		c = &d.dirs[i].pte
	}
	for _, raw := range c {
		if raw&pteP != 0 {
			return false
		}
	}
	return true
}

// leaf descends from the root to the present leaf PTE mapping va and
// returns the table page holding it, its index and its level; t is nil
// when va is unmapped. A non-nil res records the physical address of each
// PTE read, root first, in res.Accesses.
func (pt *PageTable) leaf(va addr.V, res *WalkResult) (t *table, i, level int) {
	d, base := pt.root, pt.rootBase
	for level = pt.depth; ; level-- {
		i = index(va, level)
		if res != nil {
			res.Accesses = append(res.Accesses, base+addr.P(i*8))
		}
		raw := d.pte[i]
		if raw&pteP == 0 {
			return nil, 0, 0
		}
		if raw&ptePS != 0 {
			return &d.pte, i, level
		}
		base = pteFrame(raw)
		if level == 2 {
			t = d.leaves[i]
			break
		}
		d = d.dirs[i]
	}
	i = index(va, 1)
	if res != nil {
		res.Accesses = append(res.Accesses, base+addr.P(i*8))
	}
	if t[i]&pteP == 0 {
		return nil, 0, 0
	}
	return t, i, 1
}

// Unmap removes the translation covering va and returns it.
// Intermediate tables are retained (as real OSes usually do between
// mappings); freeing them lazily keeps Unmap O(levels).
func (pt *PageTable) Unmap(va addr.V) (Translation, error) {
	t, i, level := pt.leaf(va, nil)
	if t == nil {
		return Translation{}, ErrNotMapped
	}
	size := sizeAtLevel(level)
	tr := decode(t[i], va.PageBase(size), size)
	t[i] = 0
	pt.count[size]--
	if pt.tel != nil {
		pt.tel.unmaps.Inc()
	}
	return tr, nil
}

func sizeAtLevel(level int) addr.PageSize {
	switch level {
	case 1:
		return addr.Page4K
	case 2:
		return addr.Page2M
	case 3:
		return addr.Page1G
	}
	panic("pagetable: no page size at level")
}

// Lookup performs a software lookup with no side effects or cost model.
func (pt *PageTable) Lookup(va addr.V) (Translation, bool) {
	t, i, level := pt.leaf(va, nil)
	if t == nil {
		return Translation{}, false
	}
	size := sizeAtLevel(level)
	return decode(t[i], va.PageBase(size), size), true
}

// Count returns the number of live translations of the given size.
func (pt *PageTable) Count(size addr.PageSize) uint64 { return pt.count[size] }

// RootBase returns the physical address of the root table (CR3).
func (pt *PageTable) RootBase() addr.P { return pt.rootBase }

// SetAccessed marks the leaf covering va accessed (hardware walker
// behaviour on TLB fill). It reports whether a mapping was found.
func (pt *PageTable) SetAccessed(va addr.V) bool { return pt.update(va, pteA, 0) }

// SetDirty marks the leaf covering va dirty (hardware behaviour on the
// first store through a translation). It reports whether a mapping exists.
func (pt *PageTable) SetDirty(va addr.V) bool { return pt.update(va, pteA|pteD, 0) }

// ClearAccessedDirty clears the A/D bits of the leaf covering va, the
// operation an OS page-reclaim scan performs.
func (pt *PageTable) ClearAccessedDirty(va addr.V) bool { return pt.update(va, 0, pteA|pteD) }

// update sets then clears bits of the leaf PTE covering va and reports
// whether a mapping exists.
func (pt *PageTable) update(va addr.V, set, clear uint64) bool {
	t, i, _ := pt.leaf(va, nil)
	if t == nil {
		return false
	}
	t[i] = t[i]&^clear | set
	return true
}

// ClearDirty clears the D bit of every PTE in one sweep of the table
// pages. Set-up never sets one, so this returns a table to its
// post-set-up state after a run's stores.
func (pt *PageTable) ClearDirty() { pt.root.clearDirty() }

func (d *dir) clearDirty() {
	for i := range d.pte {
		d.pte[i] &^= pteD
		if t := d.leaves[i]; t != nil {
			for j := range t {
				t[j] &^= pteD
			}
		} else if d.dirs[i] != nil {
			d.dirs[i].clearDirty()
		}
	}
}

// LeafRef is an opaque handle to the leaf PTE a Walk resolved. It lets the
// MMU update the entry's A/D bits after a walk without re-traversing the
// radix from the root (the fused store path). A zero LeafRef is invalid;
// sources that synthesize WalkResults (nested walkers) leave it zero.
type LeafRef struct{ e *uint64 }

// Valid reports whether the handle refers to a leaf PTE.
func (l LeafRef) Valid() bool { return l.e != nil }

// SetDirty sets the accessed and dirty bits of the referenced leaf,
// equivalent to PageTable.SetDirty on the walked VA.
func (l LeafRef) SetDirty() { *l.e |= pteA | pteD }

// WalkResult is the outcome of a hardware page-table walk.
type WalkResult struct {
	// Found is false when the VA is unmapped (page fault).
	Found bool
	// Translation is the decoded leaf, valid when Found.
	Translation Translation
	// Accesses lists the physical addresses of each PTE the walker read,
	// in order (root first). Native walks touch Levels entries at most;
	// these flow through the cache hierarchy for cost accounting.
	Accesses []addr.P
	// Line holds the decoded, present translations sharing the final
	// PTE's 64-byte cache line (up to 8, including the result itself) in
	// ascending VA order. This is the window coalescing logic scans
	// "for free" on a miss (Sec 3, step 2). Empty when !Found.
	Line []Translation
	// Leaf is a handle to the resolved leaf PTE, set only by native
	// PageTable walks, valid when Found. It lets the dirty-bit assist
	// update the entry without a second root-to-leaf traversal.
	Leaf LeafRef
	// ContigPages is nonzero when the descriptor has a hardware
	// contiguity encoding (SVNAPOT, ARM64 contiguous hint) and the
	// resolved 4KB leaf sits in a fully populated, naturally aligned,
	// physically contiguous block of that many base pages — the condition
	// under which an OS would have set the N/contiguous bit. When set,
	// Line covers the whole block (its members are what the single
	// encoded PTE describes), not just the leaf's cache line. Always zero
	// on descriptors without an encoding, including the default x86-64.
	ContigPages int
}

// Walk performs a hardware page-table walk for va: traverses the radix
// levels, records each PTE access's physical address, sets the accessed
// bit on the leaf (x86 semantics: a translation is only filled into a TLB
// with its accessed bit set, Sec 4.4), and decodes the final cache line.
func (pt *PageTable) Walk(va addr.V) WalkResult {
	var res WalkResult
	pt.WalkInto(va, &res)
	return res
}

// WalkInto is Walk writing into a caller-owned result, reusing the
// capacity of res.Accesses and res.Line across calls. The MMU's inner
// loop uses it to keep steady-state walks allocation-free.
func (pt *PageTable) WalkInto(va addr.V, res *WalkResult) {
	res.Found = false
	res.Translation = Translation{}
	res.Accesses = res.Accesses[:0]
	res.Line = res.Line[:0]
	res.Leaf = LeafRef{}
	res.ContigPages = 0
	t, i, level := pt.leaf(va, res)
	if t == nil {
		return
	}
	t[i] |= pteA
	res.Found = true
	size := sizeAtLevel(level)
	res.Translation = decode(t[i], va.PageBase(size), size)
	res.Leaf = LeafRef{&t[i]}
	// A block wider than the cache line replaces the line, so check it
	// first and skip the line decode. A kept line is decoded before
	// contigBlock sets its members' A bits.
	wide := pt.contigPages > addr.PTEsPerCacheLine
	if wide && level == 1 && pt.contigBlock(t, i) {
		res.ContigPages = pt.contigPages
		res.Line = appendBlockTranslations(res.Line, t, i&^(pt.contigPages-1), pt.contigPages, va)
		return
	}
	res.Line = appendLineTranslations(res.Line, t, i, va, level)
	if !wide && pt.contigPages > 1 && level == 1 && pt.contigBlock(t, i) {
		res.ContigPages = pt.contigPages
	}
}

// contigBlock reports whether the aligned contigPages-entry block of leaf
// table t containing index i satisfies the architectural conditions for
// the descriptor's contiguity encoding: every entry present with the same
// permissions, the block physically contiguous, and the physical base
// naturally aligned (NAPOT's alignment rule; ARM64 requires the same of
// contiguous-hint output ranges). When it does, the walker also sets the
// accessed bit on every member — architecturally the block shares one
// encoded PTE, so its A bit covers the whole range.
func (pt *PageTable) contigBlock(t *table, i int) bool {
	start := i &^ (pt.contigPages - 1)
	base := t[start] &^ (pteA | pteD)
	if base&pteP == 0 || pteFrame(base).PFN4K()&uint64(pt.contigPages-1) != 0 {
		return false
	}
	// Member j must equal the base entry but for its A/D bits and a frame
	// j higher; the aligned base frame cannot carry into the Perm bits.
	for j := 0; j < pt.contigPages; j++ {
		if t[start+j]&^(pteA|pteD) != base+uint64(j)<<addr.Shift4K {
			return false
		}
	}
	for j := start; j < start+pt.contigPages; j++ {
		t[j] |= pteA
	}
	return true
}

// appendBlockTranslations decodes the 4KB leaves of an aligned block
// starting at index start of leaf table t, appending into a caller-owned
// slice. All entries are known present (contigBlock verified them).
func appendBlockTranslations(out []Translation, t *table, start, n int, va addr.V) []Translation {
	const shift = addr.Shift4K
	base := uint64(va) &^ (entriesPerTable<<shift - 1) // VA mapped by entry 0
	for j := start; j < start+n; j++ {
		out = append(out, decode(t[j], addr.V(base|uint64(j)<<shift), addr.Page4K))
	}
	return out
}

// SetDirtyLine sets the A/D bits of the leaf covering va and returns the
// decoded translations sharing its cache line — the fused equivalent of
// SetDirty followed by Walk(va).Line, in a single traversal and with no
// walker-access recording. The line is appended into buf[:0] so a caller
// looping over dirty transitions can reuse one buffer. It returns nil
// when va is unmapped.
func (pt *PageTable) SetDirtyLine(va addr.V, buf []Translation) []Translation {
	t, i, level := pt.leaf(va, nil)
	if t == nil {
		return nil
	}
	t[i] |= pteA | pteD
	if pt.tel != nil {
		pt.tel.dirtyLines.Inc()
	}
	return appendLineTranslations(buf[:0], t, i, va, level)
}

// appendLineTranslations decodes the present, same-level leaves in the
// 8-entry cache line containing index i of table t, appending into a
// caller-owned slice.
func appendLineTranslations(out []Translation, t *table, i int, va addr.V, level int) []Translation {
	size := sizeAtLevel(level)
	shift := levelShift(level)
	base := uint64(va) &^ (entriesPerTable<<shift - 1) // VA mapped by entry 0
	leaf := uint64(pteP)
	if level > 1 {
		leaf |= ptePS
	}
	lineStart := i &^ (addr.PTEsPerCacheLine - 1)
	for j := lineStart; j < lineStart+addr.PTEsPerCacheLine; j++ {
		if raw := t[j]; raw&leaf == leaf {
			out = append(out, decode(raw, addr.V(base|uint64(j)<<shift), size))
		}
	}
	return out
}

// ForEach visits every live translation in ascending VA order. The visit
// function returns false to stop early. This in-order scan is what the
// contiguity characterization (Sec 7.1, Figures 11-13) runs over.
func (pt *PageTable) ForEach(visit func(Translation) bool) {
	pt.forEach(pt.root, pt.depth, 0, visit)
}

func (pt *PageTable) forEach(d *dir, level int, vaBase uint64, visit func(Translation) bool) bool {
	for i, raw := range &d.pte {
		va := vaBase | uint64(i)<<levelShift(level)
		switch {
		case raw&pteP == 0:
		case raw&ptePS != 0:
			if !visit(decode(raw, addr.V(va), sizeAtLevel(level))) {
				return false
			}
		case level == 2:
			for j, raw := range d.leaves[i] {
				if raw&pteP != 0 && !visit(decode(raw, addr.V(va|uint64(j)<<addr.Shift4K), addr.Page4K)) {
					return false
				}
			}
		default:
			if !pt.forEach(d.dirs[i], level-1, va, visit) {
				return false
			}
		}
	}
	return true
}
