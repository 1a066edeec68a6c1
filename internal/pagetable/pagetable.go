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

// table is one 4KB page-table page.
type table struct {
	base     addr.P // physical address of this table page
	entries  [entriesPerTable]entry
	children [entriesPerTable]*table
	live     int // populated entries (for reclamation)
}

// entry is a decoded PTE. A hardware implementation packs this into 8
// bytes; the simulator keeps it unpacked for clarity and stores the packed
// form only conceptually (EncodePTE/DecodePTE cover the packed format and
// are exercised by tests).
type entry struct {
	present bool
	leaf    bool // PS bit (or level-1 entry)
	pfn     uint64
	perm    addr.Perm
	acc     bool
	dirty   bool
}

// PageTable is a radix page table with descriptor-driven depth.
type PageTable struct {
	alloc FrameAllocator
	root  *table
	count [addr.NumPageSizes]uint64 // live translations per size

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
	pt := &PageTable{alloc: alloc, desc: d, depth: d.Depth(), contigPages: d.ContigPages}
	root, err := pt.newTable()
	if err != nil {
		return nil, err
	}
	pt.root = root
	return pt, nil
}

// Descriptor returns the translation architecture the table implements.
func (pt *PageTable) Descriptor() *isa.Descriptor { return pt.desc }

// Depth returns the radix depth (4 for x86-64, 5 for LA57, 3 for Sv39).
func (pt *PageTable) Depth() int { return pt.depth }

func (pt *PageTable) newTable() (*table, error) {
	base, ok := pt.alloc.AllocPage(addr.Page4K)
	if !ok {
		return nil, ErrNoMemory
	}
	return &table{base: base}, nil
}

// index extracts the radix index of va at a level.
func index(va addr.V, level int) int {
	return int((uint64(va) >> levelShift(level)) & (entriesPerTable - 1))
}

// Map installs a translation. VA and PA must be aligned to size. The
// covered range must be entirely unmapped.
func (pt *PageTable) Map(va addr.V, pa addr.P, size addr.PageSize, perm addr.Perm) error {
	if va.Offset(size) != 0 || pa.Offset(size) != 0 {
		return ErrMisaligned
	}
	target := leafLevel(size)
	t := pt.root
	for level := pt.depth; level > target; level-- {
		i := index(va, level)
		e := &t.entries[i]
		if e.present && e.leaf {
			return ErrOverlap // a larger page already covers this VA
		}
		if t.children[i] == nil {
			child, err := pt.newTable()
			if err != nil {
				return err
			}
			t.children[i] = child
			e.present = true
			e.pfn = child.base.PFN4K()
			t.live++
		}
		t = t.children[i]
	}
	i := index(va, target)
	e := &t.entries[i]
	if t.children[i] != nil {
		if t.children[i].live > 0 {
			return ErrOverlap // smaller pages still mapped below
		}
		// The child table emptied out (e.g. khugepaged unmapped all 512
		// base pages before collapsing to a superpage): reclaim it and
		// install the leaf in its place.
		pt.alloc.FreePage(t.children[i].base, addr.Page4K)
		t.children[i] = nil
		*e = entry{}
		t.live--
	}
	if e.present {
		return ErrOverlap
	}
	*e = entry{
		present: true,
		leaf:    true,
		pfn:     pa.PageNum(addr.Page4K),
		perm:    perm,
	}
	t.live++
	pt.count[size]++
	if pt.tel != nil {
		pt.tel.maps[size].Inc()
	}
	return nil
}

// Unmap removes the translation covering va and returns it.
func (pt *PageTable) Unmap(va addr.V) (Translation, error) {
	t := pt.root
	for level := pt.depth; level >= 1; level-- {
		i := index(va, level)
		e := &t.entries[i]
		if !e.present {
			return Translation{}, ErrNotMapped
		}
		if e.leaf || level == 1 {
			size := sizeAtLevel(level)
			tr := decode(e, va, level)
			*e = entry{}
			t.live--
			pt.count[size]--
			// Intermediate tables are retained (as real OSes usually do
			// between mappings); freeing them lazily keeps Unmap O(levels).
			if pt.tel != nil {
				pt.tel.unmaps.Inc()
			}
			return tr, nil
		}
		t = t.children[i]
	}
	return Translation{}, ErrNotMapped
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

func decode(e *entry, va addr.V, level int) Translation {
	size := sizeAtLevel(level)
	return Translation{
		VA:       va.PageBase(size),
		PA:       addr.P(e.pfn << addr.Shift4K),
		Size:     size,
		Perm:     e.perm,
		Accessed: e.acc,
		Dirty:    e.dirty,
	}
}

// Lookup performs a software lookup with no side effects or cost model.
func (pt *PageTable) Lookup(va addr.V) (Translation, bool) {
	t := pt.root
	for level := pt.depth; level >= 1; level-- {
		e := &t.entries[index(va, level)]
		if !e.present {
			return Translation{}, false
		}
		if e.leaf || level == 1 {
			return decode(e, va, level), true
		}
		t = t.children[index(va, level)]
	}
	return Translation{}, false
}

// Count returns the number of live translations of the given size.
func (pt *PageTable) Count(size addr.PageSize) uint64 { return pt.count[size] }

// RootBase returns the physical address of the root table (CR3).
func (pt *PageTable) RootBase() addr.P { return pt.root.base }

// SetAccessed marks the leaf covering va accessed (hardware walker
// behaviour on TLB fill). It reports whether a mapping was found.
func (pt *PageTable) SetAccessed(va addr.V) bool {
	e := pt.leafEntry(va)
	if e == nil {
		return false
	}
	e.acc = true
	return true
}

// SetDirty marks the leaf covering va dirty (hardware behaviour on the
// first store through a translation). It reports whether a mapping exists.
func (pt *PageTable) SetDirty(va addr.V) bool {
	e := pt.leafEntry(va)
	if e == nil {
		return false
	}
	e.acc = true
	e.dirty = true
	return true
}

// ClearAccessedDirty clears the A/D bits of the leaf covering va, the
// operation an OS page-reclaim scan performs.
func (pt *PageTable) ClearAccessedDirty(va addr.V) bool {
	e := pt.leafEntry(va)
	if e == nil {
		return false
	}
	e.acc, e.dirty = false, false
	return true
}

func (pt *PageTable) leafEntry(va addr.V) *entry {
	t := pt.root
	for level := pt.depth; level >= 1; level-- {
		e := &t.entries[index(va, level)]
		if !e.present {
			return nil
		}
		if e.leaf || level == 1 {
			return e
		}
		t = t.children[index(va, level)]
	}
	return nil
}

// LeafRef is an opaque handle to the leaf PTE a Walk resolved. It lets the
// MMU update the entry's A/D bits after a walk without re-traversing the
// radix from the root (the fused store path). A zero LeafRef is invalid;
// sources that synthesize WalkResults (nested walkers) leave it zero.
type LeafRef struct{ e *entry }

// Valid reports whether the handle refers to a leaf PTE.
func (l LeafRef) Valid() bool { return l.e != nil }

// SetDirty sets the accessed and dirty bits of the referenced leaf,
// equivalent to PageTable.SetDirty on the walked VA.
func (l LeafRef) SetDirty() { l.e.acc, l.e.dirty = true, true }

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
	t := pt.root
	for level := pt.depth; level >= 1; level-- {
		i := index(va, level)
		res.Accesses = append(res.Accesses, t.base+addr.P(i*8))
		e := &t.entries[i]
		if !e.present {
			return
		}
		if e.leaf || level == 1 {
			e.acc = true
			res.Found = true
			res.Translation = decode(e, va, level)
			res.Leaf = LeafRef{e}
			// A block wider than the cache line replaces the line, so
			// check it first and skip the line decode. A kept line is
			// decoded before contigBlock sets its members' A bits.
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
			return
		}
		t = t.children[i]
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
	base := &t.entries[start]
	if !base.present || base.pfn&uint64(pt.contigPages-1) != 0 {
		return false
	}
	for j := 0; j < pt.contigPages; j++ {
		e := &t.entries[start+j]
		if !e.present || !e.leaf || e.perm != base.perm || e.pfn != base.pfn+uint64(j) {
			return false
		}
	}
	for j := 0; j < pt.contigPages; j++ {
		t.entries[start+j].acc = true
	}
	return true
}

// appendBlockTranslations decodes the 4KB leaves of an aligned block
// starting at index start of leaf table t, appending into a caller-owned
// slice. All entries are known present (contigBlock verified them).
func appendBlockTranslations(out []Translation, t *table, start, n int, va addr.V) []Translation {
	const shift = addr.Shift4K
	for j := start; j < start+n; j++ {
		nva := addr.V(uint64(va)&^(uint64(entriesPerTable-1)<<shift) | uint64(j)<<shift)
		out = append(out, decode(&t.entries[j], nva.PageBase(addr.Page4K), 1))
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
	t := pt.root
	for level := pt.depth; level >= 1; level-- {
		i := index(va, level)
		e := &t.entries[i]
		if !e.present {
			return nil
		}
		if e.leaf || level == 1 {
			e.acc = true
			e.dirty = true
			if pt.tel != nil {
				pt.tel.dirtyLines.Inc()
			}
			return appendLineTranslations(buf[:0], t, i, va, level)
		}
		t = t.children[i]
	}
	return nil
}

// appendLineTranslations decodes the present, same-level leaves in the
// 8-entry cache line containing index i of table t, appending into a
// caller-owned slice.
func appendLineTranslations(out []Translation, t *table, i int, va addr.V, level int) []Translation {
	size := sizeAtLevel(level)
	lineStart := i &^ (addr.PTEsPerCacheLine - 1)
	for j := lineStart; j < lineStart+addr.PTEsPerCacheLine; j++ {
		e := &t.entries[j]
		if !e.present || (!e.leaf && level != 1) {
			continue
		}
		// Reconstruct the neighbour's VA by replacing the index bits.
		shift := levelShift(level)
		nva := addr.V(uint64(va)&^(uint64(entriesPerTable-1)<<shift) | uint64(j)<<shift)
		out = append(out, decode(e, nva.PageBase(size), level))
	}
	return out
}

// ForEach visits every live translation in ascending VA order. The visit
// function returns false to stop early. This in-order scan is what the
// contiguity characterization (Sec 7.1, Figures 11-13) runs over.
func (pt *PageTable) ForEach(visit func(Translation) bool) {
	pt.forEach(pt.root, pt.depth, 0, visit)
}

func (pt *PageTable) forEach(t *table, level int, vaBase uint64, visit func(Translation) bool) bool {
	for i := 0; i < entriesPerTable; i++ {
		e := &t.entries[i]
		va := vaBase | uint64(i)<<levelShift(level)
		if e.present && (e.leaf || level == 1) {
			if !visit(decode(e, addr.V(va), level)) {
				return false
			}
		} else if t.children[i] != nil {
			if !pt.forEach(t.children[i], level-1, va, visit) {
				return false
			}
		}
	}
	return true
}
