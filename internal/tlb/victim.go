package tlb

import (
	"mixtlb/internal/addr"
	"mixtlb/internal/lru"
	"mixtlb/internal/pagetable"
)

// Victim is a software-managed victim translation level resident in the
// data-cache hierarchy, after Victima (PAPERS.md): instead of dedicated
// SRAM, its storage is ordinary cache lines, each holding one VBundle of
// packed PTEs. That buys enormous reach (thousands of bundles fit in an
// L2/LLC slice) at the price of cache-access latency per probe — the MMU
// charges each probe as a data-cache access to the storage lines this
// level reports via ProbedLines, not as a fixed SRAM latency.
//
// The level is fed exclusively by eviction-driven demotion from the SRAM
// level above it (Demote); Fill on a page walk is a no-op, so the victim
// holds only translations that earned residency once and were pushed
// out. A deep hit promotes the translation back up and removes it here
// (move semantics). 4KB and 2MB pages are supported; 1GB demotions are
// refused (a 4-entry SRAM array already covers more 1GB reach than any
// bundle scheme) and surface in the MMU's demotion-drop counter.
type Victim struct {
	name string
	sets int
	ways int
	mask uint64
	// bundles is tagged by sizedKey(page size, bundle number);
	// data holds each way's packed PTEs. Way i is storage line i.
	bundles lru.Array
	data    []VBundle
	// lineBase is the physical address of way 0 of set 0's storage line;
	// way i lives at lineBase + i*CacheLineSize.
	lineBase addr.P

	probed  []addr.P                // storage lines touched by the last Lookup
	scratch []pagetable.Translation // reused by Members
}

// locate returns the set holding va's bundle of the given size, the
// bundle number and the bundle's tag key.
func (t *Victim) locate(va addr.V, size addr.PageSize) (set int, bvpn, key uint64) {
	bvpn = BundleVPN(va, size)
	return int(bvpn & t.mask), bvpn, sizedKey(size, bvpn)
}

// bundleOf returns way i's page size and bundle number, decoded from its key.
func (t *Victim) bundleOf(i int) (addr.PageSize, uint64) {
	key := t.bundles.Key(i)
	return addr.PageSize(key >> sizeKeyShift), key & (1<<sizeKeyShift - 1)
}

// victimSizes is the probe order: 4KB bundles first (the common case on
// fragmented memory), then 2MB.
var victimSizes = [...]addr.PageSize{addr.Page4K, addr.Page2M}

// VictimLineBase is where the victim level's storage lines live in the
// simulated physical address space: above any modeled DRAM (experiments
// allocate at most a few GB) but within the implemented PABits, so the
// cache hierarchy treats the lines like any other memory.
const VictimLineBase addr.P = 1 << 40

// NewVictim builds a victim level with sets x ways bundles (each bundle
// holds BundlePTEs PTEs). sets must be a power of two.
func NewVictim(name string, sets, ways int) (*Victim, error) {
	if sets <= 0 || !addr.IsPow2(uint64(sets)) || ways <= 0 || ways > MaxLookupWays/len(victimSizes) {
		return nil, cfgErr(name, "bad geometry %dx%d", sets, ways)
	}
	t := &Victim{
		name:     name,
		sets:     sets,
		ways:     ways,
		mask:     uint64(sets - 1),
		bundles:  lru.New(sets, ways),
		data:     make([]VBundle, sets*ways),
		lineBase: VictimLineBase,
	}
	t.probed = make([]addr.P, 0, len(victimSizes))
	t.scratch = make([]pagetable.Translation, 0, BundlePTEs)
	return t, nil
}

// Name implements TLB.
func (t *Victim) Name() string { return t.name }

// Entries implements TLB: total PTE capacity, for area comparisons.
func (t *Victim) Entries() int { return t.sets * t.ways * BundlePTEs }

// lineOf returns the storage line of way i.
func (t *Victim) lineOf(i int) addr.P {
	return t.lineBase + addr.P(i*addr.CacheLineSize)
}

// Lookup implements TLB: one probe round per page size, each reading one
// candidate storage line (the matching way's line on a hit; the set's
// first way on a miss — the tag read that concludes "not here").
func (t *Victim) Lookup(req Request) Result {
	t.probed = t.probed[:0]
	var res Result
	for _, size := range victimSizes {
		set, bvpn, key := t.locate(req.VA, size)
		res.Cost.Probes++
		res.Cost.WaysRead += uint32(t.ways)
		i := t.bundles.Find(set, key)
		if i < 0 {
			t.probed = append(t.probed, t.lineOf(set*t.ways))
			continue
		}
		t.probed = append(t.probed, t.lineOf(i))
		if tr, ok := t.data[i].Get(BundleSlot(req.VA, size), bvpn, size); ok {
			t.bundles.Touch(i)
			res.Hit = true
			res.T = tr
			return res
		}
	}
	return res
}

// ProbedLines implements CacheResident: the storage lines the last
// Lookup read, valid until the next Lookup.
func (t *Victim) ProbedLines() []addr.P { return t.probed }

// Fill implements TLB as a no-op: the victim level is fed only by
// demotion. Refilling walk results here would duplicate what the SRAM
// levels just cached and burn cache bandwidth on lines about to be
// demoted into anyway.
func (t *Victim) Fill(req Request, walk pagetable.WalkResult) Cost { return Cost{} }

// Demote implements Demoter: absorb a translation evicted from the SRAM
// level above. absorbed is false when the victim refuses the page
// (invalid or 1GB); evicted counts PTEs displaced when absorbing forced
// out a resident bundle.
func (t *Victim) Demote(tr pagetable.Translation) (absorbed bool, evicted int) {
	if !tr.Valid() || (tr.Size != addr.Page4K && tr.Size != addr.Page2M) {
		return false, 0
	}
	// A demoted entry was resident and used; its bundle slot carries the
	// accessed bit and the entry's dirty bit.
	tr.Accessed = true
	set, _, key := t.locate(tr.VA, tr.Size)
	// Merge into the resident bundle if one exists, else allocate. Way
	// indexes never move: they are the storage lines the MMU charges.
	i, resident := t.bundles.Probe(set, key)
	if !resident {
		if t.bundles.Valid(i) {
			evicted = t.data[i].Count()
		}
		t.data[i] = VBundle{}
	}
	t.data[i].Set(BundleSlot(tr.VA, tr.Size), tr)
	t.bundles.Put(i, key)
	return true, evicted
}

// Members implements BundleProvider: the present members of the bundle
// covering va, the payload a deep-hit promotion copies upward. The slice
// is scratch, reused by the next call.
func (t *Victim) Members(va addr.V) []pagetable.Translation {
	for _, size := range victimSizes {
		i, bvpn := t.find(va, size)
		if i < 0 || !t.data[i].Present(BundleSlot(va, size)) {
			continue
		}
		out := t.data[i].AppendMembers(t.scratch[:0], bvpn, size)
		t.scratch = out[:0]
		return out
	}
	return nil
}

// find returns the way holding va's bundle of the given size, or -1, and
// the bundle number. Demote merges into a resident bundle, so a set holds
// each bundle at most once.
func (t *Victim) find(va addr.V, size addr.PageSize) (int, uint64) {
	set, bvpn, key := t.locate(va, size)
	return t.bundles.Find(set, key), bvpn
}

// MarkDirty implements TLB: set the member PTE's D bit. Precise, so
// future stores may skip the update micro-op.
func (t *Victim) MarkDirty(va addr.V) bool {
	for _, size := range victimSizes {
		i, bvpn := t.find(va, size)
		if i < 0 {
			continue
		}
		slot := BundleSlot(va, size)
		if tr, ok := t.data[i].Get(slot, bvpn, size); ok {
			tr.Dirty = true
			t.data[i].Set(slot, tr)
			return true
		}
	}
	return false
}

// Invalidate implements TLB: clear the member's slot; an emptied bundle
// frees its way.
func (t *Victim) Invalidate(va addr.V, size addr.PageSize) int {
	if size != addr.Page4K && size != addr.Page2M {
		return 0
	}
	i, _ := t.find(va, size)
	slot := BundleSlot(va, size)
	if i < 0 || !t.data[i].Present(slot) {
		return 0
	}
	t.data[i].Clear(slot)
	if t.data[i].Empty() {
		t.bundles.Clear(i)
	}
	return 1
}

// Flush implements TLB.
func (t *Victim) Flush() { t.bundles.Flush() }

// ReachBytes implements ReachReporter: bytes of virtual address space
// the resident members translate.
func (t *Victim) ReachBytes() uint64 {
	var b uint64
	for i := range t.data {
		if t.bundles.Valid(i) {
			size, _ := t.bundleOf(i)
			b += uint64(t.data[i].Count()) * size.Bytes()
		}
	}
	return b
}

// OccupancyBySet implements OccupancyReporter: valid bundles per set.
func (t *Victim) OccupancyBySet() []int { return t.bundles.Occupancy() }

// Dump returns a fresh slice of every resident member translation
// (diagnostics and tests; the simulation never calls it).
func (t *Victim) Dump() []pagetable.Translation {
	var out []pagetable.Translation
	for i := range t.data {
		if t.bundles.Valid(i) {
			size, bvpn := t.bundleOf(i)
			out = t.data[i].AppendMembers(out, bvpn, size)
		}
	}
	return out
}
