package tlb

import (
	"mixtlb/internal/addr"
	"mixtlb/internal/lru"
	"mixtlb/internal/pagetable"
)

// SetAssoc is a conventional set-associative TLB for exactly one page
// size — the building block of commercial split designs. With Sets == 1
// it degenerates to a fully-associative TLB (used for 1GB entries on real
// parts, Sec 6.1).
type SetAssoc struct {
	name string
	size addr.PageSize
	sets int
	ways int
	// shift and mask precompute the page-number extraction and set
	// masking so the probe loop does no per-call size dispatch.
	shift uint
	mask  uint64
	// vpns is tagged by page number; data holds each way's translation.
	vpns lru.Array
	data []slotData
	sink EvictionSink // capacity-eviction feed (nil = detached)
}

// NewSetAssoc builds a TLB with the given geometry caching only pages of
// size s. sets must be a power of two.
func NewSetAssoc(name string, s addr.PageSize, sets, ways int) (*SetAssoc, error) {
	if sets <= 0 || !addr.IsPow2(uint64(sets)) || ways <= 0 {
		return nil, cfgErr(name, "bad geometry %dx%d", sets, ways)
	}
	return &SetAssoc{
		name:  name,
		size:  s,
		sets:  sets,
		ways:  ways,
		shift: s.Shift(),
		mask:  uint64(sets - 1),
		vpns:  lru.New(sets, ways),
		data:  make([]slotData, sets*ways),
	}, nil
}

// Name implements TLB.
func (t *SetAssoc) Name() string { return t.name }

// Entries implements TLB.
func (t *SetAssoc) Entries() int { return t.sets * t.ways }

// PageSize returns the single page size this TLB caches.
func (t *SetAssoc) PageSize() addr.PageSize { return t.size }

// LookupReplayConsistent implements ReplayConsistent.
func (t *SetAssoc) LookupReplayConsistent() bool { return true }

// SetEvictionSink implements EvictionNotifier.
func (t *SetAssoc) SetEvictionSink(sink EvictionSink) { t.sink = sink }

// ReachBytes implements ReachReporter.
func (t *SetAssoc) ReachBytes() uint64 {
	n := uint64(0)
	for i := range t.data {
		if t.vpns.Valid(i) {
			n++
		}
	}
	return n * t.size.Bytes()
}

// OccupancyBySet implements OccupancyReporter.
func (t *SetAssoc) OccupancyBySet() []int { return t.vpns.Occupancy() }

// locate returns va's set and page number.
func (t *SetAssoc) locate(va addr.V) (int, uint64) {
	vpn := uint64(va) >> t.shift
	return int(vpn & t.mask), vpn
}

// Lookup implements TLB.
func (t *SetAssoc) Lookup(req Request) Result {
	res := Result{Cost: Cost{Probes: 1, WaysRead: t.ways}}
	if i := t.vpns.Find(t.locate(req.VA)); i >= 0 {
		t.vpns.Touch(i)
		res.Hit = true
		res.T = t.data[i].t
		res.Dirty = t.data[i].dirty
	}
	return res
}

// Fill implements TLB. Translations of other page sizes are ignored (the
// split wrapper routes fills to the right component).
func (t *SetAssoc) Fill(req Request, walk pagetable.WalkResult) Cost {
	if !walk.Found || walk.Translation.Size != t.size {
		return Cost{}
	}
	set, _ := t.locate(req.VA)
	i := t.vpns.Victim(set)
	if t.vpns.Valid(i) && t.sink != nil {
		t.sink(t.data[i].t, t.data[i].dirty)
	}
	t.vpns.Put(i, uint64(walk.Translation.VA)>>t.shift)
	t.data[i] = slotData{t: walk.Translation, dirty: walk.Translation.Dirty}
	return Cost{SetsFilled: 1, EntriesWritten: 1}
}

// MarkDirty implements TLB.
func (t *SetAssoc) MarkDirty(va addr.V) bool {
	if i := t.vpns.Find(t.locate(va)); i >= 0 {
		t.data[i].dirty = true
		return true
	}
	return false
}

// Invalidate implements TLB: Fill does not look for a resident copy, so
// every copy of the page goes.
func (t *SetAssoc) Invalidate(va addr.V, size addr.PageSize) int {
	if size != t.size {
		return 0
	}
	set, vpn := t.locate(va)
	n := 0
	for i := t.vpns.Find(set, vpn); i >= 0; i = t.vpns.FindNext(i, vpn) {
		t.vpns.Clear(i)
		n++
	}
	return n
}

// Flush implements TLB.
func (t *SetAssoc) Flush() { t.vpns.Flush() }
