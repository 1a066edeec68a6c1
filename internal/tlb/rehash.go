package tlb

import (
	"mixtlb/internal/addr"
	"mixtlb/internal/lru"
	"mixtlb/internal/pagetable"
)

// HashRehash is the multi-indexing baseline of Sec 5.1: a single
// set-associative array holding multiple page sizes, probed once per page
// size until a hit ("hash" with the first size, "rehash" with the next,
// ...). Hits therefore have variable latency and misses pay for every
// round — the drawbacks the paper charges this design with. Intel's
// Haswell/Skylake L2 TLBs use this scheme for 4KB+2MB only.
type HashRehash struct {
	name  string
	sizes []addr.PageSize // default probe order
	// orders[g] is the probe order with guess g first and every other
	// size after it once, precomputed so a predicted lookup reuses it.
	orders [addr.NumPageSizes][]addr.PageSize
	sets   int
	ways   int
	mask   uint64                  // sets-1
	shifts [addr.NumPageSizes]uint // page-number shift per size
	cached [addr.NumPageSizes]bool // size supported?
	// pages is tagged by sizedKey(page size, page number); data holds
	// each way's translation.
	pages lru.Array
	data  []slotData
	sink  EvictionSink // capacity-eviction feed (nil = detached)
}

// NewHashRehash builds a hash-rehash TLB probing the given sizes in order.
func NewHashRehash(name string, sets, ways int, sizes ...addr.PageSize) (*HashRehash, error) {
	if sets <= 0 || !addr.IsPow2(uint64(sets)) || ways <= 0 || ways > MaxLookupWays/addr.NumPageSizes {
		return nil, cfgErr(name, "bad geometry %dx%d", sets, ways)
	}
	if len(sizes) == 0 || len(sizes) > addr.NumPageSizes {
		return nil, cfgErr(name, "hash-rehash probes 1 to %d page sizes, not %d", addr.NumPageSizes, len(sizes))
	}
	for _, s := range sizes {
		if !s.Valid() {
			return nil, cfgErr(name, "invalid page size %d", s)
		}
	}
	t := &HashRehash{
		name: name, sizes: sizes, sets: sets, ways: ways, mask: uint64(sets - 1),
		pages: lru.New(sets, ways), data: make([]slotData, sets*ways),
	}
	for _, s := range addr.Sizes() {
		t.shifts[s] = s.Shift()
	}
	for _, s := range sizes {
		t.cached[s] = true
	}
	for _, g := range addr.Sizes() {
		order := append(make([]addr.PageSize, 0, len(sizes)+1), g)
		for _, s := range sizes {
			if s != g {
				order = append(order, s)
			}
		}
		t.orders[g] = order
	}
	return t, nil
}

// Name implements TLB.
func (t *HashRehash) Name() string { return t.name }

// Entries implements TLB.
func (t *HashRehash) Entries() int { return t.sets * t.ways }

// Sizes returns the page sizes this TLB caches, in default probe order.
func (t *HashRehash) Sizes() []addr.PageSize { return t.sizes }

// caches reports whether s is one of the supported sizes.
func (t *HashRehash) caches(s addr.PageSize) bool {
	return s.Valid() && t.cached[s]
}

// LookupReplayConsistent implements ReplayConsistent.
func (t *HashRehash) LookupReplayConsistent() bool { return true }

// SetEvictionSink implements EvictionNotifier.
func (t *HashRehash) SetEvictionSink(sink EvictionSink) { t.sink = sink }

// ReachBytes implements ReachReporter.
func (t *HashRehash) ReachBytes() uint64 {
	var b uint64
	for i := range t.data {
		if t.pages.Valid(i) {
			b += t.data[i].t.Size.Bytes()
		}
	}
	return b
}

// locate returns the set a translation of size s for va lives in, and
// its tag key.
func (t *HashRehash) locate(va addr.V, s addr.PageSize) (int, uint64) {
	vpn := uint64(va) >> t.shifts[s]
	return int(vpn & t.mask), sizedKey(s, vpn)
}

// Lookup implements TLB using the default probe order.
func (t *HashRehash) Lookup(req Request) Result {
	return t.lookupOrdered(req, t.sizes)
}

// LookupPredicted probes the guessed size first, then the others.
func (t *HashRehash) LookupPredicted(req Request, guess addr.PageSize) Result {
	return t.lookupOrdered(req, t.orders[guess])
}

// lookupOrdered probes page sizes in the given order. Every round costs a
// probe and a full set read.
func (t *HashRehash) lookupOrdered(req Request, order []addr.PageSize) Result {
	var res Result
	for _, s := range order {
		if !t.caches(s) {
			continue
		}
		res.Cost.Probes++
		res.Cost.WaysRead += uint32(t.ways)
		if i := t.pages.Find(t.locate(req.VA, s)); i >= 0 {
			t.pages.Touch(i)
			res.Hit = true
			res.T = t.data[i].t
			res.Dirty = t.data[i].dirty
			return res
		}
	}
	return res
}

// Fill implements TLB.
func (t *HashRehash) Fill(req Request, walk pagetable.WalkResult) Cost {
	tr := walk.Translation
	if !walk.Found || !t.caches(tr.Size) {
		return Cost{}
	}
	set, _ := t.locate(req.VA, tr.Size)
	i := t.pages.Victim(set)
	if t.pages.Valid(i) && t.sink != nil {
		t.sink(t.data[i].t, t.data[i].dirty)
	}
	_, key := t.locate(tr.VA, tr.Size)
	t.pages.Put(i, key)
	t.data[i] = slotData{t: tr, dirty: tr.Dirty}
	return Cost{SetsFilled: 1, EntriesWritten: 1}
}

// MarkDirty implements TLB.
func (t *HashRehash) MarkDirty(va addr.V) bool {
	for _, s := range t.sizes {
		if i := t.pages.Find(t.locate(va, s)); i >= 0 {
			t.data[i].dirty = true
			return true
		}
	}
	return false
}

// Invalidate implements TLB: it drops the first copy of the page only.
func (t *HashRehash) Invalidate(va addr.V, size addr.PageSize) int {
	if !t.caches(size) {
		return 0
	}
	if i := t.pages.Find(t.locate(va, size)); i >= 0 {
		t.pages.Clear(i)
		return 1
	}
	return 0
}

// Flush implements TLB.
func (t *HashRehash) Flush() { t.pages.Flush() }
