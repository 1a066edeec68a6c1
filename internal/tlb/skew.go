package tlb

import (
	"mixtlb/internal/addr"
	"mixtlb/internal/pagetable"
)

// Skew is the skew-associative baseline (Seznec, Sec 5.1): every way has
// its own hash function, each page size is cacheable in a configurable
// number of ways, and a lookup reads *all* ways in parallel — the design's
// energy problem, since the read count is the sum of associativities
// across page sizes. Replacement needs global timestamps (another cost the
// paper charges it with); this model keeps a per-entry stamp.
type Skew struct {
	name       string
	sets       int
	waySize    []addr.PageSize // page size cached by each way
	data       [][]entrySlot   // [way][set]
	clock      uint64
	hashMixers []uint64
	// Way lists are fixed at construction; precomputing them keeps the
	// per-lookup probe loops allocation-free.
	all        []int                    // every way, ascending
	waysBySize [addr.NumPageSizes][]int // ways caching each size, ascending
	restBySize [addr.NumPageSizes][]int // ways NOT caching each size, ascending
}

// NewSkew builds a skew TLB with `sets` entries per way. waysPerSize maps
// each supported page size to its number of ways; the paper's 3-size
// example with 2 ways each yields a 6-way structure.
func NewSkew(name string, sets int, waysPerSize map[addr.PageSize]int) (*Skew, error) {
	if sets <= 0 || !addr.IsPow2(uint64(sets)) {
		return nil, cfgErr(name, "bad skew set count %d", sets)
	}
	t := &Skew{name: name, sets: sets}
	for _, s := range addr.Sizes() {
		for i := 0; i < waysPerSize[s]; i++ {
			t.waySize = append(t.waySize, s)
		}
	}
	if len(t.waySize) == 0 {
		return nil, cfgErr(name, "skew TLB with zero ways")
	}
	t.data = make([][]entrySlot, len(t.waySize))
	t.hashMixers = make([]uint64, len(t.waySize))
	for w := range t.data {
		t.data[w] = make([]entrySlot, sets)
		// Distinct odd multipliers give each way an independent
		// multiplicative hash — the skewing property that moves conflict
		// groups apart across ways.
		t.hashMixers[w] = 0x9e3779b97f4a7c15*uint64(w+1) | 1
	}
	for w := range t.waySize {
		t.all = append(t.all, w)
	}
	for _, s := range addr.Sizes() {
		for w, ws := range t.waySize {
			if ws == s {
				t.waysBySize[s] = append(t.waysBySize[s], w)
			} else {
				t.restBySize[s] = append(t.restBySize[s], w)
			}
		}
	}
	return t, nil
}

// NewSkewAllSizes builds the paper's configuration: all three page sizes,
// waysEach ways per size.
func NewSkewAllSizes(name string, sets, waysEach int) (*Skew, error) {
	return NewSkew(name, sets, map[addr.PageSize]int{
		addr.Page4K: waysEach, addr.Page2M: waysEach, addr.Page1G: waysEach,
	})
}

// Name implements TLB.
func (t *Skew) Name() string { return t.name }

// Entries implements TLB.
func (t *Skew) Entries() int { return len(t.waySize) * t.sets }

// Ways returns the total way count (lookup energy is proportional to it).
func (t *Skew) Ways() int { return len(t.waySize) }

// index computes way w's skewed index for va.
func (t *Skew) index(va addr.V, w int) int {
	vpn := va.PageNum(t.waySize[w])
	h := vpn * t.hashMixers[w]
	h ^= h >> 29
	return int(h & uint64(t.sets-1))
}

// lookupWays probes the given ways, leaving cost accounting to callers.
func (t *Skew) lookupWays(req Request, ways []int) (Result, bool) {
	for _, w := range ways {
		s := t.waySize[w]
		e := &t.data[w][t.index(req.VA, w)]
		if e.valid && e.t.Size == s && e.t.VA.PageNum(s) == req.VA.PageNum(s) {
			e.stamp = t.clock
			return Result{Hit: true, T: e.t, Dirty: e.dirty}, true
		}
	}
	return Result{}, false
}

// waysForSize lists the way indices that cache size s.
func (t *Skew) waysForSize(s addr.PageSize) []int { return t.waysBySize[s] }

// LookupReplayConsistent implements ReplayConsistent.
func (t *Skew) LookupReplayConsistent() bool { return true }

// Lookup implements TLB: one probe round reading every way.
func (t *Skew) Lookup(req Request) Result {
	t.clock++
	res, _ := t.lookupWays(req, t.all)
	res.Cost = Cost{Probes: 1, WaysRead: len(t.waySize)}
	return res
}

// LookupPredicted probes the ways of the predicted size first (the energy
// optimization of prediction-based schemes), reading the remaining ways
// only on a first-round miss.
func (t *Skew) LookupPredicted(req Request, predicted addr.PageSize) Result {
	t.clock++
	first := t.waysForSize(predicted)
	res, hit := t.lookupWays(req, first)
	res.Cost = Cost{Probes: 1, WaysRead: len(first)}
	if hit {
		return res
	}
	rest := t.restBySize[predicted]
	res2, _ := t.lookupWays(req, rest)
	res2.Cost = res.Cost
	res2.Cost.Probes++
	res2.Cost.WaysRead += len(rest)
	return res2
}

// Fill implements TLB: the victim is the first free, else the oldest,
// entry among the indexed slots of the ways assigned to the translation's
// size. The candidates are not one set, so this scan is Skew's own.
func (t *Skew) Fill(req Request, walk pagetable.WalkResult) Cost {
	if !walk.Found {
		return Cost{}
	}
	ways := t.waysForSize(walk.Translation.Size)
	if len(ways) == 0 {
		return Cost{}
	}
	t.clock++
	victimWay, oldest := -1, ^uint64(0)
	for _, w := range ways {
		e := &t.data[w][t.index(req.VA, w)]
		if !e.valid {
			victimWay, oldest = w, 0
			break
		}
		if e.stamp < oldest {
			victimWay, oldest = w, e.stamp
		}
	}
	e := &t.data[victimWay][t.index(req.VA, victimWay)]
	*e = entrySlot{valid: true, t: walk.Translation, dirty: walk.Translation.Dirty, stamp: t.clock}
	return Cost{SetsFilled: 1, EntriesWritten: 1}
}

// MarkDirty implements TLB.
func (t *Skew) MarkDirty(va addr.V) bool {
	for w := range t.waySize {
		s := t.waySize[w]
		e := &t.data[w][t.index(va, w)]
		if e.valid && e.t.Size == s && e.t.VA.PageNum(s) == va.PageNum(s) {
			e.dirty = true
			return true
		}
	}
	return false
}

// Invalidate implements TLB.
func (t *Skew) Invalidate(va addr.V, size addr.PageSize) int {
	n := 0
	for _, w := range t.waysForSize(size) {
		e := &t.data[w][t.index(va, w)]
		if e.valid && e.t.VA.PageNum(size) == va.PageNum(size) {
			e.valid = false
			n++
		}
	}
	return n
}

// Flush implements TLB.
func (t *Skew) Flush() {
	for w := range t.data {
		for i := range t.data[w] {
			t.data[w][i].valid = false
		}
	}
}

// entrySlot is one skew way's entry: a translation plus its valid bit
// and LRU stamp. Skew keeps its own slots rather than an lru.Array
// because a fill's candidates are one slot per way, each at its own
// hashed index, not the ways of one set.
type entrySlot struct {
	valid bool
	t     pagetable.Translation
	dirty bool
	stamp uint64
}
