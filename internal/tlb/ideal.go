package tlb

import (
	"mixtlb/internal/addr"
	"mixtlb/internal/pagetable"
)

// Ideal is the unrealizable yardstick of Figures 1 and 15: a TLB that
// never misses on any mapped translation, regardless of page size or
// distribution. It answers straight from the page table with unit lookup
// cost and no fill, walk, or mirroring overheads.
type Ideal struct {
	pt *pagetable.PageTable
}

// NewIdeal builds an ideal TLB backed by the given page table.
func NewIdeal(pt *pagetable.PageTable) *Ideal { return &Ideal{pt: pt} }

// Name implements TLB.
func (t *Ideal) Name() string { return "ideal" }

// Entries implements TLB. An ideal TLB has unbounded capacity; it reports
// 0 to opt out of area comparisons.
func (t *Ideal) Entries() int { return 0 }

// LookupReplayConsistent implements ReplayConsistent: a lookup is a pure
// page-table read, and mapped leaves only change through MMU-visible
// operations (walks, invalidations) between accesses.
func (t *Ideal) LookupReplayConsistent() bool { return true }

// Lookup implements TLB: every mapped VA hits. Unmapped VAs still miss so
// demand paging proceeds normally.
func (t *Ideal) Lookup(req Request) Result {
	res := Result{Cost: LookupCost{Probes: 1, WaysRead: 1}}
	tr, ok := t.pt.Lookup(req.VA)
	if !ok {
		return res
	}
	res.Hit = true
	res.T = tr
	res.T.Dirty = true // never inject dirty micro-ops: zero overhead by construction
	return res
}

// Fill implements TLB (no-op: the next lookup hits by construction).
func (t *Ideal) Fill(Request, pagetable.WalkResult) Cost { return Cost{} }

// MarkDirty implements TLB.
func (t *Ideal) MarkDirty(addr.V) bool { return true }

// Invalidate implements TLB (the backing page table is authoritative).
func (t *Ideal) Invalidate(addr.V, addr.PageSize) int { return 0 }

// Flush implements TLB (no state).
func (t *Ideal) Flush() {}
