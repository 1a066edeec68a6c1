package tlb

import (
	"strings"

	"mixtlb/internal/addr"
	"mixtlb/internal/pagetable"
)

// Split is the commercial baseline (Sec 1): independent TLBs per page
// size, all probed in parallel on lookup. A hit in one component
// implicitly reveals the page size; a fill is routed by the walked
// translation's size. The well-known pathology is mutual underutilization:
// when the OS allocates only small pages the superpage components idle,
// and vice versa (Fig 1).
//
// Components need not be single-size: Haswell's L2 combines 4KB and 2MB in
// one hash-rehash structure next to a separate 1GB TLB (Sec 7.2), which is
// expressed here as Split{HashRehash(4K,2M), SetAssoc(1G)}.
type Split struct {
	name   string
	parts  []TLB
	leaves int // structures probed per lookup, nested splits expanded
}

// NewSplit combines the given component TLBs. Every page size must be
// served by at least one component for fills to land somewhere. A lookup
// sums its components' costs, so at most maxSplitLeaves structures may be
// probed in parallel (a nested split counts its own components).
func NewSplit(name string, parts ...TLB) (*Split, error) {
	if len(parts) == 0 {
		return nil, cfgErr(name, "split with no components")
	}
	s := &Split{name: name, parts: parts}
	for i, p := range parts {
		if p == nil {
			return nil, cfgErr(name, "nil component at index %d", i)
		}
		if sub, ok := p.(*Split); ok {
			s.leaves += sub.leaves
		} else {
			s.leaves++
		}
	}
	if s.leaves > maxSplitLeaves {
		return nil, cfgErr(name, "%d structures probed per lookup, more than %d", s.leaves, maxSplitLeaves)
	}
	return s, nil
}

// newSplitParts propagates the first component constructor error, keeping
// the hardcoded composite builders flat.
func newSplitParts(name string, parts []TLB, errs ...error) (*Split, error) {
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return NewSplit(name, parts...)
}

// NewHaswellL1 builds the paper's L1 baseline (Sec 6.1): 4-way 64-entry
// 4KB, 4-way 32-entry 2MB, and 4-entry fully-associative 1GB TLBs.
func NewHaswellL1() (*Split, error) {
	small, e1 := NewSetAssoc("L1-4K", addr.Page4K, 16, 4)
	mid, e2 := NewSetAssoc("L1-2M", addr.Page2M, 8, 4)
	big, e3 := NewSetAssoc("L1-1G", addr.Page1G, 1, 4)
	return newSplitParts("split-L1", []TLB{small, mid, big}, e1, e2, e3)
}

// NewHaswellL2 builds the paper's L2 baseline (Sec 6.1, 7.2): a 512-entry
// hash-rehash TLB for 4KB+2MB pages and a separate 32-entry 1GB TLB.
func NewHaswellL2() (*Split, error) {
	hr, e1 := NewHashRehash("L2-4K2M", 128, 4, addr.Page4K, addr.Page2M)
	big, e2 := NewSetAssoc("L2-1G", addr.Page1G, 8, 4)
	return newSplitParts("split-L2", []TLB{hr, big}, e1, e2)
}

// Name implements TLB.
func (s *Split) Name() string { return s.name }

// Entries implements TLB.
func (s *Split) Entries() int {
	n := 0
	for _, p := range s.parts {
		n += p.Entries()
	}
	return n
}

// Components returns the component TLBs (diagnostics, utilization studies).
func (s *Split) Components() []TLB { return s.parts }

// LookupReplayConsistent implements ReplayConsistent: a split lookup is
// replay-consistent iff every component's is.
func (s *Split) LookupReplayConsistent() bool {
	for _, p := range s.parts {
		rc, ok := p.(ReplayConsistent)
		if !ok || !rc.LookupReplayConsistent() {
			return false
		}
	}
	return true
}

// SetEvictionSink implements EvictionNotifier, attaching the sink to
// every component that can report evictions.
func (s *Split) SetEvictionSink(sink EvictionSink) {
	for _, p := range s.parts {
		if en, ok := p.(EvictionNotifier); ok {
			en.SetEvictionSink(sink)
		}
	}
}

// ReachBytes implements ReachReporter, summing the components that can
// report (others count as zero).
func (s *Split) ReachBytes() uint64 {
	var b uint64
	for _, p := range s.parts {
		if rr, ok := p.(ReachReporter); ok {
			b += rr.ReachBytes()
		}
	}
	return b
}

// Lookup implements TLB: all components probe in parallel, so the latency
// is the slowest component's probe count while energy sums every
// component's reads and predictor accesses.
func (s *Split) Lookup(req Request) Result {
	var out Result
	for _, p := range s.parts {
		r := p.Lookup(req)
		out.Cost.WaysRead += r.Cost.WaysRead
		out.Cost.PredictorReads += r.Cost.PredictorReads
		out.Cost.PredictorWrites += r.Cost.PredictorWrites
		out.Cost.Probes = max(out.Cost.Probes, r.Cost.Probes)
		if r.Hit && !out.Hit {
			out.Hit = true
			out.T = r.T
		}
	}
	return out
}

// Fill implements TLB, routing by the walked translation's page size.
// Components ignore sizes they do not cache, so offering the fill to each
// until one accepts models the hardware mux exactly.
func (s *Split) Fill(req Request, walk pagetable.WalkResult) Cost {
	for _, p := range s.parts {
		if c := p.Fill(req, walk); c.EntriesWritten > 0 || c.SetsFilled > 0 {
			return c
		}
	}
	return Cost{}
}

// Members implements BundleProvider by delegating to the first component
// holding a coalesced entry for va.
func (s *Split) Members(va addr.V) []pagetable.Translation {
	for _, p := range s.parts {
		if bp, ok := p.(BundleProvider); ok {
			if m := bp.Members(va); len(m) > 0 {
				return m
			}
		}
	}
	return nil
}

// MarkDirty implements TLB.
func (s *Split) MarkDirty(va addr.V) bool {
	for _, p := range s.parts {
		if p.MarkDirty(va) {
			return true
		}
	}
	return false
}

// Invalidate implements TLB.
func (s *Split) Invalidate(va addr.V, size addr.PageSize) int {
	n := 0
	for _, p := range s.parts {
		n += p.Invalidate(va, size)
	}
	return n
}

// Flush implements TLB.
func (s *Split) Flush() {
	for _, p := range s.parts {
		p.Flush()
	}
}

// String summarizes the composition.
func (s *Split) String() string {
	names := make([]string, len(s.parts))
	for i, p := range s.parts {
		names[i] = p.Name()
	}
	return s.name + "{" + strings.Join(names, "+") + "}"
}
